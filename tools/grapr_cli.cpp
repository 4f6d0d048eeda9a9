// grapr — command-line interface to the community detection framework.
//
//   grapr generate --type lfr --n 100000 --mu 0.3 --out g.gcsr
//   grapr detect   --algo PLM --in g.gcsr --out communities.txt
//   grapr stats    --in g.gcsr
//   grapr compare  --a communities.txt --b truth.txt [--graph g.gcsr]
//   grapr convert  --in g.metis --out g.tsv
//
// Graph formats are inferred from the extension: .metis/.graph (METIS),
// .gcsr (binary CSR, io/binary_csr.hpp), anything else is read/written
// as a whitespace edge list. The tool is the scripting surface of the
// library — the paper's "interactive data analysis workflow" driven from
// a shell.

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "grapr.hpp"
#include "generators/holme_kim.hpp"
#include "graph/distances.hpp"
#include "quality/conductance.hpp"
#include "quality/core_decomposition.hpp"
#include "community/local_expansion.hpp"
#include "community/overlapping_lpa.hpp"

using namespace grapr;

namespace {

[[noreturn]] void usage(const char* error = nullptr) {
    if (error) std::fprintf(stderr, "error: %s\n\n", error);
    std::fprintf(stderr,
        "usage: grapr <command> [options]\n"
        "\n"
        "commands:\n"
        "  generate  --type lfr|rmat|ba|hk|er|pp|ws|grid --out FILE\n"
        "            [--n N] [--mu F] [--scale S] [--edge-factor K]\n"
        "            [--attachment K] [--p F] [--groups K] [--pin F]\n"
        "            [--pout F] [--seed N]\n"
        "  detect    --algo NAME --in FILE [--out FILE] [--seed N]\n"
        "            [--threads N] [--gamma F]\n"
        "            (NAME: PLP PLM PLMR 'EPP(4,PLP,PLM)' Louvain RG\n"
        "             CGGC CGGCi CLU_TBB CEL ...)\n"
        "  stats     --in FILE [--diameter] [--cores]\n"
        "  local     --in FILE --seed NODE [--max-size N]\n"
        "  overlap   --in FILE [--memberships V] [--out FILE]\n"
        "  compare   --a PARTFILE --b PARTFILE [--graph FILE]\n"
        "  convert   --in FILE --out FILE\n"
        "  stream    --durable DIR [--in FILE] [--batches N] [--ops K]\n"
        "            [--group-commit G] [--checkpoint-interval C]\n"
        "            [--seed N] [--out FILE]\n"
        "            (with --in: seed a fresh durable engine from FILE;\n"
        "             without: recover the engine from DIR and continue.\n"
        "             Applies N synthetic churn batches through the WAL;\n"
        "             kill it anytime — rerun without --in to recover.)\n"
        "\n"
        "loading options (any command that reads a graph):\n"
        "  --permissive      skip malformed lines with a warning instead of\n"
        "                    aborting with a parse error\n"
        "  --io-threads N    parser threads for text formats (default: all)\n"
        "  --weighted        edge-list files carry a third weight column\n"
        "  --one-indexed     edge-list node ids start at 1, not 0\n");
    std::exit(2);
}

class Args {
public:
    Args(int argc, char** argv, int first) {
        for (int i = first; i < argc; ++i) {
            std::string key = argv[i];
            if (key.rfind("--", 0) != 0) usage("expected --option");
            key = key.substr(2);
            if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
                values_[key] = argv[++i];
            } else {
                values_[key] = "1"; // boolean flag
            }
        }
    }

    bool has(const std::string& key) const { return values_.count(key) > 0; }

    std::string str(const std::string& key,
                    const std::string& fallback = "") const {
        auto it = values_.find(key);
        return it == values_.end() ? fallback : it->second;
    }

    std::string required(const std::string& key) const {
        if (!has(key)) usage(("missing --" + key).c_str());
        return values_.at(key);
    }

    double real(const std::string& key, double fallback) const {
        return has(key) ? std::strtod(values_.at(key).c_str(), nullptr)
                        : fallback;
    }

    count integer(const std::string& key, count fallback) const {
        return has(key)
                   ? std::strtoull(values_.at(key).c_str(), nullptr, 10)
                   : fallback;
    }

private:
    std::map<std::string, std::string> values_;
};

bool endsWith(const std::string& s, const std::string& suffix) {
    return s.size() >= suffix.size() &&
           s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

/// Load a graph file into the frozen layout, which every reader produces;
/// commands that need the mutable Graph thaw it themselves.
CsrGraph loadGraph(const std::string& path, const Args& args) {
    io::ParseOptions options;
    options.strict = !args.has("permissive");
    options.threads = static_cast<int>(args.integer("io-threads", 0));
    options.weighted = args.has("weighted");
    if (args.has("one-indexed")) options.indexBase = 1;
    if (endsWith(path, ".metis") || endsWith(path, ".graph")) {
        return io::readMetisCsr(path, options);
    }
    if (endsWith(path, ".gcsr")) return io::readBinaryCsr(path).graph;
    return io::readEdgeListCsr(path, options);
}

void saveGraph(const Graph& g, const std::string& path) {
    if (endsWith(path, ".metis") || endsWith(path, ".graph")) {
        io::writeMetis(g, path);
    } else if (endsWith(path, ".gcsr")) {
        io::writeBinaryCsr(CsrGraph(g), 0, path);
    } else if (endsWith(path, ".dot")) {
        io::writeDot(g, path);
    } else {
        io::writeEdgeList(g, path, g.isWeighted());
    }
}

int commandGenerate(const Args& args) {
    Random::setSeed(args.integer("seed", 42));
    const std::string type = args.required("type");
    const std::string out = args.required("out");
    const count n = args.integer("n", 100000);

    Graph g = [&]() -> Graph {
        if (type == "lfr") {
            LfrParameters params;
            params.n = n;
            params.mu = args.real("mu", 0.3);
            params.minDegree = args.integer("min-degree", 8);
            params.maxDegree = args.integer("max-degree", 50);
            params.minCommunitySize = args.integer("min-community", 20);
            params.maxCommunitySize = args.integer("max-community", 100);
            LfrGenerator generator(params);
            Graph graph = generator.generate();
            if (args.has("truth")) {
                io::writePartition(generator.groundTruth(),
                                   args.str("truth"));
                std::printf("ground truth -> %s\n",
                            args.str("truth").c_str());
            }
            return graph;
        }
        if (type == "rmat") {
            return RmatGenerator(args.integer("scale", 16),
                                 args.integer("edge-factor", 16))
                .generate();
        }
        if (type == "ba") {
            return BarabasiAlbertGenerator(n, args.integer("attachment", 4))
                .generate();
        }
        if (type == "hk") {
            return HolmeKimGenerator(n, args.integer("attachment", 4),
                                     args.real("triad", 0.5))
                .generate();
        }
        if (type == "er") {
            return ErdosRenyiGenerator(n, args.real("p", 0.0001)).generate();
        }
        if (type == "pp") {
            return PlantedPartitionGenerator(n, args.integer("groups", 100),
                                             args.real("pin", 0.05),
                                             args.real("pout", 0.0005))
                .generate();
        }
        if (type == "ws") {
            return WattsStrogatzGenerator(n, args.integer("k", 8),
                                          args.real("beta", 0.1))
                .generate();
        }
        if (type == "grid") {
            const count rows = args.integer("rows", 100);
            return GridGenerator(rows, n / rows).generate();
        }
        usage("unknown --type");
    }();

    saveGraph(g, out);
    std::printf("generated %s: n=%llu m=%llu -> %s\n", type.c_str(),
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()),
                out.c_str());
    return 0;
}

int commandDetect(const Args& args) {
    Random::setSeed(args.integer("seed", 42));
    if (args.has("threads")) {
        Parallel::setThreads(static_cast<int>(args.integer("threads", 1)));
    }
    const std::string algorithmName = args.str("algo", "PLM");
    const CsrGraph g = loadGraph(args.required("in"), args);
    std::printf("graph: n=%llu m=%llu\n",
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()));

    auto detector = [&]() -> std::unique_ptr<CommunityDetector> {
        if (args.has("gamma")) {
            const double gamma = args.real("gamma", 1.0);
            if (algorithmName == "PLM") {
                return std::make_unique<Plm>(PlmConfig{.gamma = gamma});
            }
            if (algorithmName == "PLMR") {
                return std::make_unique<Plmr>(gamma);
            }
        }
        return makeDetector(algorithmName);
    }();

    Timer timer;
    Partition zeta = detector->run(g);
    const double seconds = timer.elapsed();
    const double q = Modularity().getQuality(zeta, g);
    const CommunitySizeStats stats = communitySizeStats(zeta);
    std::printf("%s: %llu communities, modularity %.4f, %s "
                "(%.0f edges/s)\n",
                detector->toString().c_str(),
                static_cast<unsigned long long>(stats.communities), q,
                formatDuration(seconds).c_str(),
                static_cast<double>(g.numberOfEdges()) / seconds);
    if (args.has("out")) {
        io::writePartition(zeta, args.str("out"));
        std::printf("solution -> %s\n", args.str("out").c_str());
    }
    return 0;
}

int commandStats(const Args& args) {
    const Graph g = loadGraph(args.required("in"), args).toGraph();
    const GraphProfile profile =
        profileGraph(g, g.numberOfEdges() > 2000000 ? 1000000 : 0);
    std::printf("n               %llu\n",
                static_cast<unsigned long long>(profile.n));
    std::printf("m               %llu\n",
                static_cast<unsigned long long>(profile.m));
    std::printf("max degree      %llu\n",
                static_cast<unsigned long long>(profile.maxDegree));
    std::printf("avg degree      %.2f\n", profile.averageDegree);
    std::printf("components      %llu\n",
                static_cast<unsigned long long>(profile.components));
    std::printf("avg local CC    %.4f\n", profile.averageLcc);
    std::printf("assortativity   %+.4f\n", degreeAssortativity(g));
    if (args.has("diameter")) {
        std::printf("diameter (>=)   %llu\n",
                    static_cast<unsigned long long>(approximateDiameter(g)));
    }
    if (args.has("cores")) {
        CoreDecomposition cores(g);
        cores.run();
        std::printf("degeneracy      %llu\n",
                    static_cast<unsigned long long>(cores.degeneracy()));
    }
    return 0;
}

int commandLocal(const Args& args) {
    Random::setSeed(args.integer("seed-rng", 42));
    const Graph g = loadGraph(args.required("in"), args).toGraph();
    const node seed = static_cast<node>(args.integer("seed", 0));
    LocalExpansion expansion(args.integer("max-size", 1000));
    Timer timer;
    const LocalCommunity community = expansion.expand(g, seed);
    std::printf("community of node %llu: %zu members, conductance %.4f "
                "(%s)\n",
                static_cast<unsigned long long>(seed),
                community.members.size(), community.conductance,
                formatDuration(timer.elapsed()).c_str());
    for (std::size_t i = 0; i < community.members.size() && i < 50; ++i) {
        std::printf("%llu%c",
                    static_cast<unsigned long long>(community.members[i]),
                    (i + 1 == community.members.size() || i == 49) ? '\n'
                                                                   : ' ');
    }
    if (community.members.size() > 50) std::printf("... (truncated)\n");
    return 0;
}

int commandOverlap(const Args& args) {
    Random::setSeed(args.integer("seed", 42));
    const Graph g = loadGraph(args.required("in"), args).toGraph();
    OverlappingLpaConfig config;
    config.maxMemberships = args.integer("memberships", 2);
    OverlappingLpa lpa(config);
    Timer timer;
    const Cover cover = lpa.run(g);
    std::printf("overlapping LPA: %llu communities, %.1f%% of nodes in "
                "overlaps, %llu iterations (%s)\n",
                static_cast<unsigned long long>(cover.numberOfSubsets()),
                100.0 * cover.overlapFraction(),
                static_cast<unsigned long long>(lpa.iterations()),
                formatDuration(timer.elapsed()).c_str());
    if (args.has("out")) {
        // One line per node: space-separated community ids.
        std::FILE* f = std::fopen(args.str("out").c_str(), "w");
        if (!f) fail("overlap: cannot open " + args.str("out"));
        for (node v = 0; v < cover.numberOfElements(); ++v) {
            bool first = true;
            for (node c : cover.subsetsOf(v)) {
                std::fprintf(f, first ? "%u" : " %u", c);
                first = false;
            }
            std::fprintf(f, "\n");
        }
        std::fclose(f);
        std::printf("cover -> %s\n", args.str("out").c_str());
    }
    return 0;
}

int commandCompare(const Args& args) {
    const Partition a = io::readPartition(args.required("a"));
    const Partition b = io::readPartition(args.required("b"));
    std::printf("jaccard  %.4f\n", jaccardIndex(a, b));
    std::printf("rand     %.4f\n", randIndex(a, b));
    std::printf("nmi      %.4f\n", normalizedMutualInformation(a, b));
    if (args.has("graph")) {
        const CsrGraph g = loadGraph(args.str("graph"), args);
        std::printf("modularity(a) %.4f\n", Modularity().getQuality(a, g));
        std::printf("modularity(b) %.4f\n", Modularity().getQuality(b, g));
        const ConductanceSummary phi = conductanceSummary(a, g);
        std::printf("conductance(a) avg %.4f (min %.4f, max %.4f)\n",
                    phi.average, phi.minimum, phi.maximum);
    }
    return 0;
}

int commandStream(const Args& args) {
    // Durable streaming driver: the operational face of the WAL +
    // checkpoint subsystem (DESIGN.md "Durability, recovery, and fault
    // injection"). With --in it seeds a fresh engine and makes it durable;
    // without, it recovers whatever the directory holds — so a kill -9
    // mid-run followed by a re-run without --in is the end-to-end crash
    // drill. GRAPR_FAULT=<site:nth:kill> turns it into a scripted one.
    const std::string dir = args.required("durable");
    DurabilityOptions options;
    options.groupCommit = args.integer("group-commit", 1);
    options.checkpointInterval = args.integer("checkpoint-interval", 256);

    std::unique_ptr<StreamingGraph> engine;
    if (args.has("in")) {
        // Thawed: the Graph constructor sorts the rows the engine
        // binary-searches, and accepts what the parsers accept.
        const Graph g = loadGraph(args.str("in"), args).toGraph();
        std::printf("seed graph: n=%llu m=%llu\n",
                    static_cast<unsigned long long>(g.numberOfNodes()),
                    static_cast<unsigned long long>(g.numberOfEdges()));
        engine = std::make_unique<StreamingGraph>(g);
        engine->enableDurability(dir, options);
    } else {
        engine = std::make_unique<StreamingGraph>(dir, options);
        std::printf("recovered generation %llu from %s\n",
                    static_cast<unsigned long long>(engine->generation()),
                    dir.c_str());
    }

    // Synthetic churn: mixed inserts and removes against the live edge
    // set, applied Permissive (duplicate inserts / misses are counted,
    // not fatal). Deterministic in --seed so two runs of the same command
    // replay the same workload.
    const count batches = args.integer("batches", 64);
    const count opsPerBatch = args.integer("ops", 32);
    SplitMix64 gen = Random::forStream(args.integer("seed", 42));
    count applied = 0;
    Timer timer;
    for (count b = 0; b < batches; ++b) {
        const SnapshotPtr snap = engine->pin();
        const node bound =
            static_cast<node>(snap->graph.upperNodeIdBound());
        if (bound < 2) fail("stream: need at least 2 nodes to churn");
        EdgeBatch batch;
        for (count k = 0; k < opsPerBatch; ++k) {
            node u = static_cast<node>(Random::integer(gen, bound));
            node v = static_cast<node>(Random::integer(gen, bound - 1));
            if (v >= u) ++v; // uniform over v != u
            if (Random::chance(gen, 0.5)) {
                batch.insert(u, v, 1.0 + Random::real(gen));
            } else {
                batch.remove(u, v);
            }
        }
        const BatchResult result =
            engine->apply(batch, StreamApplyMode::Permissive);
        applied += result.inserted + result.removed + result.reweighted;
    }
    const double seconds = timer.elapsed();
    const SnapshotPtr finalSnap = engine->pin();
    std::printf("applied %llu batches (%llu net ops) in %s -> "
                "generation %llu, m=%llu\n",
                static_cast<unsigned long long>(batches),
                static_cast<unsigned long long>(applied),
                formatDuration(seconds).c_str(),
                static_cast<unsigned long long>(finalSnap->generation),
                static_cast<unsigned long long>(
                    finalSnap->graph.numberOfEdges()));
    if (args.has("out")) {
        saveGraph(finalSnap->graph.toGraph(), args.str("out"));
        std::printf("final snapshot -> %s\n", args.str("out").c_str());
    }
    return 0;
}

int commandConvert(const Args& args) {
    const Graph g = loadGraph(args.required("in"), args).toGraph();
    saveGraph(g, args.required("out"));
    std::printf("converted: n=%llu m=%llu -> %s\n",
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()),
                args.required("out").c_str());
    return 0;
}

} // namespace

int main(int argc, char** argv) {
    if (argc < 2) usage();
    const std::string command = argv[1];
    bool permissive = false;
    try {
        const Args args(argc, argv, 2);
        permissive = args.has("permissive");
        if (command == "generate") return commandGenerate(args);
        if (command == "detect") return commandDetect(args);
        if (command == "stats") return commandStats(args);
        if (command == "local") return commandLocal(args);
        if (command == "overlap") return commandOverlap(args);
        if (command == "compare") return commandCompare(args);
        if (command == "convert") return commandConvert(args);
        if (command == "stream") return commandStream(args);
        usage("unknown command");
    } catch (const io::IoError& e) {
        // Structured parse errors carry their own location; print it the
        // way compilers do so editors can jump to the offending line. The
        // hint only where --permissive would get past the error.
        std::fprintf(stderr, "error: %s\n", e.what());
        if (e.recoverable() && !permissive) {
            std::fprintf(stderr,
                         "hint: re-run with --permissive to skip malformed "
                         "lines\n");
        }
        return 1;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
