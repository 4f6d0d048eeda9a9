// Ingestion micro benchmark: the legacy getline + istringstream +
// GraphBuilder edge-list loader (the pre-pipeline readEdgeList, preserved
// verbatim below as the baseline) vs the mmap + from_chars parallel
// pipeline that parses straight into CSR (io::readEdgeListCsr), at 1, 2
// and 4 parser threads.
//
// Two speedup figures are reported per instance:
//   * legacy/pipeline@4 — the headline number the ISSUE targets (>=3x):
//     the end-to-end win of replacing the old loader;
//   * pipeline@1/pipeline@4 — pure thread scaling of the new pipeline.
// On a single-core container the second figure stays near 1x and the
// headline win must come from the algorithmic gains (no stream
// abstraction, no per-line string allocation, no intermediate adjacency
// lists); the JSON records the hardware thread count so readers can tell
// the cases apart. Both loaders end at the same place — a frozen CsrGraph
// — so the comparison is load-to-ready-to-run, not load-to-raw-bytes.
//
// Timing statistic: minimum and median over kRepetitions with the
// variants interleaved round-robin after one untimed warmup round, as in
// micro_plm_kernels. Emits BENCH_io.json. Environment:
// GRAPR_BENCH_QUICK=1 shrinks the instances, GRAPR_BENCH_THREADS
// overrides the pipeline's widest thread count (default 4).

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <omp.h>

#include "bench_common.hpp"
#include "generators/barabasi_albert.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "graph/graph_builder.hpp"
#include "io/edgelist_io.hpp"
#include "io/parallel_edgelist.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

using namespace grapr;

namespace {

constexpr int kRepetitions = 5;

struct Measurement {
    double minimum = 0.0;
    double median = 0.0;
};

Measurement toMeasurement(std::vector<double> samples) {
    std::sort(samples.begin(), samples.end());
    return {samples.front(), samples[samples.size() / 2]};
}

// --- the legacy loader, kept byte for byte as the baseline ---------------
// This is the pre-pipeline io::readEdgeList: buffered getline, one
// istringstream per line, hash-map id remapping, GraphBuilder, then a
// freeze into CsrGraph (both contenders must end at the CSR layout the
// algorithms actually run on).

bool legacyIsCommentOrBlank(const std::string& line, char comment) {
    for (char c : line) {
        if (c == ' ' || c == '\t' || c == '\r') continue;
        return c == comment || c == '%';
    }
    return true;
}

CsrGraph legacyLoad(const std::string& path) {
    std::ifstream in(path);
    if (!in) fail("legacyLoad: cannot open " + path);

    std::unordered_map<std::uint64_t, node> remap;
    std::vector<std::uint64_t> original;
    struct RawEdge {
        node u, v;
    };
    std::vector<RawEdge> edges;

    auto mapId = [&](std::uint64_t raw) -> node {
        auto [it, inserted] =
            remap.emplace(raw, static_cast<node>(original.size()));
        if (inserted) original.push_back(raw);
        return it->second;
    };

    count declaredN = 0;
    bool haveDeclaredN = false;

    std::string line;
    while (std::getline(in, line)) {
        if (legacyIsCommentOrBlank(line, '#')) {
            const auto marker = line.find("grapr edge list: n=");
            if (marker != std::string::npos) {
                declaredN = std::strtoull(
                    line.c_str() + marker +
                        std::strlen("grapr edge list: n="),
                    nullptr, 10);
                haveDeclaredN = true;
            }
            continue;
        }
        std::istringstream fields(line);
        std::uint64_t ru = 0, rv = 0;
        if (!(fields >> ru >> rv)) fail("legacyLoad: malformed line");
        if (haveDeclaredN) {
            edges.push_back(
                {static_cast<node>(ru), static_cast<node>(rv)});
        } else {
            edges.push_back({mapId(ru), mapId(rv)});
        }
    }

    const count n = haveDeclaredN ? declaredN : original.size();
    GraphBuilder builder(n, false);
    for (const auto& e : edges) builder.addEdge(e.u, e.v, 1.0);
    return CsrGraph(builder.build(/*dedup=*/false));
}

// -------------------------------------------------------------------------

struct InstanceReport {
    std::string name;
    std::string recipe;
    count nodes = 0;
    count edges = 0;
    std::uintmax_t fileBytes = 0;
    Measurement legacy;
    std::vector<std::pair<int, Measurement>> pipeline; // per thread count

    const Measurement& pipelineAt(int threads) const {
        for (const auto& [t, m] : pipeline) {
            if (t == threads) return m;
        }
        fail("pipelineAt: thread count not measured");
    }
};

InstanceReport measureInstance(const std::string& name,
                               const std::string& recipe, const Graph& g,
                               const std::string& file,
                               const std::vector<int>& threadCounts) {
    InstanceReport report;
    report.name = name;
    report.recipe = recipe;
    report.nodes = g.numberOfNodes();
    report.edges = g.numberOfEdges();

    io::writeEdgeList(g, file);
    report.fileBytes = std::filesystem::file_size(file);

    std::vector<std::function<CsrGraph()>> variants;
    variants.push_back([&] { return legacyLoad(file); });
    for (const int t : threadCounts) {
        variants.push_back([&, t] {
            io::ParseOptions options;
            options.threads = t;
            return io::readEdgeListCsr(file, options);
        });
    }

    // Correctness gate before timing: every variant must produce the same
    // edge set (the legacy loader's adjacency order differs, so compare
    // structurally via the thawed graphs).
    {
        const Graph reference = variants.front()().toGraph();
        for (std::size_t i = 1; i < variants.size(); ++i) {
            if (!variants[i]().toGraph().structurallyEquals(reference)) {
                fail("micro_parallel_io: loader disagreement on " + name);
            }
        }
    }

    // Interleaved timing: one warmup round (above), then kRepetitions
    // rounds of all variants back to back.
    std::vector<std::vector<double>> samples(variants.size());
    count sink = 0;
    for (int rep = 0; rep < kRepetitions; ++rep) {
        for (std::size_t i = 0; i < variants.size(); ++i) {
            Timer timer;
            const CsrGraph loaded = variants[i]();
            samples[i].push_back(timer.elapsed());
            sink += loaded.numberOfEdges(); // keep the load observable
        }
    }
    if (sink == 0 && report.edges > 0) fail("micro_parallel_io: empty load");
    report.legacy = toMeasurement(std::move(samples[0]));
    for (std::size_t i = 0; i < threadCounts.size(); ++i) {
        report.pipeline.emplace_back(threadCounts[i],
                                     toMeasurement(std::move(samples[i + 1])));
    }
    std::filesystem::remove(file);
    return report;
}

void writeJson(const std::vector<InstanceReport>& reports,
               const std::vector<int>& threadCounts) {
    std::ostringstream json;
    json << "{\n";
    json << "  \"bench\": \"micro_parallel_io\",\n";
    json << "  \"hardware_threads\": " << omp_get_num_procs() << ",\n";
    json << "  \"repetitions\": " << kRepetitions << ",\n";
    json << "  \"quick\": " << (bench::quickMode() ? "true" : "false")
         << ",\n";
    json << "  \"speedup_definition\": \"legacy.min_seconds / pipeline_t"
         << threadCounts.back() << ".min_seconds\",\n";
    json << "  \"instances\": [\n";
    for (std::size_t i = 0; i < reports.size(); ++i) {
        const auto& rep = reports[i];
        const int wide = threadCounts.back();
        json << "    {\n";
        json << "      \"name\": \"" << rep.name << "\",\n";
        json << "      \"recipe\": \"" << rep.recipe << "\",\n";
        json << "      \"nodes\": " << rep.nodes << ",\n";
        json << "      \"edges\": " << rep.edges << ",\n";
        json << "      \"file_bytes\": " << rep.fileBytes << ",\n";
        json << "      \"legacy\": {\"min_seconds\": " << rep.legacy.minimum
             << ", \"median_seconds\": " << rep.legacy.median << "},\n";
        for (const auto& [t, m] : rep.pipeline) {
            json << "      \"pipeline_t" << t
                 << "\": {\"min_seconds\": " << m.minimum
                 << ", \"median_seconds\": " << m.median << "},\n";
        }
        json << "      \"speedup_legacy_vs_t" << wide
             << "\": " << rep.legacy.minimum / rep.pipelineAt(wide).minimum
             << ",\n";
        json << "      \"speedup_legacy_vs_t1\": "
             << rep.legacy.minimum / rep.pipelineAt(1).minimum << ",\n";
        json << "      \"scaling_t1_vs_t" << wide
             << "\": " << rep.pipelineAt(1).minimum /
                              rep.pipelineAt(wide).minimum
             << "\n";
        json << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
    }
    json << "  ]\n";
    json << "}\n";

    std::ofstream out("BENCH_io.json");
    out << json.str();
    std::cout << "\nwrote BENCH_io.json\n";
}

} // namespace

int main() {
    int wide = 4;
    if (const char* env = std::getenv("GRAPR_BENCH_THREADS")) {
        wide = std::max(1, std::atoi(env));
    }
    std::vector<int> threadCounts = {1, 2, wide};
    threadCounts.erase(std::unique(threadCounts.begin(), threadCounts.end()),
                       threadCounts.end());
    if (threadCounts.back() < threadCounts[threadCounts.size() - 2]) {
        // GRAPR_BENCH_THREADS=1: measure the pipeline single-threaded only.
        threadCounts = {1};
    }
    bench::printPlatformBanner("micro_parallel_io");
    std::cout << "pipeline thread counts:";
    for (int t : threadCounts) std::cout << " " << t;
    std::cout << " (hardware threads: " << omp_get_num_procs() << ")\n";

    const bool quick = bench::quickMode();
    const int rmatScale = quick ? 13 : 18;
    const count baNodes = quick ? 20000 : 150000;
    const std::string dir = bench::dataDirectory();

    std::vector<InstanceReport> reports;
    {
        Random::setSeed(4001);
        const Graph g = RmatGenerator(rmatScale, 8).generate();
        reports.push_back(measureInstance(
            "rmat_s" + std::to_string(rmatScale),
            "RMAT scale " + std::to_string(rmatScale) + ", edge factor 8", g,
            dir + "/io_bench_rmat.tsv", threadCounts));
    }
    {
        Random::setSeed(4002);
        const Graph g = BarabasiAlbertGenerator(baNodes, 8).generate();
        reports.push_back(measureInstance(
            "ba_" + std::to_string(baNodes),
            "Barabasi-Albert n=" + std::to_string(baNodes) + ", m=8", g,
            dir + "/io_bench_ba.tsv", threadCounts));
    }

    std::cout << "\n";
    for (const auto& rep : reports) {
        std::cout << rep.name << "  (n=" << rep.nodes << ", m=" << rep.edges
                  << ", " << rep.fileBytes / (1024 * 1024) << " MiB)\n";
        std::cout << "  legacy    " << formatDuration(rep.legacy.minimum)
                  << "\n";
        for (const auto& [t, m] : rep.pipeline) {
            std::cout << "  pipeline@" << t << "  "
                      << formatDuration(m.minimum) << "\n";
        }
        const int wideT = threadCounts.back();
        std::cout << "  speedup legacy/pipeline@" << wideT << ": "
                  << rep.legacy.minimum / rep.pipelineAt(wideT).minimum
                  << "x   scaling pipeline@1/@" << wideT << ": "
                  << rep.pipelineAt(1).minimum / rep.pipelineAt(wideT).minimum
                  << "x\n";
    }

    writeJson(reports, threadCounts);
    return 0;
}
