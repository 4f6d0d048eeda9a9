#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include <omp.h>

#include "baselines/registry.hpp"
#include "generators/barabasi_albert.hpp"
#include "generators/grid.hpp"
#include "generators/lfr.hpp"
#include "generators/planted_partition.hpp"
#include "generators/rmat.hpp"
#include "io/binary_csr.hpp"
#include "quality/modularity.hpp"
#include "support/logging.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

namespace grapr::bench {

namespace {

std::uint64_t nameSeed(const std::string& name) {
    // djb2 over the name: replica generation is deterministic per name.
    std::uint64_t h = 5381;
    for (char c : name) h = h * 33 + static_cast<unsigned char>(c);
    return h;
}

Graph makeLfr(count n, count minDeg, count maxDeg, double tau1, count minCom,
              count maxCom, double tau2, double mu) {
    LfrParameters params;
    params.n = n;
    params.minDegree = minDeg;
    params.maxDegree = maxDeg;
    params.degreeExponent = tau1;
    params.minCommunitySize = minCom;
    params.maxCommunitySize = maxCom;
    params.communityExponent = tau2;
    params.mu = mu;
    return LfrGenerator(params).generate();
}

} // namespace

std::vector<ReplicaSpec> replicaSuite() {
    const double s = quickMode() ? 0.15 : 1.0; // size scale in quick mode
    auto scaled = [s](count n) {
        return std::max<count>(64, static_cast<count>(s * static_cast<double>(n)));
    };

    std::vector<ReplicaSpec> suite;
    // Ascending approximate size, mirroring the paper's chart order.
    suite.push_back({"power", "grid 70x70 + 10% diagonals",
                     [=] { return GridGenerator(scaled(70), 70, 0.10).generate(); }});
    suite.push_back({"PGPgiantcompo", "LFR n=11k deg 2..200 mu=0.15",
                     [=] {
                         return makeLfr(scaled(10680), 2, 200, 2.5, 10, 500,
                                        1.5, 0.15);
                     }});
    suite.push_back({"as-22july06", "BA n=23k attach 2",
                     [=] {
                         return BarabasiAlbertGenerator(scaled(22963), 2)
                             .generate();
                     }});
    suite.push_back({"G_n_pin_pout", "planted n=50k k=500 pin=.0505 pout=5e-5",
                     [=] {
                         return PlantedPartitionGenerator(scaled(50000), 500,
                                                          0.0505, 5e-5)
                             .generate();
                     }});
    suite.push_back({"caidaRouterLevel", "BA n=96k attach 3",
                     [=] {
                         return BarabasiAlbertGenerator(scaled(96000), 3)
                             .generate();
                     }});
    suite.push_back({"coAuthorsCiteseer", "LFR n=80k deg 4..60 mu=0.10",
                     [=] {
                         return makeLfr(scaled(80000), 4, 60, 2.5, 20, 300,
                                        1.5, 0.10);
                     }});
    suite.push_back({"as-Skitter", "LFR n=100k deg 3..800 mu=0.15",
                     [=] {
                         return makeLfr(scaled(100000), 3, 800, 2.1, 20, 2000,
                                        1.3, 0.15);
                     }});
    suite.push_back({"coPapersDBLP", "LFR n=60k deg 10..300 mu=0.10",
                     [=] {
                         return makeLfr(scaled(60000), 10, 300, 2.2, 30, 600,
                                        1.5, 0.10);
                     }});
    suite.push_back({"eu-2005", "LFR n=60k deg 5..500 mu=0.06",
                     [=] {
                         return makeLfr(scaled(60000), 5, 500, 2.1, 20, 2000,
                                        1.3, 0.06);
                     }});
    suite.push_back({"soc-LiveJournal", "LFR n=120k deg 5..100 mu=0.25",
                     [=] {
                         return makeLfr(scaled(120000), 5, 100, 2.2, 20, 1500,
                                        1.4, 0.25);
                     }});
    suite.push_back({"europe-osm", "grid 250x200 (street mesh)",
                     [=] {
                         return GridGenerator(scaled(250), 200, 0.0).generate();
                     }});
    suite.push_back({"kron_g500-logn16", "R-MAT scale 16 ef 16 g500 params",
                     [=] {
                         const count scale = quickMode() ? 13 : 16;
                         return RmatGenerator(scale, 16, 0.57, 0.19, 0.19,
                                              0.05)
                             .generate();
                     }});
    suite.push_back({"uk-2002", "LFR n=120k deg 3..400 mu=0.03",
                     [=] {
                         return makeLfr(scaled(120000), 3, 400, 2.2, 30, 3000,
                                        1.3, 0.03);
                     }});
    return suite;
}

std::string dataDirectory() {
    const char* env = std::getenv("GRAPR_DATA_DIR");
    std::string dir = env ? env : "data";
    std::filesystem::create_directories(dir);
    return dir;
}

Graph loadCached(const std::string& name, std::uint64_t seed,
                 const std::function<Graph()>& make) {
    const std::string cachePath = dataDirectory() + "/" + name + ".gcsr";
    if (std::filesystem::exists(cachePath)) {
        try {
            return io::readBinaryCsr(cachePath).graph.toGraph();
        } catch (const std::exception& e) {
            // A truncated or stale cache (killed run, format change) must
            // not wedge the whole benchmark suite: regenerate instead.
            logWarn("loadCached: corrupt cache ", cachePath, " (", e.what(),
                    "), regenerating");
            std::filesystem::remove(cachePath);
        }
    }
    Random::setSeed(seed);
    Graph g = make();
    io::writeBinaryCsr(CsrGraph(g), 0, cachePath);
    return g;
}

Graph loadReplica(const ReplicaSpec& spec) {
    return loadCached(spec.name + (quickMode() ? ".quick" : ""),
                      nameSeed(spec.name), spec.make);
}

RunResult measureDetector(CommunityDetector& detector, const Graph& g,
                          int repetitions) {
    RunResult result;
    const Modularity modularity;
    // Every detector runs on the frozen graph; the freeze is paid once,
    // outside the timed runs.
    const CsrGraph frozen(g);
    std::vector<double> times;
    double qualityTotal = 0.0;
    for (int r = 0; r < repetitions; ++r) {
        Timer timer;
        Partition zeta = detector.run(frozen);
        times.push_back(timer.elapsed());
        qualityTotal += modularity.getQuality(zeta, frozen);
        if (r + 1 == repetitions) result.communities = zeta.numberOfSubsets();
    }
    std::sort(times.begin(), times.end());
    result.seconds = times[times.size() / 2];
    result.modularity = qualityTotal / repetitions;
    return result;
}

RunResult measureDetectorCached(const std::string& algorithmName,
                                const std::string& instanceName,
                                const Graph& g, int repetitions) {
    const std::string cacheFile = dataDirectory() + "/results.tsv";
    const std::string key = algorithmName + "\t" + instanceName + "\t" +
                            std::to_string(repetitions) + "\t" +
                            (quickMode() ? "quick" : "full");

    // Linear scan of the cache file: entries number in the dozens.
    if (std::FILE* f = std::fopen(cacheFile.c_str(), "r")) {
        char line[512];
        while (std::fgets(line, sizeof line, f)) {
            std::string entry(line);
            if (entry.rfind(key + "\t", 0) != 0) continue;
            RunResult cached;
            unsigned long long communities = 0;
            if (std::sscanf(entry.c_str() + key.size() + 1, "%lf\t%lf\t%llu",
                            &cached.seconds, &cached.modularity,
                            &communities) == 3) {
                cached.communities = communities;
                std::fclose(f);
                return cached;
            }
        }
        std::fclose(f);
    }

    Random::setSeed(nameSeed(algorithmName + "@" + instanceName));
    auto detector = makeDetector(algorithmName);
    const RunResult result = measureDetector(*detector, g, repetitions);

    if (std::FILE* f = std::fopen(cacheFile.c_str(), "a")) {
        std::fprintf(f, "%s\t%.9f\t%.9f\t%llu\n", key.c_str(), result.seconds,
                     result.modularity,
                     static_cast<unsigned long long>(result.communities));
        std::fclose(f);
    }
    return result;
}

void printPlatformBanner(const std::string& benchName) {
    std::printf("# %s\n", benchName.c_str());
    std::printf("# platform: %d OpenMP threads (max), %s build, seed-stable "
                "replica suite\n",
                omp_get_max_threads(),
#ifdef NDEBUG
                "Release"
#else
                "Debug"
#endif
    );
    if (quickMode()) std::printf("# GRAPR_BENCH_QUICK=1: reduced sizes\n");
    std::printf("#\n");
}

count expensiveAlgorithmEdgeCap() {
    const char* env = std::getenv("GRAPR_BENCH_FULL");
    if (env && env[0] == '1') return std::numeric_limits<count>::max();
    return 400000;
}

bool quickMode() {
    const char* env = std::getenv("GRAPR_BENCH_QUICK");
    return env && env[0] == '1';
}

} // namespace grapr::bench
