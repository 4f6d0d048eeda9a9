// Ablation (§III-B implementation notes) — the PLM engineering choices:
//  * PLM with its coarsening on all threads and on one ("a major
//    sequential bottleneck" of early PLM versions), and the coarsening
//    phase alone at one and four threads,
//  * the resolution parameter gamma's effect on community count, the
//    paper's remedy for the resolution limit.
//
// The paper's cached-neighbor-map strategy (a std::map + lock per node,
// found slower and dropped) is represented by its replacement: the
// recompute-with-scratch strategy is the shipped one; this bench times the
// coarsening half of that engineering story.

#include <cstdio>

#include "bench_common.hpp"
#include "coarsening/parallel_coarsening.hpp"
#include "community/plm.hpp"
#include "graph/csr_graph.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/timer.hpp"

using namespace grapr;
using namespace grapr::bench;

int main() {
    printPlatformBanner("Ablation: PLM coarsening strategy and gamma");
    const int repetitions = quickMode() ? 1 : 3;

    const std::vector<std::string> subset = {"coPapersDBLP",
                                             "soc-LiveJournal", "uk-2002"};
    std::printf("--- coarsening strategy (full PLM run) ---\n");
    std::printf("%-22s %-12s %12s %12s\n", "network", "coarsening",
                "time[s]", "modularity");
    for (const auto& spec : replicaSuite()) {
        if (std::find(subset.begin(), subset.end(), spec.name) ==
            subset.end()) {
            continue;
        }
        const Graph g = loadReplica(spec);
        for (bool parallelCoarsening : {true, false}) {
            double totalSeconds = 0.0;
            double totalQuality = 0.0;
            for (int r = 0; r < repetitions; ++r) {
                Random::setSeed(60 + static_cast<std::uint64_t>(r));
                Plm plm(PlmConfig{.parallelCoarsening = parallelCoarsening});
                Timer timer;
                const Partition zeta = plm.run(g);
                totalSeconds += timer.elapsed();
                totalQuality += Modularity().getQuality(zeta, g);
            }
            std::printf("%-22s %-12s %12.4f %12.4f\n", spec.name.c_str(),
                        parallelCoarsening ? "parallel" : "sequential",
                        totalSeconds / repetitions,
                        totalQuality / repetitions);
            std::fflush(stdout);
        }
    }

    // The coarsening phase alone, on a PLM level-0 partition, at one and
    // four threads: the one coarsening every multilevel algorithm runs.
    std::printf("--- raw coarsening phase only (PLM level-0 partition) ---\n");
    std::printf("%-22s %-16s %8s %12s\n", "network", "path", "threads",
                "time[s]");
    const int threadsBefore = Parallel::maxThreads();
    for (const auto& spec : replicaSuite()) {
        if (std::find(subset.begin(), subset.end(), spec.name) ==
            subset.end()) {
            continue;
        }
        const CsrGraph frozen(loadReplica(spec));
        Random::setSeed(61);
        Partition zeta(frozen.upperNodeIdBound());
        zeta.allToSingletons();
        Plm::movePhase(frozen, zeta, 1.0, PlmConfig{}.maxMoveIterations,
                       nullptr);

        // Best of the repetitions.
        for (const int threads : {1, 4}) {
            Parallel::setThreads(threads);
            double best = 0.0;
            for (int r = 0; r < repetitions; ++r) {
                Timer timer;
                const CsrCoarseningResult result =
                    ParallelPartitionCoarsening(true).run(frozen, zeta);
                const double seconds = timer.elapsed();
                if (r == 0 || seconds < best) best = seconds;
            }
            std::printf("%-22s %-16s %8d %12.4f\n", spec.name.c_str(),
                        "csr", threads, best);
            std::fflush(stdout);
        }
        Parallel::setThreads(threadsBefore);
    }

    std::printf("--- neighbor-community weight strategy (full PLM run) ---\n");
    std::printf("%-22s %-12s %12s %12s\n", "network", "strategy", "time[s]",
                "modularity");
    for (const auto& spec : replicaSuite()) {
        if (std::find(subset.begin(), subset.end(), spec.name) ==
            subset.end()) {
            continue;
        }
        const Graph g = loadReplica(spec);
        for (PlmWeightStrategy strategy :
             {PlmWeightStrategy::Recompute, PlmWeightStrategy::CachedMaps}) {
            double totalSeconds = 0.0;
            double totalQuality = 0.0;
            for (int r = 0; r < repetitions; ++r) {
                Random::setSeed(63 + static_cast<std::uint64_t>(r));
                Plm plm(PlmConfig{.strategy = strategy});
                Timer timer;
                const Partition zeta = plm.run(g);
                totalSeconds += timer.elapsed();
                totalQuality += Modularity().getQuality(zeta, g);
            }
            std::printf("%-22s %-12s %12.4f %12.4f\n", spec.name.c_str(),
                        strategy == PlmWeightStrategy::Recompute
                            ? "recompute"
                            : "maps+locks",
                        totalSeconds / repetitions,
                        totalQuality / repetitions);
            std::fflush(stdout);
        }
    }

    std::printf("--- gamma resolution sweep (PLM on PGP replica) ---\n");
    std::printf("%-8s %14s %12s\n", "gamma", "#communities", "modularity");
    const auto suite = replicaSuite();
    for (const auto& spec : suite) {
        if (spec.name != "PGPgiantcompo") continue;
        const Graph g = loadReplica(spec);
        for (double gamma : {0.1, 0.5, 1.0, 2.0, 5.0}) {
            Random::setSeed(62);
            Plm plm(PlmConfig{.gamma = gamma});
            const Partition zeta = plm.run(g);
            std::printf("%-8.1f %14llu %12.4f\n", gamma,
                        static_cast<unsigned long long>(
                            zeta.numberOfSubsets()),
                        Modularity().getQuality(zeta, g));
            std::fflush(stdout);
        }
    }
    return 0;
}
