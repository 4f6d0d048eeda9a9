// Figure 10 — weak scaling of PLP (left) and PLM (right) on a series of
// Kronecker/R-MAT graphs where each graph doubles its predecessor's size
// and the thread count doubles alongside (paper: logn 16..22, threads
// 1..32, R-MAT params (0.57,0.19,0.19,0.05), edge factor 48; this replica
// uses a smaller base scale and edge factor 16 to fit the container —
// and the single physical core makes flat wall time unattainable; see the
// hardware substitution note in EXPERIMENTS.md).

#include <cstdio>

#include "bench_common.hpp"
#include "community/plm.hpp"
#include "community/plp.hpp"
#include "generators/rmat.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

using namespace grapr;
using namespace grapr::bench;

int main() {
    printPlatformBanner(
        "Figure 10: PLP/PLM weak scaling on the Kronecker series");
    const count baseScale = quickMode() ? 11 : 15;
    const count edgeFactor = 16;
    const int steps = 4; // scale 15..18 with threads 1..8

    std::printf("%-8s %8s %12s %14s %14s %14s %14s\n", "logn", "threads",
                "m", "t(PLP)[s]", "PLP edges/s", "t(PLM)[s]",
                "PLM edges/s");

    const int originalThreads = Parallel::maxThreads();
    int threads = 1;
    for (int step = 0; step < steps; ++step, threads *= 2) {
        const count scale = baseScale + static_cast<count>(step);
        const auto make = [&] {
            return RmatGenerator(scale, edgeFactor, 0.57, 0.19, 0.19, 0.05)
                .generate();
        };
        Graph g = loadCached("weak_s" + std::to_string(scale), 100 + scale,
                             make);

        Parallel::setThreads(threads);
        Random::setSeed(10);
        Plp plp;
        const RunResult plpResult = measureDetector(plp, g, 1);
        Random::setSeed(10);
        Plm plm;
        const RunResult plmResult = measureDetector(plm, g, 1);

        std::printf("%-8llu %8d %12llu %14.3f %14.0f %14.3f %14.0f\n",
                    static_cast<unsigned long long>(scale), threads,
                    static_cast<unsigned long long>(g.numberOfEdges()),
                    plpResult.seconds,
                    static_cast<double>(g.numberOfEdges()) /
                        plpResult.seconds,
                    plmResult.seconds,
                    static_cast<double>(g.numberOfEdges()) /
                        plmResult.seconds);
        std::fflush(stdout);
    }
    Parallel::setThreads(originalThreads);
    return 0;
}
