// Figure 9 — "one more massive network": modularity and running time for
// all five of our parallel algorithms on the largest instance this machine
// can hold (the paper runs uk-2007-05 with 3.3G edges on a 256 GB server;
// the replica is the largest R-MAT web graph that builds here — the
// substitution is documented in DESIGN.md). Also reports the paper's
// headline metric, processed edges per second.
//
// Expected shape: PLP fastest by far at a modest modularity loss (paper:
// ~0.02); EPP slightly faster than PLM at slightly lower quality; PLMR
// slightly slower than PLM at equal-or-better quality.

#include <cstdio>

#include "baselines/registry.hpp"
#include "bench_common.hpp"
#include "generators/lfr.hpp"
#include "support/random.hpp"

using namespace grapr;
using namespace grapr::bench;

int main() {
    printPlatformBanner("Figure 9: the most massive instance that fits");

    // ~1M nodes / ~8M edges of web-graph-shaped LFR (skewed degrees,
    // strong communities — uk-2007-05's signature): the largest instance
    // that generates and sweeps in reasonable time on this container.
    const count n = quickMode() ? 50000 : 1000000;
    Graph g = loadCached("massive_mu15_n" + std::to_string(n), 9, [&] {
        LfrParameters params;
        params.n = n;
        params.minDegree = 6;
        params.maxDegree = 1000;
        params.degreeExponent = 2.1;
        params.minCommunitySize = 50;
        params.maxCommunitySize = 5000;
        params.communityExponent = 1.3;
        params.mu = 0.15;
        return LfrGenerator(params).generate();
    });
    std::printf("# instance: web-shaped LFR  n=%llu  m=%llu\n",
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()));

    std::printf("%-18s %12s %12s %14s %12s\n", "algorithm", "modularity",
                "time[s]", "edges/s", "#communities");
    for (const char* name : {"PLP", "PLM", "PLMR", "EPP(4,PLP,PLM)",
                             "EPP(4,PLP,PLMR)"}) {
        Random::setSeed(90);
        auto detector = makeDetector(name);
        const RunResult r = measureDetector(*detector, g, 1);
        std::printf("%-18s %12.4f %12.2f %14.0f %12llu\n", name,
                    r.modularity, r.seconds,
                    static_cast<double>(g.numberOfEdges()) / r.seconds,
                    static_cast<unsigned long long>(r.communities));
        std::fflush(stdout);
    }
    return 0;
}
