// Social network analysis — the paper's motivating scenario: an analyst at
// a multicore workstation, interactively exploring the community structure
// of a social graph. This example walks the full workflow:
//
//  1. build a synthetic social network (preferential attachment — the
//     degree structure of real friendship/follower graphs),
//  2. profile it (the Table-I statistics),
//  3. compare the speed/quality menu of the paper's recommended
//     algorithms (PLP for speed, PLM/PLMR for quality, EPP in between),
//  4. drill into the communities of the best solution,
//  5. export a community graph for visualization (Figure-11 style).

#include <cstdio>

#include "grapr.hpp"

using namespace grapr;

int main() {
    Random::setSeed(7);

    std::printf("=== 1. build a social network ===\n");
    const count n = 50000;
    Graph g = BarabasiAlbertGenerator(n, 6).generate();
    std::printf("preferential-attachment graph: n=%llu m=%llu\n",
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()));

    std::printf("\n=== 2. structural profile ===\n");
    const GraphProfile profile = profileGraph(g);
    std::printf("max degree %llu (hub), %llu component(s), avg LCC %.3f\n",
                static_cast<unsigned long long>(profile.maxDegree),
                static_cast<unsigned long long>(profile.components),
                profile.averageLcc);

    std::printf("\n=== 3. the speed/quality menu ===\n");
    std::printf("%-18s %12s %12s %14s\n", "algorithm", "time", "modularity",
                "#communities");
    Partition best(g.upperNodeIdBound());
    double bestQuality = -1.0;
    for (const char* name : {"PLP", "EPP(4,PLP,PLM)", "PLM", "PLMR"}) {
        auto detector = makeDetector(name);
        Timer timer;
        Partition zeta = detector->run(g);
        const double seconds = timer.elapsed();
        const double quality = Modularity().getQuality(zeta, g);
        std::printf("%-18s %12s %12.4f %14llu\n", name,
                    formatDuration(seconds).c_str(), quality,
                    static_cast<unsigned long long>(zeta.numberOfSubsets()));
        if (quality > bestQuality) {
            bestQuality = quality;
            best = std::move(zeta);
        }
    }

    std::printf("\n=== 4. community drill-down (best solution) ===\n");
    best.compact();
    const CommunitySizeStats stats = communitySizeStats(best);
    std::printf("%llu communities; sizes min=%llu median=%.0f max=%llu\n",
                static_cast<unsigned long long>(stats.communities),
                static_cast<unsigned long long>(stats.smallest), stats.median,
                static_cast<unsigned long long>(stats.largest));
    const EdgeCut cut = communityEdgeCut(best, g);
    std::printf("intra-community weight %.0f vs inter %.0f (coverage %.1f%%)\n",
                cut.intraWeight, cut.interWeight,
                100.0 * cut.intraWeight /
                    (cut.intraWeight + cut.interWeight));

    std::printf("\n=== 5. export the community graph ===\n");
    const CsrCoarseningResult coarse =
        ParallelPartitionCoarsening().run(CsrGraph(g), best);
    io::writeCommunityGraphDot(coarse.coarseGraph, best.subsetSizes(),
                               "social_communities.dot");
    std::printf("community graph (%llu nodes) -> social_communities.dot\n",
                static_cast<unsigned long long>(
                    coarse.coarseGraph.numberOfNodes()));
    std::printf("render with: neato -Tsvg social_communities.dot -o out.svg\n");
    return 0;
}
