// Figure 11 — community graphs of the PGPgiantcompo replica for PLP, PLM,
// PLMR and EPP(4,PLP,PLM): the input coarsened by each solution, node size
// proportional to community size, written as Graphviz DOT files under the
// data directory. The printed table shows the resolution contrast the
// paper highlights: PLP detects on the order of a thousand small
// communities, the Louvain-family algorithms about a hundred larger ones.

#include <cstdio>

#include "baselines/registry.hpp"
#include "bench_common.hpp"
#include "coarsening/parallel_coarsening.hpp"
#include "io/dot_writer.hpp"
#include "quality/community_stats.hpp"
#include "quality/modularity.hpp"
#include "support/random.hpp"

using namespace grapr;
using namespace grapr::bench;

int main() {
    printPlatformBanner(
        "Figure 11: community graphs of the PGPgiantcompo replica");

    const auto suite = replicaSuite();
    const ReplicaSpec* spec = nullptr;
    for (const auto& candidate : suite) {
        if (candidate.name == "PGPgiantcompo") spec = &candidate;
    }
    const CsrGraph g(loadReplica(*spec));
    std::printf("# instance: %s  n=%llu  m=%llu\n", spec->name.c_str(),
                static_cast<unsigned long long>(g.numberOfNodes()),
                static_cast<unsigned long long>(g.numberOfEdges()));

    std::printf("%-18s %14s %12s %12s %12s %14s\n", "algorithm",
                "#communities", "median size", "max size", "modularity",
                "dot file");
    for (const char* name : {"PLP", "PLM", "PLMR", "EPP(4,PLP,PLM)"}) {
        Random::setSeed(11);
        auto detector = makeDetector(name);
        Partition zeta = detector->run(g);
        zeta.compact();

        const CsrCoarseningResult coarse =
            ParallelPartitionCoarsening().run(g, zeta);
        const CommunitySizeStats stats = communitySizeStats(zeta);
        const double q = Modularity().getQuality(zeta, g);

        std::string fileName = std::string(name);
        for (auto& c : fileName) {
            if (c == '(' || c == ')' || c == ',') c = '_';
        }
        const std::string dotPath =
            dataDirectory() + "/fig11_" + fileName + ".dot";
        io::writeCommunityGraphDot(coarse.coarseGraph, zeta.subsetSizes(),
                                   dotPath);

        std::printf("%-18s %14llu %12.0f %12llu %12.4f %14s\n", name,
                    static_cast<unsigned long long>(stats.communities),
                    stats.median,
                    static_cast<unsigned long long>(stats.largest), q,
                    dotPath.c_str());
        std::fflush(stdout);
    }
    return 0;
}
