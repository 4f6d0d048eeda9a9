#include "baselines/louvain_seq.hpp"

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "graph/graph_tools.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"

namespace grapr {

count LouvainSeq::movePhase(const CsrGraph& g, Partition& zeta) const {
    const count bound = g.upperNodeIdBound();
    const double omegaE = g.totalEdgeWeight();
    if (omegaE <= 0.0) return 0;

    const count communityBound = std::max<count>(zeta.upperBound(), bound);
    std::vector<double> communityVolume(communityBound, 0.0);
    std::vector<double> nodeVolume(bound, 0.0);
    g.forNodes([&](node u) {
        nodeVolume[u] = g.volume(u);
        communityVolume[zeta[u]] += nodeVolume[u];
    });

    SparseAccumulator acc(communityBound);

    count totalMoves = 0;
    for (count iteration = 0; iteration < maxMoveIterations_; ++iteration) {
        count moved = 0;
        // The reference implementation shuffles the visiting order every
        // pass; preserved here (it is what distinguishes this baseline's
        // tie-breaking from PLM's implicit randomization).
        const std::vector<node> order = GraphTools::randomNodeOrder(g);
        for (node u : order) {
            if (g.degree(u) == 0) continue;
            const node current = zeta[u];
            acc.clear();
            g.forNeighborsOf(u, [&](node v, edgeweight w) {
                if (v != u) acc.add(zeta[v], w);
            });
            const double volU = nodeVolume[u];
            const double weightToCurrent = acc[current];
            const double volCurrent = communityVolume[current] - volU;

            node bestCommunity = current;
            double bestDelta = 0.0;
            for (index c : acc.touched()) {
                const node candidate = static_cast<node>(c);
                if (candidate == current) continue;
                const double delta = deltaModularity(
                    omegaE, weightToCurrent, acc[c], volCurrent,
                    communityVolume[candidate], volU, gamma_);
                if (delta > bestDelta) {
                    bestDelta = delta;
                    bestCommunity = candidate;
                }
            }
            if (bestCommunity != current) {
                communityVolume[current] -= volU;
                communityVolume[bestCommunity] += volU;
                zeta.set(u, bestCommunity);
                ++moved;
            }
        }
        totalMoves += moved;
        if (moved == 0) break;
    }
    return totalMoves;
}

Partition LouvainSeq::runRecursive(const CsrGraph& g) const {
    Partition zeta(g.upperNodeIdBound());
    zeta.allToSingletons();
    const count moves = movePhase(g, zeta);
    if (moves == 0) return zeta;

    // Coarsening on one thread, as in the reference implementation.
    const CsrCoarseningResult coarse =
        ParallelPartitionCoarsening(false).run(g, zeta);
    if (coarse.coarseGraph.numberOfNodes() >= g.numberOfNodes()) return zeta;

    const Partition coarseSolution = runRecursive(coarse.coarseGraph);
    return ClusteringProjector::projectBack(coarseSolution,
                                            coarse.fineToCoarse);
}

Partition LouvainSeq::run(const CsrGraph& g) {
    Partition zeta = runRecursive(g);
    zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
    zeta.compact();
    return zeta;
}

} // namespace grapr
