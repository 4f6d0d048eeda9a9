#include "baselines/clu_matching.hpp"

#include <vector>

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "structures/union_find.hpp"
#include "support/random.hpp"

namespace grapr {

Partition MatchingAgglomeration::run(const CsrGraph& g) {
    // The hierarchy of contractions: maps[i] is the fine-to-coarse map of
    // round i. The final solution is the identity on the coarsest graph
    // projected back through the stack.
    std::vector<std::vector<node>> hierarchy;
    // The graph of the current round: g, then the latest coarse graph.
    const CsrGraph* level = &g;
    CsrGraph latest;

    for (count round = 0; round < maxRounds_; ++round) {
        const CsrGraph& current = *level;
        const count bound = current.upperNodeIdBound();
        const double omegaE = current.totalEdgeWeight();
        if (omegaE <= 0.0) break;

        std::vector<double> volume(bound, 0.0);
        current.parallelForNodes(
            [&](node v) { volume[v] = current.volume(v); });

        // Phase 1: every node points to the neighbor whose contraction
        // yields the highest positive modularity gain; ties are broken
        // uniformly at random (reservoir choice) — deterministic ties
        // starve the matching on regular structures like street meshes,
        // where every node would point at its smallest-id neighbor.
        std::vector<node> candidate(bound, none);
        current.balancedParallelForNodes([&](node u) {
            node best = none;
            double bestGain = 0.0;
            count ties = 0;
            current.forNeighborsOf(u, [&](node v, edgeweight w) {
                if (v == u) return;
                const double gain =
                    w / omegaE -
                    gamma_ * (volume[u] * volume[v]) /
                        (2.0 * omegaE * omegaE);
                if (gain <= 0.0) return;
                if (gain > bestGain) {
                    bestGain = gain;
                    best = v;
                    ties = 1;
                } else if (gain == bestGain) {
                    ++ties;
                    if (Random::integer(ties) == 0) best = v;
                }
            });
            candidate[u] = best;
        });

        // Phase 2: grouping via union-find (chains and candidate cycles
        // collapse safely). Mutual candidates form matched pairs (handshake
        // matching — the CEL behaviour). With star adaptation, satellites
        // whose chosen hub did not reciprocate are matched pairwise with
        // each other — the CLU_TBB remedy for star-like structures where
        // plain matchings leave almost every satellite unmatched.
        UnionFind groupSets(bound);
        std::vector<node> pendingSatellite(bound, none);
        count merges = 0;
        current.forNodes([&](node u) {
            const node v = candidate[u];
            if (v == none) return;
            if (candidate[v] == u) {
                if (u < v) {
                    groupSets.unite(u, v);
                    ++merges;
                }
            } else if (starAdaptation_) {
                if (pendingSatellite[v] == none) {
                    pendingSatellite[v] = u;
                } else {
                    groupSets.unite(u, pendingSatellite[v]);
                    pendingSatellite[v] = none;
                    ++merges;
                }
            }
        });

        // Stop when the matching starves: a round that merges less than
        // 0.1% of the nodes signals the long tail where further rounds buy
        // nothing but full-graph sweeps (mutual-only matching hits this
        // early on hub-heavy graphs — the CEL weakness the star adaptation
        // addresses).
        if (merges == 0 || merges * 1000 < current.numberOfNodes()) break;

        Partition groups(bound);
        groups.allToSingletons();
        current.forNodes([&](node u) { groups.set(u, groupSets.find(u)); });

        CsrCoarseningResult coarse =
            ParallelPartitionCoarsening().run(current, groups);
        if (coarse.coarseGraph.numberOfNodes() >= current.numberOfNodes()) {
            break;
        }
        hierarchy.push_back(std::move(coarse.fineToCoarse));
        latest = std::move(coarse.coarseGraph);
        level = &latest;
    }

    // Identity on the coarsest level, projected back to g.
    Partition coarsest(level->upperNodeIdBound());
    coarsest.allToSingletons();
    Partition zeta =
        ClusteringProjector::projectThroughHierarchy(coarsest, hierarchy);
    if (zeta.numberOfElements() < g.upperNodeIdBound()) {
        // No contraction ever happened; fall back to singletons on g.
        zeta = Partition(g.upperNodeIdBound());
        zeta.allToSingletons();
    }
    zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
    zeta.compact();
    return zeta;
}

} // namespace grapr
