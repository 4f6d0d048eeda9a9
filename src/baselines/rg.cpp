#include "baselines/rg.hpp"

#include <unordered_map>
#include <vector>

#include "support/random.hpp"

namespace grapr {

namespace {

/// Dynamic community graph for agglomeration: per-community hash adjacency
/// (community -> inter-community weight), community volumes, and a live
/// list with lazy deletion. Merges fold the smaller map into the larger
/// (weighted-union), giving near O(m log n) total merge cost.
struct CommunityGraph {
    std::vector<std::unordered_map<node, double>> weightTo;
    std::vector<double> volume;
    std::vector<node> alias;  // community -> surviving representative
    std::vector<node> live;   // candidates for random sampling
    double omegaE = 0.0;

    explicit CommunityGraph(const CsrGraph& g) {
        const count bound = g.upperNodeIdBound();
        weightTo.resize(bound);
        volume.assign(bound, 0.0);
        alias.resize(bound);
        omegaE = g.totalEdgeWeight();
        for (node v = 0; v < bound; ++v) alias[v] = v;
        g.forNodes([&](node v) {
            volume[v] = g.volume(v);
            live.push_back(v);
        });
        g.forEdges([&](node u, node v, edgeweight w) {
            if (u == v) return; // loops only affect volume
            weightTo[u][v] += w;
            weightTo[v][u] += w;
        });
    }

    node resolve(node c) {
        while (alias[c] != c) {
            alias[c] = alias[alias[c]];
            c = alias[c];
        }
        return c;
    }

    /// Modularity gain of merging live communities a and b.
    double mergeGain(node a, node b, double gamma) const {
        const auto it = weightTo[a].find(b);
        const double w = it == weightTo[a].end() ? 0.0 : it->second;
        return w / omegaE -
               gamma * (volume[a] * volume[b]) / (2.0 * omegaE * omegaE);
    }

    /// Merge b into a (caller ensures both live and distinct).
    void merge(node a, node b) {
        if (weightTo[a].size() < weightTo[b].size()) std::swap(a, b);
        // Fold b's adjacency into a's, retargeting neighbors.
        for (const auto& [c0, w] : weightTo[b]) {
            const node c = c0;
            if (c == a) continue;
            weightTo[a][c] += w;
            auto& back = weightTo[c];
            back.erase(b);
            back[a] += w;
        }
        weightTo[a].erase(b);
        volume[a] += volume[b];
        weightTo[b].clear();
        alias[b] = a;
    }
};

} // namespace

Partition RandomizedGreedy::run(const CsrGraph& g) {
    Partition zeta(g.upperNodeIdBound());
    zeta.allToSingletons();
    if (g.numberOfEdges() == 0) return zeta;

    CommunityGraph cg(g);

    // Merge while positive gains are found. A community sampled with no
    // positive-gain neighbor counts as a failure; after enough consecutive
    // failures relative to the live count, declare the partition merged
    // out (the greedy optimum has been reached with high probability, and
    // a final exhaustive sweep below removes any doubt).
    count consecutiveFailures = 0;
    while (!cg.live.empty()) {
        if (consecutiveFailures > 4 * cg.live.size() + 64) break;

        // Sample up to sampleSize_ live communities; keep the best merge.
        node bestFrom = none, bestTo = none;
        double bestGain = 0.0;
        for (count s = 0; s < sampleSize_; ++s) {
            const index pick = Random::integer(cg.live.size());
            node c = cg.live[pick];
            const node resolved = cg.resolve(c);
            if (resolved != c) {
                // Lazy deletion: drop stale entry, re-sample next round.
                cg.live[pick] = cg.live.back();
                cg.live.pop_back();
                if (cg.live.empty()) break;
                continue;
            }
            for (const auto& [d, w] : cg.weightTo[c]) {
                const double gain = cg.mergeGain(c, d, gamma_);
                if (gain > bestGain) {
                    bestGain = gain;
                    bestFrom = c;
                    bestTo = d;
                }
            }
        }

        if (bestFrom == none) {
            ++consecutiveFailures;
            continue;
        }
        consecutiveFailures = 0;
        cg.merge(bestTo, bestFrom);
    }

    // Exhaustive clean-up sweep: the sampling loop above is probabilistic;
    // finish deterministically so the result is a true greedy local
    // optimum. Iterate until no live community has a positive-gain merge.
    bool improved = true;
    while (improved) {
        improved = false;
        for (node c = 0; c < cg.alias.size(); ++c) {
            if (!g.hasNode(c) || cg.resolve(c) != c) continue;
            node bestTo = none;
            double bestGain = 0.0;
            for (const auto& [d, w] : cg.weightTo[c]) {
                const double gain = cg.mergeGain(c, d, gamma_);
                if (gain > bestGain) {
                    bestGain = gain;
                    bestTo = d;
                }
            }
            if (bestTo != none) {
                cg.merge(bestTo, c);
                improved = true;
            }
        }
    }

    g.forNodes([&](node v) { zeta.set(v, cg.resolve(v)); });
    zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
    zeta.compact();
    return zeta;
}

} // namespace grapr
