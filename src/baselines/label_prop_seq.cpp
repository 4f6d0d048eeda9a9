#include "baselines/label_prop_seq.hpp"

#include "graph/graph_tools.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

namespace grapr {

Partition LabelPropSeq::run(const CsrGraph& g) {
    const count bound = g.upperNodeIdBound();
    Partition zeta(bound);
    zeta.allToSingletons();
    std::vector<node>& label = zeta.vector();

    SparseAccumulator acc(bound);
    std::vector<node> bestLabels; // tie pool for random tie breaking

    iterations_ = 0;
    bool stable = false;
    while (!stable && iterations_ < maxIterations_) {
        stable = true;
        const std::vector<node> order = GraphTools::randomNodeOrder(g);
        for (node v : order) {
            if (g.degree(v) == 0) continue;
            acc.clear();
            g.forNeighborsOf(v, [&](node u, edgeweight w) {
                acc.add(label[u], w);
            });
            double bestWeight = -1.0;
            bestLabels.clear();
            for (index l : acc.touched()) {
                const double weight = acc[l];
                if (weight > bestWeight) {
                    bestWeight = weight;
                    bestLabels.clear();
                    bestLabels.push_back(static_cast<node>(l));
                } else if (weight == bestWeight) {
                    bestLabels.push_back(static_cast<node>(l));
                }
            }
            // Termination criterion of [25]: stop once every node already
            // has a label of the relative majority; switching between
            // equally heavy labels does not count as instability.
            const bool hasMajorityLabel = acc[label[v]] == bestWeight;
            const node chosen =
                bestLabels[Random::integer(bestLabels.size())];
            if (!hasMajorityLabel) stable = false;
            label[v] = chosen;
        }
        ++iterations_;
    }
    zeta.setUpperBound(static_cast<node>(bound));
    return zeta;
}

} // namespace grapr
