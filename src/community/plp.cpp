#include "community/plp.hpp"

#include "graph/graph_tools.hpp"
#include "support/parallel.hpp"
#include "support/race_check.hpp"
#include "support/random.hpp"

namespace grapr {

Partition Plp::run(const CsrGraph& g) {
    const count bound = g.upperNodeIdBound();
    Partition zeta(bound);
    zeta.allToSingletons();
    if (g.isEmpty()) return zeta;

    std::vector<node>& label = zeta.vector();
    std::vector<std::uint8_t> active(bound, 1);

    // Traversal order. The paper's default relies on implicit randomization
    // through parallelism; with few threads (or adversarial id layouts
    // where communities occupy contiguous id blocks) in-order traversal
    // lets the consolidated label of block i flood block i+1 within one
    // sweep. A single upfront shuffle — O(n), amortized over all
    // iterations — restores the needed decorrelation without the
    // per-iteration reshuffle cost the paper measured and rejected;
    // `explicitRandomization` additionally reshuffles every iteration (the
    // ablation variant).
    std::vector<node> order = GraphTools::randomNodeOrder(g);

    const double theta =
        config_.thetaFraction * static_cast<double>(g.numberOfNodes());

    ScratchPool scratch(bound);

    // Weighted dominant-label selection for one node: the label maximizing
    // the incident weight, ties broken uniformly at random by reservoir
    // choice ("breaking ties arbitrarily" in Algorithm 1 — deterministic
    // tie-breaking toward small ids would flood one label through the whole
    // graph on regular structures).
    auto dominantLabel = [&](node v) -> node {
        SparseAccumulator& acc = scratch.local();
        acc.clear();
        g.forNeighborsOf(v, [&](node u, edgeweight w) {
            acc.add(label[u], w);
        });
        node best = label[v];
        double bestWeight = -1.0;
        count ties = 0;
        for (index l : acc.touched()) {
            const double weight = acc[l];
            const node candidate = static_cast<node>(l);
            if (weight > bestWeight) {
                best = candidate;
                bestWeight = weight;
                ties = 1;
            } else if (weight == bestWeight) {
                // Reservoir: the k-th tied label replaces the incumbent
                // with probability 1/k, giving a uniform choice.
                ++ties;
                if (Random::integer(ties) == 0) best = candidate;
            }
        }
        // Sticky current label: if v's own label is among the heaviest,
        // keep it — avoids label churn among equivalent choices, which
        // both speeds convergence and keeps the update counter meaningful.
        if (acc[label[v]] == bestWeight) return label[v];
        return best;
    };

    iterations_ = 0;
    count updated = g.numberOfNodes();
    while (static_cast<double>(updated) > theta &&
           iterations_ < config_.maxIterations) {
        count activeCount = 0;
        if (tracer_) {
            for (node v = 0; v < bound; ++v) activeCount += active[v];
        }

        count updatedThisRound = 0;

        auto processNode = [&](node v, count& localUpdated) {
            if (g.degree(v) == 0) return;
            if (config_.trackActiveNodes) {
                if (!active[v]) return;
                // grapr:benign-race(active): the deactivation below races
                // with neighbor re-arms (`active[u] = 1`); losing the race
                // only means one extra evaluation of a converged node next
                // round — the sweep loop re-checks convergence anyway.
                active[v] = 0;
                GRAPR_RACE_BENIGN_SITE("plp.active.clear");
            }
            const node best = dominantLabel(v);
            if (best != label[v]) {
                // grapr:benign-race(label): asynchronous updating — the new
                // label is published non-atomically, so neighbor scans in
                // this round may read the old or the new value (Algorithm
                // 1's contract). Each node is written by exactly one thread
                // per round; the shadow write below enforces that half.
                GRAPR_RACE_WRITE(zeta.raceShadow(), v);
                label[v] = best;
                GRAPR_RACE_BENIGN_SITE("plp.sweep.label");
                ++localUpdated;
                if (config_.trackActiveNodes) {
                    g.forNeighborsOf(v, [&](node u, edgeweight) {
                        // grapr:benign-race(active): re-arm flag; byte
                        // stores of the same value from several threads,
                        // and a lost deactivation race is self-healing
                        // (see above).
                        active[u] = 1;
                        GRAPR_RACE_BENIGN_SITE("plp.active.rearm");
                    });
                }
            }
        };

        if (config_.explicitRandomization && iterations_ > 0) {
            Random::shuffle(order.begin(), order.end());
        }
        GRAPR_RACE_PHASE("plp.round");
        const auto n = static_cast<std::int64_t>(order.size());
        if (config_.guidedSchedule) {
#pragma omp parallel for default(none) shared(processNode, order, n)         \
    schedule(guided) reduction(+ : updatedThisRound)
            for (std::int64_t i = 0; i < n; ++i) {
                processNode(order[static_cast<std::size_t>(i)],
                            updatedThisRound);
            }
        } else {
#pragma omp parallel for default(none) shared(processNode, order, n)         \
    schedule(static) reduction(+ : updatedThisRound)
            for (std::int64_t i = 0; i < n; ++i) {
                processNode(order[static_cast<std::size_t>(i)],
                            updatedThisRound);
            }
        }

        updated = updatedThisRound;
        ++iterations_;
        if (tracer_) tracer_->record(iterations_, activeCount, updated);
    }

    zeta.setUpperBound(static_cast<node>(bound));
    return zeta;
}

std::string Plp::toString() const {
    std::string name = "PLP";
    if (config_.thetaFraction == 0.0) name += "(theta=0)";
    if (config_.explicitRandomization) name += "+rand";
    if (!config_.guidedSchedule) name += "+static";
    if (!config_.trackActiveNodes) name += "+noactivity";
    return name;
}

} // namespace grapr
