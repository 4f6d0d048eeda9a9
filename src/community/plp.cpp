#include "community/plp.hpp"

#include <algorithm>
#include <atomic>

#include "community/vertex_following.hpp"
#include "graph/graph_tools.hpp"
#include "support/parallel.hpp"
#include "support/race_check.hpp"
#include "support/random.hpp"

namespace grapr {

Partition Plp::run(const Graph& g) {
    const CsrGraph frozen(g);
    return run(frozen);
}

Partition Plp::run(const CsrGraph& g) {
    if (config_.vertexFollowing) {
        const VertexFollowingReduction reduction = VertexFollowing::reduce(g);
        if (reduction.collapsed > 0) {
            const Partition reducedSolution = runImpl(reduction.reduced);
            Partition zeta =
                VertexFollowing::projectBack(reducedSolution, reduction);
            zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
            return zeta;
        }
    }
    return runImpl(g);
}

Partition Plp::runImpl(const CsrGraph& g) {
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

    // Frontier mode: `order` doubles as the worklist — after each
    // iteration it is rebuilt from the per-thread slices of nodes whose
    // neighborhood changed. `pending` deduplicates insertions (a relaxed
    // test-and-set; the winning thread appends to its slice).
    const bool frontier = config_.frontierSweep;
    std::vector<std::atomic<std::uint8_t>> pending(frontier ? bound : 0);
    ThreadLocalPool<std::vector<node>> frontierSlices;

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
           iterations_ < config_.maxIterations && !order.empty()) {
        count activeCount = 0;
        if (tracer_) {
            if (frontier) {
                activeCount = static_cast<count>(order.size());
            } else {
                for (node v = 0; v < bound; ++v) activeCount += active[v];
            }
        }

        count updatedThisRound = 0;

        auto processNode = [&](node v, count& localUpdated) {
            if (g.degree(v) == 0) return;
            if (!frontier && config_.trackActiveNodes) {
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
                if (frontier) {
                    std::vector<node>& slice = frontierSlices.local();
                    g.forNeighborsOf(v, [&](node u, edgeweight) {
                        if (u == v) return;
                        if (pending[u].load(std::memory_order_relaxed) == 0 &&
                            pending[u].exchange(
                                1, std::memory_order_relaxed) == 0) {
                            slice.push_back(u);
                        }
                    });
                } else if (config_.trackActiveNodes) {
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

        if (config_.explicitRandomization && iterations_ > 0 && !frontier) {
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

        if (frontier) {
            // Rebuild the worklist: concatenate the per-thread slices,
            // sort (a canonical order independent of thread interleaving),
            // drop the dedup flags, then reshuffle — the frontier replaces
            // the full sweep, so it needs the same traversal decorrelation
            // the upfront shuffle gave `order`.
            order.clear();
            for (std::size_t t = 0; t < frontierSlices.size(); ++t) {
                std::vector<node>& slice = frontierSlices.slot(t);
                order.insert(order.end(), slice.begin(), slice.end());
                slice.clear();
            }
            std::sort(order.begin(), order.end());
            for (const node v : order) {
                pending[v].store(0, std::memory_order_relaxed);
            }
            Random::shuffle(order.begin(), order.end());
        }
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
    if (config_.frontierSweep) name += "+frontier";
    if (config_.vertexFollowing) name += "+vf";
    return name;
}

} // namespace grapr
