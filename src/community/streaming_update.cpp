#include "community/streaming_update.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>

#include <omp.h>

#include "support/parallel.hpp"
#include "support/race_check.hpp"

namespace grapr {

namespace {

/// Grow `zeta` to `bound` node slots, assigning every new node a fresh
/// unique community id, then compact the ids to [0, k). Returns k. The
/// shared prologue of both incremental detectors: after it, community ids
/// are dense, deterministic (ascending-old-id order), and new nodes sit in
/// their own singletons.
count growAndCompact(Partition& zeta, count bound) {
    const count oldSize = zeta.numberOfElements();
    require(bound >= oldSize,
            "streaming update: snapshot bound shrank below the partition");
    if (bound > oldSize) {
        Partition grown(bound);
        node next = zeta.upperBound();
        for (node v = 0; v < oldSize; ++v) grown.set(v, zeta[v]);
        for (count v = oldSize; v < bound; ++v) {
            grown.set(static_cast<node>(v), next++);
        }
        grown.setUpperBound(next);
        zeta = std::move(grown);
    }
    return zeta.compact();
}

/// Touched list filtered to nodes that exist in g with a non-empty row,
/// sorted ascending and deduplicated — the seed frontier.
std::vector<node> seedFrontier(const CsrGraph& g,
                               const std::vector<node>& touched) {
    const count bound = g.upperNodeIdBound();
    const std::vector<index>& offsets = g.offsets();
    std::vector<node> frontier;
    frontier.reserve(touched.size());
    for (const node v : touched) {
        if (v < bound && offsets[v] != offsets[v + 1]) frontier.push_back(v);
    }
    std::sort(frontier.begin(), frontier.end());
    frontier.erase(std::unique(frontier.begin(), frontier.end()),
                   frontier.end());
    return frontier;
}

/// Per-thread scratch of the seeded label sweep.
struct PlpScratch {
    explicit PlpScratch(index universe) : acc(universe) {}
    SparseAccumulator acc;
    std::vector<node> frontier;
};

} // namespace

// --- StreamingPlm --------------------------------------------------------

void StreamingPlm::initialize(const CsrGraph& g) {
    Plm detector(config_.cold);
    zeta_ = detector.run(g); // compacted, upperBound = k
    lastReactivated_ = 0;
    lastMoves_ = 0;
    initialized_ = true;
}

void StreamingPlm::applyBatch(const CsrGraph& g,
                              const std::vector<node>& touched) {
    require(initialized_,
            "StreamingPlm::applyBatch: call initialize() first");
    const count bound = g.upperNodeIdBound();
    const count k = growAndCompact(zeta_, bound);

    // Reserve the split-off range [k, k + bound): node u may leave its
    // community for the empty community k + u when the batch's deletions
    // make staying (and every neighbor community) a modularity loss.
    zeta_.setUpperBound(
        checkedNodeBound(k + bound, "StreamingPlm::applyBatch"));
    const auto splitBase = static_cast<node>(k); // k <= k + bound fits

    const std::vector<node> frontier = seedFrontier(g, touched);
    count evaluated = 0;
    lastMoves_ =
        Plm::movePhaseSeeded(g, zeta_, config_.gamma, config_.maxSweeps,
                             frontier, splitBase, &evaluated, config_.kernel);
    lastReactivated_ = evaluated;
    zeta_.compact(); // drop unused split-off ids, re-densify
}

// --- StreamingPlp --------------------------------------------------------

void StreamingPlp::initialize(const CsrGraph& g) {
    Plp detector(config_.cold);
    zeta_ = detector.run(g);
    // Labels are node-id based; make room so grown graphs can hand new
    // nodes their own id as a fresh label.
    zeta_.setUpperBound(checkedNodeBound(
        std::max<count>(zeta_.upperBound(), g.upperNodeIdBound()),
        "StreamingPlp::initialize"));
    lastReactivated_ = 0;
    lastSweeps_ = 0;
    initialized_ = true;
}

void StreamingPlp::applyBatch(const CsrGraph& g,
                              const std::vector<node>& touched) {
    require(initialized_,
            "StreamingPlp::applyBatch: call initialize() first");
    const count bound = g.upperNodeIdBound();
    const count k = growAndCompact(zeta_, bound);
    (void)k;

    const index universe =
        std::max<count>(zeta_.upperBound(), bound);
    const index* offsets = g.offsets().data();
    const node* neighbors = g.neighborArray().data();
    const edgeweight* weights =
        g.isWeighted() ? g.weightArray().data() : nullptr;

    std::vector<node> frontier = seedFrontier(g, touched);

    // Deduplication bitmap of the next frontier (same scheme as the PLM
    // active-set kernel: first flag-raiser appends).
    std::vector<std::atomic<std::uint8_t>> pending(bound);
    for (auto& p : pending) p.store(0, std::memory_order_relaxed);

    ThreadLocalPool<PlpScratch> scratch(universe);
    Partition& zeta = zeta_;

    count sweeps = 0;
    count evaluated = 0;
    // Distinct re-activated nodes, not evaluation work: a node revisited
    // by several frontier rounds is one node of re-detection locality (the
    // metric BENCH_stream.json tracks).
    std::vector<std::uint8_t> everEvaluated(bound, 0);
    while (sweeps < config_.maxSweeps && !frontier.empty()) {
        GRAPR_RACE_PHASE("stream.plpSeeded");
        for (const node u : frontier) {
            if (!everEvaluated[u]) {
                everEvaluated[u] = 1;
                ++evaluated;
            }
        }
        count movedThisRound = 0;
        const auto n = static_cast<std::int64_t>(frontier.size());
#pragma omp parallel default(none)                                          \
    shared(frontier, zeta, scratch, pending, offsets, neighbors, weights,   \
               n) reduction(+ : movedThisRound)
        {
            PlpScratch& sc = scratch.local();
#pragma omp for schedule(guided)
            for (std::int64_t i = 0; i < n; ++i) {
                const node u = frontier[static_cast<std::size_t>(i)];
                const index lo = offsets[u];
                const index hi = offsets[u + 1];
                SparseAccumulator& acc = sc.acc;
                acc.clear();
                // Asynchronous label reads: a neighbor's label may be from
                // this or the previous sweep (PLP's contract, §III-A); the
                // racy write side carries the benign-race annotation below.
                for (index e = lo; e < hi; ++e) {
                    const node v = neighbors[e];
                    if (v != u) acc.add(zeta[v], weights ? weights[e] : 1.0);
                }
                const node current = zeta[u];
                node bestLabel = current;
                double bestWeight = acc[current];
                for (const index c : acc.touched()) {
                    const auto candidate = static_cast<node>(c);
                    const double w = acc[c];
                    // Dominant label, smaller-id tie break; ">" keeps the
                    // current label sticky on equal weight, so converged
                    // regions are fixpoints.
                    if (w > bestWeight ||
                        (w == bestWeight && candidate < bestLabel)) {
                        bestWeight = w;
                        bestLabel = candidate;
                    }
                }
                // Sticky current label: if u's own label is among the
                // heaviest, keep it (matches Plp's rule) — a converged
                // region is a fixpoint, untouched nodes never churn.
                if (acc[current] == bestWeight) bestLabel = current;
                if (bestLabel != current) {
                    // grapr:benign-race(zeta): non-atomic label publish,
                    // stale reads tolerated (see above).
                    zeta.set(u, bestLabel);
                    GRAPR_RACE_BENIGN_SITE("stream.plpSeeded.zeta");
                    ++movedThisRound;
                    for (index e = lo; e < hi; ++e) {
                        const node v = neighbors[e];
                        if (v == u) continue;
                        if (pending[v].load(std::memory_order_relaxed) ==
                                0 &&
                            pending[v].exchange(
                                1, std::memory_order_relaxed) == 0) {
                            sc.frontier.push_back(v);
                        }
                    }
                }
            }
        }
        ++sweeps;
        if (movedThisRound == 0) break;
        frontier.clear();
        for (std::size_t t = 0; t < scratch.size(); ++t) {
            std::vector<node>& slice = scratch.slot(t).frontier;
            frontier.insert(frontier.end(), slice.begin(), slice.end());
            slice.clear();
        }
        std::sort(frontier.begin(), frontier.end());
        for (const node v : frontier) {
            pending[v].store(0, std::memory_order_relaxed);
        }
    }
    lastSweeps_ = sweeps;
    lastReactivated_ = evaluated;
}

} // namespace grapr
