#include "community/streaming_update.hpp"

#include <utility>

namespace grapr {

namespace {

/// Resolution of the seeded move phase, the same γ as the cold start's
/// default PlmConfig.
constexpr double kGamma = 1.0;
/// Cap on seeded move sweeps per batch.
constexpr count kMaxSweeps = 32;

/// Grow `zeta` to `bound` node slots, assigning every new node a fresh
/// unique community id, then compact the ids to [0, k). Returns k. After
/// it, community ids are dense, deterministic (ascending-old-id order), and
/// new nodes sit in their own singletons.
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

} // namespace

void StreamingPlm::initialize(const CsrGraph& g) {
    zeta_ = Plm().run(g); // compacted, upperBound = k
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

    // The kernel drops touched nodes without a row and sorts the rest.
    count evaluated = 0;
    lastMoves_ = Plm::movePhaseSeeded(g, zeta_, kGamma, kMaxSweeps, touched,
                                      splitBase, &evaluated);
    lastReactivated_ = evaluated;
    zeta_.compact(); // drop unused split-off ids, re-densify
}

} // namespace grapr
