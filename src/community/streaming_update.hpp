#pragma once
// Incremental community detection over the streaming engine
// (DESIGN.md "Streaming updates and snapshot isolation").
//
// StreamingPlm keeps a partition continuously up to date across
// StreamingGraph generations: initialize() runs static PLM once on a
// snapshot, and applyBatch() re-detects after each published batch by
// SEEDING from the previous partition and re-activating only the nodes the
// batch touched (BatchResult::touched), following the dynamic-update
// strategy of Staudt & Meyerhenke (arXiv:1304.4453). The sweeps then ride
// the active-set frontier of PLM's tuned kernel (Plm::movePhaseSeeded): a
// move re-activates only the mover's neighbors, so re-detection cost
// scales with the size of the perturbation, not with n — lastReactivated()
// reports the number of DISTINCT nodes re-activated, the locality metric
// BENCH_stream.json tracks. Seeded moves take any positive modularity
// gain, as the static sweep does; each batch costs two linear-time
// compactions.
//
// StreamingPlm is a single-writer object: applyBatch() must be called once
// per published generation, in order, by one thread (internally the
// sweeps are parallel). Readers of the partition must not overlap an
// applyBatch() call — snapshot the Partition (cheap copy) if needed.

#include <vector>

#include "community/plm.hpp"
#include "graph/csr_graph.hpp"
#include "structures/partition.hpp"
#include "support/common.hpp"

namespace grapr {

/// Incremental PLM: warm-starts every batch from the converged previous
/// partition. Each applyBatch compacts the community ids to [0, k),
/// reserves the empty split-off range [k, k + bound) (node u may leave for
/// community k + u when deletions strand it — see Plm::movePhaseSeeded),
/// rebuilds community volumes for the new generation, and runs the seeded
/// move phase (γ = 1, at most 32 sweeps) from the touched-node frontier.
class StreamingPlm {
public:
    /// Full static detection on `g`: default Plm::run.
    void initialize(const CsrGraph& g);

    /// Incremental re-detection on the post-batch snapshot `g`, seeded
    /// from the previous partition; `touched` is BatchResult::touched.
    /// Requires initialize() first and g's bound >= the previous bound.
    void applyBatch(const CsrGraph& g, const std::vector<node>& touched);

    bool initialized() const noexcept { return initialized_; }
    /// Current partition (compacted after every batch).
    const Partition& communities() const noexcept { return zeta_; }
    /// Distinct nodes re-activated by the last applyBatch (a node swept
    /// several times counts once) — the re-detection locality; compare
    /// against upperNodeIdBound().
    count lastReactivated() const noexcept { return lastReactivated_; }
    /// Moves performed by the last applyBatch.
    count lastMoves() const noexcept { return lastMoves_; }

private:
    Partition zeta_;
    count lastReactivated_ = 0;
    count lastMoves_ = 0;
    bool initialized_ = false;
};

} // namespace grapr
