#pragma once
// Graph coarsening according to a partition (§III-B): the nodes of each
// community collapse into one coarse node; an edge between coarse nodes
// carries the summed weight of inter-community edges, a self-loop the
// summed weight of intra-community edges.
//
// One scheme, on the frozen layout: CsrGraph -> CsrGraph. Every coarse
// row is gathered from its members' fine rows and aggregated once, in
// parallel over coarse nodes (see run()). PLM, PLMR, EPP, the sequential
// Louvain baseline and the matching baselines all contract through it, so
// every multilevel algorithm gets the same coarse arrays at every thread
// count.

#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "structures/partition.hpp"

namespace grapr {

/// Result of coarsening a frozen graph: the coarse graph is built directly
/// in CSR form (no intermediate mutable Graph), so a multi-level algorithm
/// stays in the frozen layout across all levels.
struct CsrCoarseningResult {
    CsrGraph coarseGraph;
    /// π: fine node id -> coarse node id.
    std::vector<node> fineToCoarse;
};

class ParallelPartitionCoarsening {
public:
    /// `parallel` off coarsens on one thread; the result is the same.
    explicit ParallelPartitionCoarsening(bool parallel = true)
        : parallel_(parallel) {}

    /// Coarsen g according to zeta into a frozen (weighted) coarse graph
    /// in one pass over the fine rows. zeta need not be compacted:
    /// community ids are compacted into coarse node ids in ascending-id
    /// order. Fine nodes are bucketed by coarse id with a stable counting
    /// sort, so each bucket lists its members ascending. The coarse rows
    /// are cut into one contiguous run per thread, balanced by fine
    /// entries; a thread aggregates each row of its run once in a scratch
    /// accumulator (members ascending, each fine row in CSR order), orders
    /// the row's keys at once (a sort for a short row, a bitset scan for a
    /// long one) and appends keys and sums to its run. The runs are
    /// concatenated in row order. Every row's content depends on the
    /// partition alone, never on where the runs were cut, so the coarse
    /// graph is the same bit for bit at any thread count and with
    /// `parallel` off.
    CsrCoarseningResult run(const CsrGraph& g, const Partition& zeta) const;

private:
    bool parallel_;
};

} // namespace grapr
