#pragma once
// Graph coarsening according to a partition (§III-B): the nodes of each
// community collapse into one coarse node; an edge between coarse nodes
// carries the summed weight of inter-community edges, a self-loop the
// summed weight of intra-community edges.
//
// Two layouts, two schemes:
//  * CsrGraph -> CsrGraph, the path PLM and its relatives run: every
//    coarse row is gathered from its members' fine rows and aggregated
//    once, in parallel over coarse nodes (see run(const CsrGraph&)).
//  * Graph -> Graph (EPP's consensus graph, the sequential Louvain,
//    CluMatching), selectable for the ablation bench. Sequential: one
//    hash-aggregation sweep over the edges, the "major sequential
//    bottleneck" of early PLM versions. Parallel (the paper's scheme):
//    each thread aggregates a slice of the nodes into a thread-private
//    partial coarse graph; the partials are then merged in parallel.

#include <utility>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "structures/partition.hpp"

namespace grapr {

struct CoarseningResult {
    Graph coarseGraph{0, true};
    /// π: fine node id -> coarse node id.
    std::vector<node> fineToCoarse;
};

/// Result of coarsening a frozen graph: the coarse graph is built directly
/// in CSR form (no intermediate mutable Graph), so a multi-level algorithm
/// stays in the frozen layout across all levels and converts back only at
/// its API boundary.
struct CsrCoarseningResult {
    CsrGraph coarseGraph;
    /// π: fine node id -> coarse node id.
    std::vector<node> fineToCoarse;
};

class ParallelPartitionCoarsening {
public:
    explicit ParallelPartitionCoarsening(bool parallel = true)
        : parallel_(parallel) {}

    /// Coarsen g according to zeta. zeta need not be compacted; community
    /// ids are compacted into coarse node ids (ascending-id order, so the
    /// result is deterministic regardless of thread count).
    CoarseningResult run(const Graph& g, const Partition& zeta) const;

    /// CSR fast path: coarsen a frozen graph into a frozen (weighted)
    /// coarse graph in one pass over the fine rows. Fine nodes are bucketed
    /// by coarse id with a stable counting sort, so each bucket lists its
    /// members ascending. The coarse rows are cut into one contiguous run
    /// per thread, balanced by fine entries; a thread aggregates each row
    /// of its run once in a scratch accumulator (members ascending, each
    /// fine row in CSR order), orders the row's keys at once (a sort for a
    /// short row, a bitset scan for a long one) and appends keys and sums
    /// to its run. The runs are concatenated in row order. Every row's
    /// content depends on the partition alone, never on where the runs
    /// were cut, so the coarse graph is the same bit for bit at any thread
    /// count and with `parallel` off.
    CsrCoarseningResult run(const CsrGraph& g, const Partition& zeta) const;

private:
    bool parallel_;

    CoarseningResult runSequential(const Graph& g,
                                   const std::vector<node>& fineToCoarse,
                                   count coarseNodes) const;
    CoarseningResult runParallel(const Graph& g,
                                 const std::vector<node>& fineToCoarse,
                                 count coarseNodes) const;
};

} // namespace grapr
