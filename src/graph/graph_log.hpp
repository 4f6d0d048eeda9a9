#pragma once
// GraphLog — the batch-update front door of the streaming engine
// (DESIGN.md "Streaming updates and snapshot isolation").
//
// Mutations arrive as *batches* of edge insertions/deletions (EdgeBatch),
// not as single-edge calls: the dynamic-network strategies this engine
// implements (Staudt & Meyerhenke, arXiv:1304.4453) amortize the cost of
// re-freezing and re-detection over a whole batch, and the snapshot
// machinery publishes one new frozen generation per batch instead of one
// per edge. A batch is a *program*, replayed in order against the frozen
// base snapshot: `insert` of an edge a previous op in the same batch
// removed re-creates it (a reweight), duplicate inserts and deletes of
// missing edges are either hard errors (Strict) or ignored (Permissive).
//
// GraphLog couples a batch builder to a StreamingGraph and keeps the
// *inverse* of every committed batch, so update streams can be unwound
// batch by batch (the apply/undo round-trip property the test suite pins:
// commit ∘ undo is bit-identical on the CSR arrays).

#include <cstdint>
#include <vector>

#include "support/common.hpp"

namespace grapr {

class StreamingGraph;
struct BatchResult;

/// How StreamingGraph::apply treats ops that do not change the graph.
enum class StreamApplyMode {
    /// Duplicate insert (edge already present) and delete of a missing
    /// edge throw; the engine state is untouched on error.
    Strict,
    /// Such ops are counted in BatchResult::ignored and dropped.
    Permissive,
};

/// One edge mutation. Undirected: {u, v} and {v, u} name the same edge;
/// self-loops are legal and stored once (volume counts them twice, the
/// paper's §III-B convention).
struct EdgeOp {
    enum class Kind : std::uint8_t { Insert, Remove };
    Kind kind = Kind::Insert;
    node u = 0;
    node v = 0;
    /// Weight of an insert: finite and non-negative on a weighted engine,
    /// which rejects the batch otherwise (ignored by unweighted engines
    /// and by Remove; the inverse of a remove re-inserts the *observed*
    /// weight).
    edgeweight w = 1.0;
};

/// An ordered list of edge mutations, applied atomically by
/// StreamingGraph::apply — readers never observe a half-applied batch.
class EdgeBatch {
public:
    EdgeBatch() = default;

    void insert(node u, node v, edgeweight w = 1.0) {
        ops_.push_back({EdgeOp::Kind::Insert, u, v, w});
    }
    void remove(node u, node v) {
        ops_.push_back({EdgeOp::Kind::Remove, u, v, 1.0});
    }

    count size() const noexcept { return ops_.size(); }
    bool empty() const noexcept { return ops_.empty(); }
    void clear() { ops_.clear(); }

    const std::vector<EdgeOp>& ops() const noexcept { return ops_; }

private:
    std::vector<EdgeOp> ops_;
};

/// Batch builder + undo log bound to one StreamingGraph. Not thread-safe:
/// one GraphLog is one logical writer (the engine itself serializes
/// concurrent apply() calls from distinct writers).
class GraphLog {
public:
    explicit GraphLog(StreamingGraph& graph) : graph_(&graph) {}

    // --- building the pending batch -----------------------------------
    void insert(node u, node v, edgeweight w = 1.0) {
        pending_.insert(u, v, w);
    }
    void remove(node u, node v) { pending_.remove(u, v); }

    /// Seal the pending ops into a batch and apply it; the inverse batch
    /// is pushed onto the undo stack. Returns the engine's BatchResult.
    /// On an error the pending ops stay pending.
    BatchResult commit(StreamApplyMode mode = StreamApplyMode::Strict);

    /// Apply a pre-built batch (pending ops are untouched).
    BatchResult apply(const EdgeBatch& batch,
                      StreamApplyMode mode = StreamApplyMode::Strict);

    /// Unwind the most recently committed batch by applying its inverse.
    /// Throws if there is nothing to undo.
    BatchResult undo();

    count committedBatches() const noexcept { return undo_.size(); }

private:
    StreamingGraph* graph_;
    EdgeBatch pending_;
    std::vector<EdgeBatch> undo_; // inverse of every committed batch
};

} // namespace grapr
