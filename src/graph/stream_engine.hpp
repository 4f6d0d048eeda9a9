#pragma once
// StreamingGraph — double-buffered snapshot engine over frozen CsrGraphs
// (DESIGN.md "Streaming updates and snapshot isolation").
//
// The engine holds one *published* immutable generation at a time. Readers
// pin() a generation: the shared_ptr keeps the whole snapshot alive for as
// long as they hold it, safe across arbitrarily many publishes. Writers
// submit EdgeBatches through apply()/GraphLog::commit(): the batch is
// normalized against the frozen base, assembled into generation N+1 by the
// parallel delta-CSR merge (structures/delta_csr.hpp) while readers keep
// serving generation N untouched, and then published by one pointer swap.
//
// Epoch lifecycle of a generation:
//
//   assembling ──publish──▶ current ──next publish──▶ retired ──▶ freed
//                              │                        │
//                           pin()                 pinned readers keep
//                        serves it                serving it; freed when
//                                                 the last pin drops
//
// Concurrency contract:
//   - any number of concurrent readers, via pin();
//   - concurrent writers are serialized on an internal writer mutex
//     (batches apply atomically, in some total order);
//   - readers never block writers and vice versa beyond the O(1)
//     head-pointer handoff (a mutex-guarded shared_ptr copy, chosen over
//     atomic<shared_ptr> for portability and TSan transparency).

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "graph/graph_log.hpp"
#include "support/common.hpp"

namespace grapr {

/// One immutable published generation. The CsrGraph is assembled from raw
/// arrays, so its view stamp is disengaged: a snapshot never goes stale,
/// and a pinned one is immortal while held.
struct StreamSnapshot {
    std::uint64_t generation = 0;
    CsrGraph graph;
};

using SnapshotPtr = std::shared_ptr<const StreamSnapshot>;

/// Outcome of one applied batch.
struct BatchResult {
    /// Generation the batch produced (== base generation for a batch with
    /// no net effect, which publishes nothing).
    std::uint64_t generation = 0;
    count inserted = 0;   ///< net edge insertions
    count removed = 0;    ///< net edge removals
    count reweighted = 0; ///< net weight changes (remove+insert in batch)
    count ignored = 0;    ///< no-effect ops dropped in Permissive mode
    /// Batch that exactly undoes this one (GraphLog keeps these).
    EdgeBatch inverse;
    /// Endpoints of every net-changed edge, sorted ascending, deduplicated
    /// — the seed frontier for incremental re-detection.
    std::vector<node> touched;
};

/// Tuning of a durable (WAL + checkpoint) engine. See DESIGN.md
/// "Durability, recovery, and fault injection".
struct DurabilityOptions {
    /// fsync cadence of the WAL: 1 syncs every commit (strict
    /// durability); N > 1 group-commits, syncing every Nth record — a
    /// crash may lose up to the last N-1 acknowledged batches, never
    /// consistency.
    count groupCommit = 1;
    /// Write a checkpoint and rotate the log after this many WAL
    /// records (bounds recovery replay time and log length).
    count checkpointInterval = 256;
};

class StreamingGraph {
public:
    /// Freeze `initial` as generation 0. The adjacency is copied and
    /// sorted per row (the engine keeps every generation's rows sorted so
    /// edge lookups are binary searches), and duplicate entries of a
    /// repeated edge collapse to the first instance added; holes in the
    /// node-id space are preserved as empty rows.
    explicit StreamingGraph(const Graph& initial);

    /// Start from an already-frozen snapshot whose rows must be sorted
    /// strictly ascending, without duplicate entries (e.g. from
    /// io::parallel ingestion of a duplicate-free edge list); throws
    /// otherwise.
    explicit StreamingGraph(CsrGraph initial);

    /// Recovery constructor: rebuild the engine from durable directory
    /// `dir` — load the newest checkpoint that validates, replay the
    /// matching WAL tail in Strict mode (truncating a torn trailing
    /// record at the first CRC/length mismatch; the records are folded
    /// into one net batch and one merge, with per-record results and
    /// errors identical to applying them one by one), then write a fresh
    /// checkpoint and stay durable in `dir`. Throws io::IoError when the
    /// directory holds no valid checkpoint.
    explicit StreamingGraph(const std::string& dir,
                            DurabilityOptions options = {});

    ~StreamingGraph();
    StreamingGraph(const StreamingGraph&) = delete;
    StreamingGraph& operator=(const StreamingGraph&) = delete;

    /// Make this engine durable in directory `dir` (created if absent):
    /// writes a checkpoint of the current generation, then opens a WAL
    /// segment that every subsequent apply() appends to — CRC-summed and
    /// fsync'd per DurabilityOptions — BEFORE the generation publishes.
    void enableDurability(const std::string& dir,
                          DurabilityOptions options = {});

    bool durable() const noexcept { return durable_ != nullptr; }

    /// Checkpoint the current generation and rotate the WAL now (also
    /// happens automatically every checkpointInterval records). Throws
    /// on I/O failure; the previous checkpoint + log stay intact.
    void checkpoint();

    /// True after a commit failed in a way that left the durable log
    /// state unknown (e.g. a rollback of a failed append itself failed,
    /// or a failure hit between the WAL fsync and the publish). A
    /// poisoned engine rejects every further apply(); recover from the
    /// durable directory (the recovery constructor) to resume from the
    /// last consistent state.
    bool failed() const noexcept { return poisoned_; }

    /// Why failed() is true (empty otherwise).
    const std::string& failureReason() const noexcept {
        return poisonReason_;
    }

    bool isWeighted() const noexcept { return weighted_; }

    /// Generation of the currently published snapshot.
    std::uint64_t generation() const;

    /// Pin the current generation: the returned snapshot stays valid and
    /// bit-identical for as long as the pointer is held, across any number
    /// of concurrent publishes. The reader-side primitive of snapshot
    /// isolation.
    SnapshotPtr pin() const;

    /// Apply one batch atomically: normalize against the current head,
    /// assemble generation N+1 in parallel, publish by pointer swap.
    /// Readers of generation N are never blocked and never observe a
    /// partial batch. Strict mode throws (and changes nothing) on
    /// duplicate inserts / deletes of missing edges; Permissive counts
    /// them in BatchResult::ignored. On a weighted engine an insert whose
    /// weight is NaN, infinite or negative throws in both modes (an
    /// unweighted engine ignores EdgeOp::w). Thread-safe against
    /// concurrent apply() calls (serialized) and against all readers.
    BatchResult apply(const EdgeBatch& batch,
                      StreamApplyMode mode = StreamApplyMode::Strict);

private:
    void publish(SnapshotPtr next);
    void poison(const std::string& reason);
    void appendToWal(const EdgeBatch& net, std::uint64_t generation);
    void checkpointNow();   // requires writerMutex_ held and durable()
    void maybeCheckpoint(); // interval-driven, failures contained

    struct Durability; // wal writer + dir + options (stream_engine.cpp)
    std::unique_ptr<Durability> durable_;
    bool poisoned_ = false;
    std::string poisonReason_;

    bool weighted_ = false;
    mutable std::mutex headMutex_; ///< guards head_ (reads and the swap)
    std::mutex writerMutex_;       ///< serializes apply()
    SnapshotPtr head_;
};

/// Binary-search lookup of edge {u, v} in a sorted-row CSR. Returns the
/// stored weight (1.0 for unweighted graphs), or nullopt if absent.
std::optional<edgeweight> csrEdgeWeight(const CsrGraph& g, node u, node v);

} // namespace grapr
