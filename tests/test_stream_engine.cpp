// Property and concurrency tests for the streaming update engine
// (graph/stream_engine, graph/graph_log, structures/delta_csr) and the
// incremental detectors built on it (community/streaming_update).
//
// The load-bearing properties, in the order they appear:
//   - batches are programs: replay semantics, Strict/Permissive modes,
//     net-effect reduction (cancelled ops publish nothing);
//   - apply/undo is a bit-identical round trip on the CSR arrays;
//   - one big batch == many small batches (replay composes);
//   - the engine agrees bit for bit with an independent map-based oracle
//     under randomized churn, at every thread count;
//   - a weighted engine rejects a NaN, infinite or negative insert weight;
//   - pinned snapshots are immutable under concurrent publishes (the
//     snapshot-isolation contract, checked from racing reader threads);
//   - incremental PLM re-detection stays inside the quality envelope of
//     from-scratch detection while re-activating only a local region;
//   - the incremental detector merges, splits, absorbs nodes past the
//     bound, cold re-initializes correctly and takes its split-off move.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <omp.h>

#include "community/plm.hpp"
#include "community/streaming_update.hpp"
#include "generators/planted_partition.hpp"
#include "generators/rmat.hpp"
#include "generators/simple_graphs.hpp"
#include "graph/graph_log.hpp"
#include "graph/stream_engine.hpp"
#include "quality/modularity.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"
#include "support/single_thread_scope.hpp"
#include "support/stream_workload.hpp"

using namespace grapr;
using grapr::testing::SingleThreadScope;
using grapr::testing::StreamWorkload;
using grapr::testing::StreamWorkloadConfig;

namespace {

// Bit-identity on the frozen representation: offsets, neighbor targets,
// weights. This is deliberately stricter than graph isomorphism — the
// engine promises deterministic, sorted-row CSR output.
void expectCsrIdentical(const CsrGraph& a, const CsrGraph& b) {
    ASSERT_EQ(a.isWeighted(), b.isWeighted());
    EXPECT_EQ(a.offsets(), b.offsets());
    EXPECT_EQ(a.neighborArray(), b.neighborArray());
    if (a.isWeighted()) {
        EXPECT_EQ(a.weightArray(), b.weightArray());
    }
}

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t bytes,
                    std::uint64_t h = 1469598103934665603ULL) {
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= data[i];
        h *= 1099511628211ULL;
    }
    return h;
}

// Checksum of the full CSR state; used by the concurrent-reader harness
// where gtest's vector printers would be too slow under contention.
std::uint64_t csrChecksum(const CsrGraph& g) {
    const auto& off = g.offsets();
    const auto& nbr = g.neighborArray();
    const auto& wts = g.weightArray();
    std::uint64_t h = fnv1a(
        reinterpret_cast<const std::uint8_t*>(off.data()),
        off.size() * sizeof(grapr::index));
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(nbr.data()),
              nbr.size() * sizeof(node), h);
    h = fnv1a(reinterpret_cast<const std::uint8_t*>(wts.data()),
              wts.size() * sizeof(edgeweight), h);
    return h;
}

// Independent oracle for the engine's batch semantics: a sorted edge map
// replayed sequentially with the documented Permissive rules. Shares no
// code with the delta-CSR path — agreement is meaningful.
class OracleGraph {
public:
    OracleGraph(const Graph& g, bool weighted)
        : weighted_(weighted), bound_(g.upperNodeIdBound()) {
        g.forEdges([&](node u, node v, edgeweight w) {
            edges_[canonical(u, v)] = weighted_ ? w : 1.0;
        });
    }

    void applyPermissive(const EdgeBatch& batch) {
        const auto before = edges_;
        for (const EdgeOp& op : batch.ops()) {
            const auto key = canonical(op.u, op.v);
            if (op.kind == EdgeOp::Kind::Insert) {
                if (edges_.find(key) == edges_.end()) {
                    edges_[key] = weighted_ ? op.w : 1.0;
                }
            } else {
                edges_.erase(key);
            }
        }
        // The engine grows the bound only for *net*-changed edges (a
        // cancelled insert of a new node publishes nothing); mirror that.
        for (const auto& [key, w] : edges_) {
            const auto it = before.find(key);
            if (it == before.end() || it->second != w) {
                bound_ = std::max(bound_, maxEndpoint(key) + 1);
            }
        }
        for (const auto& [key, w] : before) {
            if (edges_.find(key) == edges_.end()) {
                bound_ = std::max(bound_, maxEndpoint(key) + 1);
            }
        }
    }

    CsrGraph freeze() const {
        Graph g(bound_, weighted_);
        for (const auto& [key, w] : edges_) {
            g.addEdge(static_cast<node>(key >> 32),
                      static_cast<node>(key & 0xffffffffULL), w);
        }
        g.sortNeighborLists();
        return CsrGraph(g);
    }

private:
    static std::uint64_t canonical(node u, node v) {
        const node a = std::min(u, v);
        const node b = std::max(u, v);
        return (static_cast<std::uint64_t>(a) << 32) | b;
    }
    static count maxEndpoint(std::uint64_t key) {
        return static_cast<count>(key & 0xffffffffULL);
    }

    bool weighted_;
    count bound_;
    std::map<std::uint64_t, edgeweight> edges_;
};

Graph seedGraph(count n = 64, bool weighted = false) {
    Random::setSeed(700);
    Graph g(n, weighted);
    SplitMix64 rng = Random::forStream(700);
    for (count e = 0; e < 3 * n; ++e) {
        const auto u = static_cast<node>(Random::integer(rng, n));
        const auto v = static_cast<node>(Random::integer(rng, n));
        const auto w = static_cast<edgeweight>(1 + Random::integer(rng, 4));
        if (!g.hasEdge(u, v)) g.addEdge(u, v, weighted ? w : 1.0);
    }
    return g;
}

} // namespace

// --- freezing and lookups --------------------------------------------------

TEST(StreamEngine, FreezeFromGraphMatchesDirectFreeze) {
    Graph g = seedGraph(64, true);
    StreamingGraph engine(g);
    EXPECT_EQ(engine.generation(), 0u);
    EXPECT_TRUE(engine.isWeighted());

    Graph sorted = g;
    sorted.sortNeighborLists();
    const CsrGraph direct(sorted);
    expectCsrIdentical(engine.pin()->graph, direct);
}

TEST(StreamEngine, InitialSnapshotCollapsesRepeatedEdge) {
    // An edge list with a repeated line gives the Graph two instances of
    // {0,1}; the snapshot keeps one, with the first instance's weight.
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        grapr::testing::ThreadCountScope scope(threads);
        Graph g(4, true);
        g.addEdge(0, 1, 2.5);
        g.addEdge(1, 2, 1.0);
        g.addEdge(1, 0, 7.0);
        g.addEdge(3, 3, 4.0);
        StreamingGraph engine(g);
        const auto initial = engine.pin();
        const CsrGraph& snap = initial->graph;
        EXPECT_EQ(snap.degree(0), 1u);
        EXPECT_EQ(snap.degree(1), 2u);
        EXPECT_EQ(snap.numberOfEdges(), 3u);
        EXPECT_EQ(snap.totalEdgeWeight(), 7.5);
        EXPECT_EQ(csrEdgeWeight(snap, 0, 1), std::optional<edgeweight>(2.5));
        EXPECT_EQ(csrEdgeWeight(snap, 1, 0), std::optional<edgeweight>(2.5));

        EdgeBatch remove;
        remove.remove(0, 1);
        engine.apply(remove);
        const auto removed = engine.pin();
        const CsrGraph& after = removed->graph;
        EXPECT_EQ(after.numberOfEdges(), 2u);
        EXPECT_FALSE(csrEdgeWeight(after, 0, 1).has_value());
        EXPECT_FALSE(csrEdgeWeight(after, 1, 0).has_value());
        EXPECT_THROW(engine.apply(remove), std::runtime_error);
        EXPECT_EQ(engine.generation(), 1u);
    }
}

TEST(StreamEngine, CsrEdgeWeightBinarySearch) {
    Graph g(6, true);
    g.addEdge(0, 1, 2.5);
    g.addEdge(0, 3, 1.0);
    g.addEdge(2, 2, 4.0); // self-loop
    g.sortNeighborLists();
    const CsrGraph frozen(g);

    EXPECT_EQ(csrEdgeWeight(frozen, 0, 1), std::optional<edgeweight>(2.5));
    EXPECT_EQ(csrEdgeWeight(frozen, 1, 0), std::optional<edgeweight>(2.5));
    EXPECT_EQ(csrEdgeWeight(frozen, 2, 2), std::optional<edgeweight>(4.0));
    EXPECT_FALSE(csrEdgeWeight(frozen, 1, 3).has_value());
    EXPECT_FALSE(csrEdgeWeight(frozen, 0, 99).has_value());
}

// --- batch semantics -------------------------------------------------------

TEST(StreamEngine, EmptyAndCancelledBatchesPublishNothing) {
    StreamingGraph engine(seedGraph());
    const SnapshotPtr before = engine.pin();
    const std::uint64_t checksum = csrChecksum(before->graph);

    const BatchResult empty = engine.apply(EdgeBatch{});
    EXPECT_EQ(empty.generation, 0u);
    EXPECT_TRUE(empty.touched.empty());

    // Insert-then-remove of a brand-new edge cancels out: legal in Strict
    // mode (the batch is a program), net effect zero, nothing published.
    EdgeBatch cancel;
    cancel.insert(60, 61);
    cancel.remove(61, 60);
    const BatchResult result = engine.apply(cancel);
    EXPECT_EQ(result.generation, 0u);
    EXPECT_EQ(result.inserted, 0u);
    EXPECT_EQ(result.removed, 0u);
    EXPECT_TRUE(result.touched.empty());

    EXPECT_EQ(engine.generation(), 0u);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
    // No publish happened: the head is still the very same snapshot.
    EXPECT_EQ(engine.pin(), before);
}

TEST(StreamEngine, StrictViolationsThrowAndLeaveStateUntouched) {
    Graph g(8, false);
    g.addEdge(0, 1);
    g.addEdge(2, 3);
    StreamingGraph engine(g);
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);

    EdgeBatch duplicate;
    duplicate.insert(4, 5);
    duplicate.insert(1, 0); // {0,1} exists — duplicate under any ordering
    EXPECT_THROW(engine.apply(duplicate), std::runtime_error);

    EdgeBatch missing;
    missing.remove(5, 6);
    EXPECT_THROW(engine.apply(missing), std::runtime_error);

    EdgeBatch sentinel;
    sentinel.insert(0, none);
    EXPECT_THROW(engine.apply(sentinel), std::runtime_error);

    // A throwing batch is all-or-nothing: generation and arrays untouched,
    // including the valid {4,5} insert that preceded the bad op.
    EXPECT_EQ(engine.generation(), 0u);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
}

TEST(StreamEngine, RejectsNonFiniteOrNegativeInsertWeight) {
    Graph g(8, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(2, 3, 1.5);
    StreamingGraph engine(g);
    const SnapshotPtr before = engine.pin();
    const std::uint64_t checksum = csrChecksum(before->graph);

    const double bad[] = {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(), -1.0};
    for (const StreamApplyMode mode :
         {StreamApplyMode::Strict, StreamApplyMode::Permissive}) {
        for (const double w : bad) {
            SCOPED_TRACE(w);
            EdgeBatch batch;
            batch.insert(4, 5, 3.0); // valid, and must not land either
            batch.insert(5, 6, w);
            EXPECT_THROW(engine.apply(batch, mode), std::runtime_error);
            // Permissive mode would ignore a duplicate insert, but not
            // its bad weight.
            EdgeBatch duplicate;
            duplicate.insert(0, 1, w);
            EXPECT_THROW(engine.apply(duplicate, mode), std::runtime_error);
        }
    }
    EXPECT_EQ(engine.pin(), before);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);

    // Zero is a weight like any other.
    EdgeBatch zero;
    zero.insert(4, 5, 0.0);
    EXPECT_EQ(engine.apply(zero).generation, 1u);
    EXPECT_EQ(csrEdgeWeight(engine.pin()->graph, 4, 5),
              std::optional<edgeweight>(0.0));

    // An unweighted engine ignores EdgeOp::w and stores 1.
    Graph plain(4, false);
    plain.addEdge(0, 1);
    StreamingGraph unweighted(plain);
    EdgeBatch nan;
    nan.insert(2, 3, std::numeric_limits<double>::quiet_NaN());
    EXPECT_EQ(unweighted.apply(nan).generation, 1u);
    EXPECT_EQ(csrEdgeWeight(unweighted.pin()->graph, 2, 3),
              std::optional<edgeweight>(1.0));
}

TEST(StreamEngine, PermissiveCountsIgnoredOps) {
    Graph g(8, false);
    g.addEdge(0, 1);
    StreamingGraph engine(g);

    EdgeBatch batch;
    batch.insert(0, 1); // duplicate
    batch.remove(4, 5); // missing
    batch.insert(2, 3); // effective
    const BatchResult result =
        engine.apply(batch, StreamApplyMode::Permissive);
    EXPECT_EQ(result.ignored, 2u);
    EXPECT_EQ(result.inserted, 1u);
    EXPECT_EQ(result.generation, 1u);
    EXPECT_EQ(result.touched, (std::vector<node>{2, 3}));
}

TEST(StreamEngine, SelfLoopAccounting) {
    Graph g(4, true);
    g.addEdge(0, 1, 1.0);
    StreamingGraph engine(g);
    const CsrGraph& base = engine.pin()->graph;
    const edgeweight baseVolume = base.volume(2);
    const edgeweight baseTotal = base.totalEdgeWeight();

    EdgeBatch batch;
    batch.insert(2, 2, 3.0);
    engine.apply(batch);
    const SnapshotPtr snap = engine.pin();
    const CsrGraph& next = snap->graph;
    EXPECT_EQ(next.numberOfSelfLoops(), 1u);
    EXPECT_EQ(next.degree(2), 1u); // stored once
    // Paper §III-B convention: a loop contributes 2w to its node's volume
    // and w to the total edge weight.
    EXPECT_DOUBLE_EQ(next.volume(2), baseVolume + 6.0);
    EXPECT_DOUBLE_EQ(next.totalEdgeWeight(), baseTotal + 3.0);
}

TEST(StreamEngine, ReweightViaRemoveInsertInOneBatch) {
    Graph g(4, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 1.0);
    StreamingGraph engine(g);
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);
    GraphLog log(engine);

    EdgeBatch batch;
    batch.remove(0, 1);
    batch.insert(0, 1, 7.0); // same edge, new weight: a reweight
    const BatchResult result = log.apply(batch);
    EXPECT_EQ(result.reweighted, 1u);
    EXPECT_EQ(result.inserted, 0u);
    EXPECT_EQ(result.removed, 0u);
    EXPECT_EQ(csrEdgeWeight(engine.pin()->graph, 0, 1),
              std::optional<edgeweight>(7.0));

    // The inverse (remove new, insert old at observed weight) must be
    // Strict-valid and restore the arrays bit for bit.
    log.undo();
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
    EXPECT_EQ(csrEdgeWeight(engine.pin()->graph, 0, 1),
              std::optional<edgeweight>(2.0));
}

TEST(StreamEngine, InsertPastBoundGrowsGraph) {
    Graph g(4, false);
    g.addEdge(0, 1);
    StreamingGraph engine(g);

    EdgeBatch batch;
    batch.insert(2, 9);
    const BatchResult result = engine.apply(batch);
    EXPECT_EQ(result.touched, (std::vector<node>{2, 9}));

    const SnapshotPtr snap = engine.pin();
    EXPECT_EQ(snap->graph.upperNodeIdBound(), 10u);
    EXPECT_EQ(snap->graph.degree(9), 1u);
    EXPECT_EQ(snap->graph.getIthNeighbor(9, 0), 2u);
    for (node v = 4; v < 9; ++v) {
        EXPECT_EQ(snap->graph.degree(v), 0u); // holes stay empty rows
    }
}

// --- apply/undo and batch composition --------------------------------------

TEST(StreamEngine, CommitUndoRoundTripIsBitIdentical) {
    StreamingGraph engine(seedGraph(200, true));
    GraphLog log(engine);
    const std::uint64_t checksum = csrChecksum(engine.pin()->graph);

    StreamWorkloadConfig cfg;
    cfg.nodes = 200;
    cfg.opsPerBatch = 128;
    cfg.maxWeight = 4;
    cfg.seed = 701;
    const StreamWorkload workload(cfg);

    constexpr std::uint64_t kBatches = 12;
    for (std::uint64_t i = 0; i < kBatches; ++i) {
        const SnapshotPtr snap = engine.pin();
        log.apply(workload.batch(i, snap->graph),
                  StreamApplyMode::Permissive);
    }
    EXPECT_EQ(log.committedBatches(), kBatches);
    EXPECT_GT(engine.generation(), 0u);

    while (log.committedBatches() > 0) log.undo();
    // Unwinding the whole stream restores the generation-0 arrays exactly.
    expectCsrIdentical(engine.pin()->graph,
                       StreamingGraph(seedGraph(200, true)).pin()->graph);
    EXPECT_EQ(csrChecksum(engine.pin()->graph), checksum);
}

TEST(StreamEngine, OneBigBatchEqualsManySmallBatches) {
    const Graph base = seedGraph(150, false);
    StreamingGraph incremental(base);

    StreamWorkloadConfig cfg;
    cfg.nodes = 150; // stay inside the bound: growth is generation-shaped
    cfg.opsPerBatch = 96;
    cfg.seed = 702;
    const StreamWorkload workload(cfg);

    // Run batch by batch, recording the exact ops each batch contained
    // (removal sampling depends on the evolving state, so record, don't
    // regenerate).
    EdgeBatch concatenated;
    for (std::uint64_t i = 0; i < 10; ++i) {
        const EdgeBatch batch =
            workload.batch(i, incremental.pin()->graph);
        for (const EdgeOp& op : batch.ops()) {
            if (op.kind == EdgeOp::Kind::Insert) {
                concatenated.insert(op.u, op.v, op.w);
            } else {
                concatenated.remove(op.u, op.v);
            }
        }
        incremental.apply(batch, StreamApplyMode::Permissive);
    }

    // Replay the same ops as ONE batch: replay composes, so the final
    // arrays must be bit-identical even though the intermediate
    // generations never existed.
    StreamingGraph oneShot(base);
    oneShot.apply(concatenated, StreamApplyMode::Permissive);
    expectCsrIdentical(oneShot.pin()->graph, incremental.pin()->graph);
}

TEST(StreamEngine, MatchesOracleUnderRandomizedChurn) {
    const Graph base = seedGraph(300, true);
    StreamingGraph engine(base);
    OracleGraph oracle(base, true);

    StreamWorkloadConfig cfg;
    cfg.nodes = 330; // a few ids past the bound: exercises growth
    cfg.opsPerBatch = 200;
    cfg.insertFraction = 0.55;
    cfg.skew = 0.7;
    cfg.maxWeight = 3;
    cfg.seed = 703;
    const StreamWorkload workload(cfg);

    for (std::uint64_t i = 0; i < 15; ++i) {
        const EdgeBatch batch = workload.batch(i, engine.pin()->graph);
        engine.apply(batch, StreamApplyMode::Permissive);
        oracle.applyPermissive(batch);
        // Every generation agrees with the oracle bit for bit — not just
        // the final state.
        expectCsrIdentical(engine.pin()->graph, oracle.freeze());
    }
}

TEST(StreamEngine, ThreadCountInvariance) {
    const Graph base = seedGraph(256, true);
    const int saved = Parallel::maxThreads();

    StreamWorkloadConfig cfg;
    cfg.nodes = 256;
    cfg.opsPerBatch = 160;
    cfg.maxWeight = 4;
    cfg.seed = 704;
    const StreamWorkload workload(cfg);

    auto runAt = [&](int threads) {
        Parallel::setThreads(threads);
        StreamingGraph engine(base);
        std::vector<EdgeBatch> batches;
        for (std::uint64_t i = 0; i < 8; ++i) {
            batches.push_back(workload.batch(i, engine.pin()->graph));
            engine.apply(batches.back(), StreamApplyMode::Permissive);
        }
        return std::pair<SnapshotPtr, std::vector<EdgeBatch>>(
            engine.pin(), std::move(batches));
    };

    const auto [single, singleBatches] = runAt(1);
    const auto [parallel, parallelBatches] = runAt(std::max(4, saved));
    Parallel::setThreads(saved);

    // The workload generator is counter-based: identical op streams at
    // any thread count...
    ASSERT_EQ(singleBatches.size(), parallelBatches.size());
    for (std::size_t i = 0; i < singleBatches.size(); ++i) {
        const auto& a = singleBatches[i].ops();
        const auto& b = parallelBatches[i].ops();
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t j = 0; j < a.size(); ++j) {
            EXPECT_EQ(a[j].kind, b[j].kind);
            EXPECT_EQ(a[j].u, b[j].u);
            EXPECT_EQ(a[j].v, b[j].v);
            EXPECT_EQ(a[j].w, b[j].w);
        }
    }
    // ...and the delta-CSR assembly is deterministic, so the final arrays
    // are bit-identical between 1 thread and many.
    expectCsrIdentical(single->graph, parallel->graph);
}

// --- snapshot isolation ----------------------------------------------------

TEST(StreamEngine, PinnedSnapshotImmutableAcrossPublishes) {
    StreamingGraph engine(seedGraph(128, false));
    const SnapshotPtr pinned = engine.pin();
    const std::uint64_t checksum = csrChecksum(pinned->graph);
    const count baseEdges = pinned->graph.numberOfEdges();

    StreamWorkloadConfig cfg;
    cfg.nodes = 128;
    cfg.seed = 705;
    const StreamWorkload workload(cfg);
    std::uint64_t published = 0;
    for (std::uint64_t i = 0; i < 6; ++i) {
        published = engine
                        .apply(workload.batch(i, engine.pin()->graph),
                               StreamApplyMode::Permissive)
                        .generation;
    }

    EXPECT_GT(published, 0u);
    EXPECT_EQ(pinned->generation, 0u);
    EXPECT_EQ(pinned->graph.numberOfEdges(), baseEdges);
    EXPECT_EQ(csrChecksum(pinned->graph), checksum);
    // A pin taken after the publishes reads the last published generation,
    // not the pinned one.
    const SnapshotPtr fresh = engine.pin();
    EXPECT_NE(fresh, pinned);
    EXPECT_EQ(fresh->generation, published);
}

TEST(StreamEngine, ConcurrentReadersSeeConsistentSnapshots) {
    // The randomized snapshot-isolation harness: one writer thread churns
    // through batches while reader threads pin generations and verify that
    // (a) a pinned snapshot is bit-stable (double checksum around a real
    // recompute), (b) observed generations are monotone per reader, and
    // (c) the final state equals a sequential oracle replay of the exact
    // batches the writer applied. gtest assertions are thread-safe on
    // Linux (GTEST_IS_THREADSAFE).
    const Graph base = seedGraph(256, true);
    StreamingGraph engine(base);

    StreamWorkloadConfig cfg;
    cfg.nodes = 280;
    cfg.opsPerBatch = 192;
    cfg.maxWeight = 4;
    cfg.skew = 0.5;
    cfg.seed = 706;
    const StreamWorkload workload(cfg);

    constexpr std::uint64_t kBatches = 40;
    std::atomic<bool> done{false};
    std::vector<EdgeBatch> applied(kBatches);

    std::thread writer([&] {
        for (std::uint64_t i = 0; i < kBatches; ++i) {
            const SnapshotPtr snap = engine.pin();
            applied[i] = workload.batch(i, snap->graph);
            engine.apply(applied[i], StreamApplyMode::Permissive);
        }
        done.store(true, std::memory_order_release);
    });

    std::vector<std::thread> readers;
    std::atomic<count> pinsChecked{0};
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&] {
            std::uint64_t lastGeneration = 0;
            while (!done.load(std::memory_order_acquire)) {
                const SnapshotPtr snap = engine.pin();
                EXPECT_GE(snap->generation, lastGeneration)
                    << "generation went backwards";
                lastGeneration = snap->generation;
                const std::uint64_t first = csrChecksum(snap->graph);
                // Real work between the checksums so a mutating writer
                // would have time to corrupt a non-isolated reader.
                edgeweight sink = 0.0;
                const count bound = snap->graph.upperNodeIdBound();
                for (node v = 0; v < bound; ++v) {
                    sink += snap->graph.volume(v);
                }
                EXPECT_GE(sink, 0.0);
                EXPECT_EQ(csrChecksum(snap->graph), first)
                    << "pinned snapshot changed under a concurrent writer";
                pinsChecked.fetch_add(1, std::memory_order_relaxed);
            }
        });
    }
    writer.join();
    for (std::thread& t : readers) t.join();
    EXPECT_GT(pinsChecked.load(), 0u);

    // Replay the recorded batches sequentially through the oracle.
    OracleGraph oracle(base, true);
    for (const EdgeBatch& batch : applied) oracle.applyPermissive(batch);
    expectCsrIdentical(engine.pin()->graph, oracle.freeze());
}

// --- incremental detection -------------------------------------------------

TEST(StreamingDetect, PlmSingleEdgeBatchStaysLocal) {
    Random::setSeed(710);
    PlantedPartitionGenerator gen(5000, 50, 0.3, 0.001);
    Graph g = gen.generate();
    StreamingGraph engine(g);

    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);
    const double qBefore = Modularity().getQuality(
        incremental.communities(), engine.pin()->graph);

    // Insert one missing intra-block edge (blocks are contiguous in the
    // planted layout, so scan node 0's block for an absent partner).
    node partner = none;
    for (node v = 1; v < 100; ++v) {
        if (!csrEdgeWeight(engine.pin()->graph, 0, v).has_value()) {
            partner = v;
            break;
        }
    }
    ASSERT_NE(partner, none);
    EdgeBatch batch;
    batch.insert(0, partner);
    const BatchResult result = engine.apply(batch);

    const SnapshotPtr snap = engine.pin();
    incremental.applyBatch(snap->graph, result.touched);
    EXPECT_GT(incremental.lastReactivated(), 0u);
    // The acceptance metric: a perturbation this small must re-activate a
    // vanishing fraction of the graph, not trigger global re-detection.
    EXPECT_LT(incremental.lastReactivated(),
              snap->graph.upperNodeIdBound() / 10);
    EXPECT_TRUE(incremental.communities().isComplete());
    const double qAfter =
        Modularity().getQuality(incremental.communities(), snap->graph);
    EXPECT_GT(qAfter, qBefore - 0.02);
}

TEST(StreamingDetect, PlmTracksFromScratchQualityUnderChurn) {
    Random::setSeed(711);
    PlantedPartitionGenerator gen(2000, 20, 0.25, 0.003);
    Graph g = gen.generate();
    StreamingGraph engine(g);

    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);

    StreamWorkloadConfig cfg;
    cfg.nodes = 2000;
    cfg.opsPerBatch = 200;
    cfg.seed = 712;
    const StreamWorkload workload(cfg);
    for (std::uint64_t i = 0; i < 5; ++i) {
        const EdgeBatch batch = workload.batch(i, engine.pin()->graph);
        const BatchResult result =
            engine.apply(batch, StreamApplyMode::Permissive);
        if (result.touched.empty()) continue;
        incremental.applyBatch(engine.pin()->graph, result.touched);
    }

    const SnapshotPtr final_ = engine.pin();
    Random::setSeed(713);
    const Partition fromScratch = Plm().run(final_->graph);
    const double qIncremental =
        Modularity().getQuality(incremental.communities(), final_->graph);
    const double qScratch =
        Modularity().getQuality(fromScratch, final_->graph);
    EXPECT_TRUE(incremental.communities().isComplete());
    EXPECT_GT(qIncremental, qScratch - 0.05);
}

TEST(StreamingDetect, PlmSeededSweepMovesOnRmatS13) {
    // On R-MAT s13 (~55k edges) one node's modularity gain is about
    // vol(u)/ω, around 1e-4, so an absolute ΔQ floor of that order froze
    // the warm partition: no batch moved a node, and the incremental
    // modularity drifted below a cold run. Seeded moves take any positive
    // gain, as static PLM does.
    const SingleThreadScope pinned;
    Random::setSeed(741);
    StreamingGraph engine(RmatGenerator(13, 8).generate());
    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);

    StreamWorkloadConfig cfg;
    cfg.nodes = engine.pin()->graph.upperNodeIdBound();
    cfg.opsPerBatch = 256;
    cfg.insertFraction = 0.5;
    cfg.skew = 0.6;
    cfg.seed = 742;
    const StreamWorkload workload(cfg);
    count moves = 0;
    for (std::uint64_t i = 0; i < 20; ++i) {
        const BatchResult result =
            engine.apply(workload.batch(i, engine.pin()->graph),
                         StreamApplyMode::Permissive);
        if (result.touched.empty()) continue;
        incremental.applyBatch(engine.pin()->graph, result.touched);
        moves += incremental.lastMoves();
    }

    const SnapshotPtr last = engine.pin();
    Random::setSeed(743);
    const Partition fromScratch = Plm().run(last->graph);
    const double qIncremental =
        Modularity().getQuality(incremental.communities(), last->graph);
    const double qScratch = Modularity().getQuality(fromScratch, last->graph);
    EXPECT_GT(moves, 0u);
    // Over twelve workload seeds the gap to the cold run measured at most
    // 2.2e-3 with any-positive-gain moves, and 2.3e-2 under a 2e-4 floor.
    EXPECT_GT(qIncremental, qScratch - 5e-3);
}

TEST(StreamingDetect, PlmSingleThreadedRunsAreIdentical) {
    // With one thread the whole incremental pipeline is deterministic:
    // same seed, same batches, same partition — element for element.
    const int saved = Parallel::maxThreads();
    Parallel::setThreads(1);

    auto run = [] {
        Random::setSeed(714);
        PlantedPartitionGenerator gen(800, 8, 0.25, 0.004);
        Graph g = gen.generate();
        StreamingGraph engine(g);
        StreamingPlm incremental;
        Random::setSeed(715);
        incremental.initialize(engine.pin()->graph);

        StreamWorkloadConfig cfg;
        cfg.nodes = 800;
        cfg.opsPerBatch = 120;
        cfg.seed = 716;
        const StreamWorkload workload(cfg);
        for (std::uint64_t i = 0; i < 4; ++i) {
            const BatchResult result =
                engine.apply(workload.batch(i, engine.pin()->graph),
                             StreamApplyMode::Permissive);
            if (result.touched.empty()) continue;
            incremental.applyBatch(engine.pin()->graph, result.touched);
        }
        return incremental.communities().vector();
    };

    const std::vector<node> first = run();
    const std::vector<node> second = run();
    Parallel::setThreads(saved);
    EXPECT_EQ(first, second);
}

// --- incremental detection: structural properties of both detectors --------

namespace {

// Runs `body` on a fresh StreamingPlm, single-threaded. On graphs of a few
// dozen nodes, the simultaneous moves of a parallel sweep can swap nodes
// back and forth until the sweep cap, so a structural outcome would depend
// on the interleaving (at four threads a Debug build fails several tests
// below).
template <typename Body>
void forEachDetector(Body&& body) {
    const SingleThreadScope pinned;
    body(StreamingPlm{});
}

// Publishes `batch` and re-detects on the generation it produced.
void applyAndRedetect(StreamingGraph& engine, StreamingPlm& detector,
                      const EdgeBatch& batch) {
    const BatchResult result = engine.apply(batch);
    detector.applyBatch(engine.pin()->graph, result.touched);
}

} // namespace

TEST(StreamingDetect, ColdInitializeFindsEveryClique) {
    forEachDetector([](auto detector) {
        Random::setSeed(730);
        const StreamingGraph engine(SimpleGraphs::cliqueChain(8, 8));
        detector.initialize(engine.pin()->graph);
        EXPECT_EQ(detector.communities().numberOfSubsets(), 8u);
    });
}

TEST(StreamingDetect, ApplyBatchRequiresInitialize) {
    forEachDetector([](auto detector) {
        const StreamingGraph engine(SimpleGraphs::clique(4));
        EXPECT_FALSE(detector.initialized());
        EXPECT_THROW(detector.applyBatch(engine.pin()->graph, {0, 1}),
                     std::runtime_error);
    });
}

TEST(StreamingDetect, InsertionBatchMergesCliques) {
    // Two 6-cliques on nodes 0-5 and 6-11 with no edge between them.
    Graph g(12, false);
    for (node u = 0; u < 6; ++u) {
        for (node v = u + 1; v < 6; ++v) {
            g.addEdge(u, v);
            g.addEdge(u + 6, v + 6);
        }
    }
    forEachDetector([&g](auto detector) {
        Random::setSeed(731);
        StreamingGraph engine(g);
        detector.initialize(engine.pin()->graph);
        ASSERT_NE(detector.communities()[0], detector.communities()[6]);

        // Join the cliques completely: the result is one 12-clique.
        EdgeBatch batch;
        for (node u = 0; u < 6; ++u) {
            for (node v = 6; v < 12; ++v) batch.insert(u, v);
        }
        applyAndRedetect(engine, detector, batch);
        for (node v = 1; v < 12; ++v) {
            EXPECT_EQ(detector.communities()[v], detector.communities()[0])
                << "node " << v;
        }
    });
}

TEST(StreamingDetect, BridgeDeletionSplitsChain) {
    forEachDetector([](auto detector) {
        Random::setSeed(732);
        StreamingGraph engine(SimpleGraphs::cliqueChain(2, 8)); // bridge 7-8
        detector.initialize(engine.pin()->graph);

        EdgeBatch batch;
        batch.remove(7, 8);
        applyAndRedetect(engine, detector, batch);
        const Partition& zeta = detector.communities();
        EXPECT_NE(zeta[0], zeta[8]);
        for (node v = 1; v < 8; ++v) {
            EXPECT_EQ(zeta[v], zeta[0]) << "node " << v;
            EXPECT_EQ(zeta[v + 8], zeta[8]) << "node " << v + 8;
        }
    });
}

TEST(StreamingDetect, BatchPastBoundAbsorbsNewNodes) {
    // Node 9 arrives with two edges into a 6-clique; ids 6-8 come into
    // existence with the grown bound but appear in no edge, so they are
    // never in `touched` and never re-detected.
    forEachDetector([](auto detector) {
        Random::setSeed(734);
        StreamingGraph engine(SimpleGraphs::clique(6));
        detector.initialize(engine.pin()->graph);

        EdgeBatch batch;
        batch.insert(9, 0);
        batch.insert(9, 1);
        applyAndRedetect(engine, detector, batch);
        const Partition& zeta = detector.communities();
        ASSERT_EQ(zeta.numberOfElements(), 10u);
        EXPECT_TRUE(zeta.isComplete());
        EXPECT_EQ(zeta[9], zeta[0]);
        for (node skipped = 6; skipped < 9; ++skipped) {
            for (node v = 0; v < 10; ++v) {
                if (v != skipped) {
                    EXPECT_NE(zeta[skipped], zeta[v])
                        << "skipped id " << skipped << " shares with " << v;
                }
            }
        }
    });
}

TEST(StreamingDetect, PlmReweightBatchMergesEndpoints) {
    const SingleThreadScope pinned;
    Graph g(4, true);
    g.addEdge(0, 1, 4.0);
    g.addEdge(2, 3, 4.0);
    g.addEdge(1, 2, 0.5);
    StreamingGraph engine(g);
    Random::setSeed(735);
    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);
    ASSERT_NE(incremental.communities()[1], incremental.communities()[2]);

    // Remove+insert in one batch is a reweight: 0.5 -> 20.5.
    EdgeBatch batch;
    batch.remove(1, 2);
    batch.insert(1, 2, 20.5);
    applyAndRedetect(engine, incremental, batch);
    EXPECT_EQ(incremental.communities()[1], incremental.communities()[2]);
}

TEST(StreamingDetect, PlmUntouchedRegionsKeepTheirGrouping) {
    const SingleThreadScope pinned;
    Random::setSeed(736);
    StreamingGraph engine(SimpleGraphs::cliqueChain(8, 8));
    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);

    // Strengthen the bridge between cliques 0 and 1; cliques 4-7 lie
    // outside the frontier. Compaction renames ids, so assert structure.
    EdgeBatch batch;
    batch.insert(0, 9);
    batch.insert(1, 10);
    applyAndRedetect(engine, incremental, batch);
    EXPECT_GT(incremental.lastReactivated(), 0u);
    EXPECT_LT(incremental.lastReactivated(), 64u);
    const Partition& zeta = incremental.communities();
    for (node c = 4; c < 8; ++c) {
        const node anchor = c * 8;
        for (node v = anchor + 1; v < anchor + 8; ++v) {
            EXPECT_EQ(zeta[v], zeta[anchor])
                << "far clique " << c << " split at node " << v;
        }
        if (c > 4) {
            EXPECT_NE(zeta[anchor], zeta[32])
                << "far cliques " << c << " and 4 merged";
        }
    }
}

TEST(StreamingDetect, PlmSplitOffIsolatesStrandedNode) {
    // Node 0 loses every edge into its clique but keeps a self-loop. No
    // neighbour community remains, so its only improving move is to its
    // reserved split-off community; without that move it would stay glued
    // to the clique that no longer holds it.
    const SingleThreadScope pinned;
    Graph g = SimpleGraphs::cliqueChain(2, 6); // bridge 5-6
    g.addEdge(0, 0);
    StreamingGraph engine(g);
    Random::setSeed(737);
    StreamingPlm incremental;
    incremental.initialize(engine.pin()->graph);
    ASSERT_EQ(incremental.communities()[0], incremental.communities()[1]);

    EdgeBatch batch;
    for (node v = 1; v < 6; ++v) batch.remove(0, v);
    applyAndRedetect(engine, incremental, batch);
    const Partition& zeta = incremental.communities();
    EXPECT_TRUE(zeta.isComplete());
    for (node v = 1; v < 12; ++v) {
        EXPECT_NE(zeta[v], zeta[0]) << "node " << v << " shares with 0";
    }
    for (node v = 2; v < 6; ++v) EXPECT_EQ(zeta[v], zeta[1]) << "node " << v;
}

TEST(StreamingDetect, ReinitializeEqualsFreshDetector) {
    // A second initialize() is a cold start on the new snapshot: nothing of
    // the warm state survives. On one thread equal seeds give equal runs.
    forEachDetector([](auto detector) {
        Random::setSeed(738);
        StreamingGraph engine(
            PlantedPartitionGenerator(600, 6, 0.25, 0.005).generate());
        detector.initialize(engine.pin()->graph);

        StreamWorkloadConfig cfg;
        cfg.nodes = 600;
        cfg.opsPerBatch = 90;
        cfg.seed = 739;
        const StreamWorkload workload(cfg);
        for (std::uint64_t i = 0; i < 3; ++i) {
            const BatchResult result =
                engine.apply(workload.batch(i, engine.pin()->graph),
                             StreamApplyMode::Permissive);
            if (result.touched.empty()) continue;
            detector.applyBatch(engine.pin()->graph, result.touched);
        }

        const SnapshotPtr snap = engine.pin();
        Random::setSeed(740);
        detector.initialize(snap->graph);
        decltype(detector) fresh;
        Random::setSeed(740);
        fresh.initialize(snap->graph);
        EXPECT_EQ(detector.communities().vector(), fresh.communities().vector());
    });
}

TEST(StreamingDetect, ChurnSweepStaysValid) {
    // Random toggles of node pairs on a planted graph, published in four
    // batches of 25 steps: the maintained solution stays complete and keeps
    // the planted structure.
    forEachDetector([](const auto& prototype) {
        for (const std::uint64_t seed : {71u, 72u, 73u}) {
            SCOPED_TRACE(seed);
            Random::setSeed(seed);
            Graph g = PlantedPartitionGenerator(400, 8, 0.25, 0.005).generate();
            StreamingGraph engine(g);
            auto detector = prototype;
            detector.initialize(engine.pin()->graph);

            EdgeBatch batch;
            for (int step = 0; step < 100; ++step) {
                const auto u = static_cast<node>(Random::integer(400));
                const auto v = static_cast<node>(Random::integer(400));
                if (u != v) {
                    if (g.hasEdge(u, v)) {
                        g.removeEdge(u, v);
                        batch.remove(u, v);
                    } else {
                        g.addEdge(u, v);
                        batch.insert(u, v);
                    }
                }
                if (step % 25 == 24) {
                    const BatchResult result = engine.apply(batch);
                    if (!result.touched.empty()) {
                        detector.applyBatch(engine.pin()->graph,
                                            result.touched);
                    }
                    batch = EdgeBatch{};
                }
            }

            const Partition& zeta = detector.communities();
            EXPECT_TRUE(zeta.isComplete());
            const double q = Modularity().getQuality(zeta, engine.pin()->graph);
            EXPECT_GT(q, 0.3);
            EXPECT_LE(q, 1.0);
        }
    });
}
