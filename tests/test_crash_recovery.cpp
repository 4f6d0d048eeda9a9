// Crash-consistency harness for the durability subsystem (graph/wal,
// io/binary_csr, StreamingGraph's recovery constructor) driven by the
// deterministic fault-injection framework (support/fault).
//
// The core test enumerates every fault point the durable commit path
// actually executes — by running the canonical workload once with
// fault::captureSites() — and then, for each site and several hit
// counts, re-execs this binary (like test_race_check.cpp) with
// GRAPR_FAULT="<site>:<n>:kill" so the child dies mid-commit with no
// destructors, flushes, or atexit handlers. The parent recovers from the
// durable directory and asserts the recovered CSR arrays are
// bit-identical to a never-crashed oracle *at the recovered generation*.
//
// Why "at the recovered generation" and not "at a predicted generation":
// ::_exit() does not drop the OS page cache, so a record that was
// written but not yet fsync'd at kill time is usually still readable —
// recovery may land one generation past the last acknowledged sync.
// That is allowed (durability promises no *acknowledged* loss and no
// inconsistency, not amnesia of unacknowledged tails); what is never
// allowed is a recovered state that differs from some prefix of the
// oracle history.
//
// Everything here is a GTEST_SKIP no-op when the build compiles the
// framework out (-DGRAPR_FAULT_INJECTION=OFF), except the WAL/checkpoint
// round-trip tests, which need no injection.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "generators/planted_partition.hpp"
#include "graph/graph_log.hpp"
#include "graph/stream_engine.hpp"
#include "graph/wal.hpp"
#include "io/binary_csr.hpp"
#include "io/edgelist_io.hpp"
#include "io/io_error.hpp"
#include "io/metis_io.hpp"
#include "support/fault.hpp"
#include "support/random.hpp"
#include "support/stream_workload.hpp"

#if defined(__linux__)
#include <sys/wait.h>
#include <unistd.h>
#define GRAPR_CAN_REEXEC 1
#else
#define GRAPR_CAN_REEXEC 0
#endif

namespace {

using namespace grapr;
using grapr::testing::StreamWorkload;
using grapr::testing::StreamWorkloadConfig;
namespace fs = std::filesystem;

// Child exit codes for fixture runs (distinct from gtest's 0/1 and from
// fault::kKilledExitCode = 87).
constexpr int kFixtureSurvived = 0;
constexpr int kFixtureUnknown = 98;

// ---- the canonical crash workload ------------------------------------
// Parent oracle and killed children run EXACTLY this sequence; the
// workload draws per-op counter-based streams, so the histories agree
// bit for bit regardless of thread count or which process runs them.

constexpr count kNodes = 400;
constexpr std::uint64_t kBatches = 24;

Graph seedGraph() {
    Random::setSeed(8200);
    return PlantedPartitionGenerator(kNodes, 8, 0.2, 0.01).generate();
}

StreamWorkload crashWorkload() {
    StreamWorkloadConfig cfg;
    cfg.nodes = kNodes;
    cfg.opsPerBatch = 48;
    cfg.insertFraction = 0.55;
    cfg.seed = 8201;
    return StreamWorkload(cfg);
}

DurabilityOptions crashOptions() {
    DurabilityOptions options;
    options.groupCommit = 1;
    options.checkpointInterval = 7; // several rotations within 24 batches
    return options;
}

/// Frozen copy of one generation's arrays: the oracle representation.
struct CsrState {
    std::vector<grapr::index> offsets;
    std::vector<node> neighbors;
    std::vector<edgeweight> weights;
};

CsrState freezeState(const CsrGraph& g) {
    return {g.offsets(), g.neighborArray(), g.weightArray()};
}

void expectMatchesState(const CsrGraph& g, const CsrState& s) {
    EXPECT_EQ(g.offsets(), s.offsets);
    EXPECT_EQ(g.neighborArray(), s.neighbors);
    EXPECT_EQ(g.weightArray(), s.weights);
}

/// Apply the canonical batches; when `states` is given, record the CSR
/// arrays of every published generation (keyed by generation, so runs
/// where some batches cancel to a no-op stay aligned).
void churn(StreamingGraph& engine,
           std::map<std::uint64_t, CsrState>* states) {
    const StreamWorkload workload = crashWorkload();
    if (states) {
        (*states)[engine.generation()] =
            freezeState(engine.pin()->graph);
    }
    for (std::uint64_t i = 0; i < kBatches; ++i) {
        engine.apply(workload.batch(i, engine.pin()->graph),
                     StreamApplyMode::Permissive);
        if (states) {
            (*states)[engine.generation()] =
                freezeState(engine.pin()->graph);
        }
    }
}

/// Child mode: run the canonical workload durably in GRAPR_CRASH_DIR.
/// GRAPR_FAULT (set by the parent) kills us somewhere in the middle.
int runCrashFixture(const std::string& dir) {
    Graph g = seedGraph();
    StreamingGraph engine(g);
    engine.enableDurability(dir, crashOptions());
    churn(engine, nullptr);
    return kFixtureSurvived;
}

/// Child mode: recover GRAPR_RECOVER_DIR. GRAPR_FAULT (set by the parent)
/// kills us while the recovery rewrites its checkpoint.
int runRecoverFixture(const std::string& dir) {
    try {
        StreamingGraph recovered(dir, crashOptions());
    } catch (...) {
    }
    return kFixtureUnknown; // the kill must have fired before this
}

fs::path makeTempDir(const char* tag) {
    std::string pattern =
        (fs::temp_directory_path() / tag).string() + "_XXXXXX";
    std::vector<char> buffer(pattern.begin(), pattern.end());
    buffer.push_back('\0');
#if GRAPR_CAN_REEXEC
    const char* made = ::mkdtemp(buffer.data());
    if (made == nullptr) fail("mkdtemp failed for " + pattern);
    return fs::path(made);
#else
    fs::path dir = fs::temp_directory_path() / tag;
    fs::create_directories(dir);
    return dir;
#endif
}

[[maybe_unused]] bool hasCheckpointFile(const fs::path& dir) {
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("checkpoint-", 0) == 0 &&
            name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".gcsr") == 0) {
            return true;
        }
    }
    return false;
}

#if GRAPR_CAN_REEXEC

struct ChildResult {
    bool spawned = false;
    bool signalled = false;
    int signal = 0;
    int exitCode = -1;
};

/// Re-exec this binary in a fixture mode with the given fault spec: the
/// crash workload (GRAPR_CRASH_DIR) or a recovery (GRAPR_RECOVER_DIR).
/// A fresh exec, not a bare fork, so the child never inherits the
/// parent's OpenMP runtime state.
[[maybe_unused]] ChildResult runCrashChild(
    const std::string& dir, const std::string& faultSpec,
    const char* modeVariable = "GRAPR_CRASH_DIR") {
    ChildResult result;
    char exe[4096];
    const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
    if (len <= 0) return result;
    exe[len] = '\0';

    const pid_t pid = ::fork();
    if (pid < 0) return result;
    if (pid == 0) {
        ::setenv(modeVariable, dir.c_str(), 1);
        if (faultSpec.empty()) {
            ::unsetenv("GRAPR_FAULT");
        } else {
            ::setenv("GRAPR_FAULT", faultSpec.c_str(), 1);
        }
        ::execl(exe, exe, static_cast<char*>(nullptr));
        ::_exit(127);
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid) return result;
    result.spawned = true;
    if (WIFSIGNALED(status)) {
        result.signalled = true;
        result.signal = WTERMSIG(status);
    } else if (WIFEXITED(status)) {
        result.exitCode = WEXITSTATUS(status);
    }
    return result;
}

#endif // GRAPR_CAN_REEXEC

// ---- WAL + checkpoint round trips (no fault injection needed) ---------

TEST(CrashRecovery, WalRoundTripPreservesRecords) {
    const fs::path dir = makeTempDir("grapr_wal_rt");
    const std::string path = (dir / "wal-rt.gwal").string();

    EdgeBatch first;
    first.insert(1, 2, 2.5);
    first.insert(7, 7, 1.0); // self-loop survives the encoding
    first.remove(3, 4);
    EdgeBatch second;
    second.remove(2, 1); // endpoint order is preserved verbatim

    {
        wal::WalWriter writer(path, 41, /*groupCommit=*/1);
        writer.append(first, 42);
        writer.append(second, 43);
        writer.close();
    }

    const wal::ReplayResult replayed = wal::replay(path, false);
    EXPECT_FALSE(replayed.torn);
    EXPECT_EQ(replayed.baseGeneration, 41u);
    ASSERT_EQ(replayed.records.size(), 2u);
    EXPECT_EQ(replayed.records[0].generation, 42u);
    EXPECT_EQ(replayed.records[1].generation, 43u);
    const auto& ops = replayed.records[0].batch.ops();
    ASSERT_EQ(ops.size(), 3u);
    EXPECT_EQ(ops[0].kind, EdgeOp::Kind::Insert);
    EXPECT_EQ(ops[0].u, 1u);
    EXPECT_EQ(ops[0].v, 2u);
    EXPECT_EQ(ops[0].w, 2.5);
    EXPECT_EQ(ops[1].u, 7u);
    EXPECT_EQ(ops[1].v, 7u);
    EXPECT_EQ(ops[2].kind, EdgeOp::Kind::Remove);
    ASSERT_EQ(replayed.records[1].batch.ops().size(), 1u);
    EXPECT_EQ(replayed.records[1].batch.ops()[0].u, 2u);

    fs::remove_all(dir);
}

TEST(CrashRecovery, WalTornTailIsTruncatedNotMisparsed) {
    const fs::path dir = makeTempDir("grapr_wal_torn");
    const std::string path = (dir / "wal-torn.gwal").string();

    EdgeBatch batch;
    batch.insert(5, 6, 1.0);
    {
        wal::WalWriter writer(path, 0, 1);
        writer.append(batch, 1);
        writer.append(batch, 2);
        writer.close();
    }
    const auto intact = wal::replay(path, false);
    ASSERT_EQ(intact.records.size(), 2u);
    const auto fullBytes = fs::file_size(path);

    // Garbage after the last complete record: a crash mid-append.
    {
        std::ofstream out(path, std::ios::binary | std::ios::app);
        out.write("\x7f\x00\x12", 3);
    }
    const auto torn = wal::replay(path, false);
    EXPECT_TRUE(torn.torn);
    EXPECT_EQ(torn.validBytes, fullBytes);
    ASSERT_EQ(torn.records.size(), 2u); // intact prefix fully decoded

    // truncateTorn repairs the file in place; a second replay is clean.
    const auto repaired = wal::replay(path, true);
    EXPECT_TRUE(repaired.torn);
    EXPECT_EQ(fs::file_size(path), fullBytes);
    const auto clean = wal::replay(path, false);
    EXPECT_FALSE(clean.torn);
    EXPECT_EQ(clean.records.size(), 2u);

    // A flipped byte inside the last record: CRC must reject the record
    // and keep the intact prefix, never hand back a corrupted batch.
    {
        std::fstream out(path, std::ios::binary | std::ios::in |
                                   std::ios::out);
        out.seekp(-1, std::ios::end);
        out.put('\xee');
    }
    const auto corrupt = wal::replay(path, false);
    EXPECT_TRUE(corrupt.torn);
    ASSERT_EQ(corrupt.records.size(), 1u);
    EXPECT_EQ(corrupt.records[0].generation, 1u);

    fs::remove_all(dir);
}

TEST(CrashRecovery, CheckpointRoundTripIsBitIdentical) {
    const fs::path dir = makeTempDir("grapr_cp_rt");
    const std::string path = (dir / "checkpoint-rt.gcsr").string();

    Graph g = seedGraph();
    StreamingGraph engine(g);
    const SnapshotPtr snap = engine.pin();
    io::writeBinaryCsr(snap->graph, 17, path);

    const io::BinaryCsrSnapshot loaded = io::readBinaryCsr(path);
    EXPECT_EQ(loaded.generation, 17u);
    expectMatchesState(loaded.graph, freezeState(snap->graph));
    EXPECT_EQ(loaded.graph.isWeighted(), snap->graph.isWeighted());

    // Any flipped byte must fail validation, not load silently.
    {
        std::fstream out(path, std::ios::binary | std::ios::in |
                                   std::ios::out);
        out.seekp(48, std::ios::beg); // inside the offsets array
        out.put('\x5a');
    }
    EXPECT_THROW(io::readBinaryCsr(path), io::IoError);

    // A truncated file must fail cleanly too.
    fs::resize_file(path, fs::file_size(path) / 2);
    EXPECT_THROW(io::readBinaryCsr(path), io::IoError);

    fs::remove_all(dir);
}

TEST(CrashRecovery, RecoverIsIdempotentAndPrunes) {
    const fs::path dir = makeTempDir("grapr_rec_idem");
    std::map<std::uint64_t, CsrState> oracle;
    std::uint64_t finalGeneration = 0;
    {
        Graph g = seedGraph();
        StreamingGraph engine(g);
        engine.enableDurability(dir.string(), crashOptions());
        churn(engine, &oracle);
        finalGeneration = engine.generation();
    } // clean shutdown: WAL tail fsync'd record by record

    for (int round = 0; round < 2; ++round) {
        StreamingGraph recovered(dir.string(), crashOptions());
        EXPECT_EQ(recovered.generation(), finalGeneration);
        expectMatchesState(recovered.pin()->graph,
                           oracle.at(finalGeneration));
        EXPECT_TRUE(recovered.durable());
        EXPECT_FALSE(recovered.failed());
    }

    // Recovery re-checkpoints and prunes: exactly one checkpoint and one
    // segment remain, both at the recovered generation.
    count checkpoints = 0, segments = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("checkpoint-", 0) == 0) ++checkpoints;
        if (name.rfind("wal-", 0) == 0) ++segments;
    }
    EXPECT_EQ(checkpoints, 1u);
    EXPECT_EQ(segments, 1u);

    fs::remove_all(dir);
}

// Satellite: GraphLog commit -> undo round trip, with Permissive batches
// whose ignored entries must NOT leak into the WAL or the inverse. The
// whole history (including the undos) then survives recovery.
TEST(CrashRecovery, GraphLogUndoRoundTripsThroughWalReplay) {
    const fs::path dir = makeTempDir("grapr_log_undo");
    Graph g = seedGraph();
    StreamingGraph engine(g);
    engine.enableDurability(dir.string(), crashOptions());
    GraphLog log(engine);

    const CsrState before = freezeState(engine.pin()->graph);
    const bool hadEdge01 =
        csrEdgeWeight(engine.pin()->graph, 0, 1).has_value();

    // A batch with deliberate no-ops: removing a definitely-missing edge
    // and double-inserting the same new edge.
    log.insert(kNodes + 3, kNodes + 4, 1.0);
    log.insert(kNodes + 3, kNodes + 4, 1.0); // duplicate -> ignored
    log.remove(kNodes + 8, kNodes + 9);      // missing  -> ignored
    if (hadEdge01) log.remove(0, 1); else log.insert(0, 1);
    const BatchResult result = log.commit(StreamApplyMode::Permissive);
    EXPECT_EQ(result.ignored, 2u);
    const std::uint64_t committedGeneration = engine.generation();

    const BatchResult undone = log.undo();
    EXPECT_EQ(undone.generation, committedGeneration + 1);
    // Logical round trip: the adjacency is restored exactly (the bound
    // may have grown — CSR never shrinks node-id space).
    const CsrGraph& after = engine.pin()->graph;
    EXPECT_EQ(csrEdgeWeight(after, 0, 1).has_value(), hadEdge01);
    EXPECT_FALSE(
        csrEdgeWeight(after, kNodes + 3, kNodes + 4).has_value());
    for (node u = 0; u + 1 < before.offsets.size(); ++u) {
        ASSERT_EQ(after.offsets()[u + 1] - after.offsets()[u],
                  before.offsets[u + 1] - before.offsets[u])
            << "degree of node " << u << " not restored by undo";
    }

    // Both the batch and its inverse are WAL records; recovery replays
    // them in order and lands on the undone state bit for bit.
    const CsrState final = freezeState(after);
    const std::uint64_t finalGeneration = engine.generation();
    StreamingGraph recovered(dir.string(), crashOptions());
    EXPECT_EQ(recovered.generation(), finalGeneration);
    expectMatchesState(recovered.pin()->graph, final);

    fs::remove_all(dir);
}

// ---- folded recovery == per-record replay -----------------------------
// Recovery folds the whole WAL tail into one net batch and one merge.
// These tests pin it to the obvious oracle: a volatile engine built from
// the same checkpoint that applies every record in Strict mode, one by
// one — same generation, same arrays bit for bit, and the same error on
// exactly the same records.

std::string paddedGeneration(std::uint64_t generation) {
    const std::string digits = std::to_string(generation);
    return std::string(20 - digits.size(), '0') + digits;
}

/// Write a durable directory by hand: checkpoint `base` at generation
/// `checkpointGeneration` and its WAL segment, whose header names
/// `walBase` (normally the checkpoint generation) and holds `records`.
void writeDurableDir(const fs::path& dir, const CsrGraph& base,
                     std::uint64_t checkpointGeneration,
                     const std::vector<wal::WalRecord>& records,
                     std::uint64_t walBase) {
    const std::string tag = paddedGeneration(checkpointGeneration);
    io::writeBinaryCsr(base, checkpointGeneration,
                       (dir / ("checkpoint-" + tag + ".gcsr")).string());
    wal::WalWriter writer((dir / ("wal-" + tag + ".gwal")).string(),
                          walBase, /*groupCommit=*/1);
    for (const wal::WalRecord& record : records) {
        writer.append(record.batch, record.generation);
    }
    writer.close();
}

/// Where a replay ended: the generation and arrays, or the error text.
struct ReplayOutcome {
    std::string error; ///< empty on success
    std::uint64_t generation = 0;
    CsrState state;
};

/// The oracle: per-record Strict apply on a volatile engine built from
/// the checkpoint, failing exactly as the pre-fold recovery loop did.
ReplayOutcome perRecordReplay(const CsrGraph& checkpoint,
                              std::uint64_t checkpointGeneration,
                              const std::vector<wal::WalRecord>& records) {
    ReplayOutcome out;
    try {
        StreamingGraph oracle(CsrGraph(checkpoint.offsets(),
                                       checkpoint.neighborArray(),
                                       checkpoint.weightArray(),
                                       checkpoint.isWeighted()));
        for (const wal::WalRecord& record : records) {
            const BatchResult replayed =
                oracle.apply(record.batch, StreamApplyMode::Strict);
            require(checkpointGeneration + replayed.generation ==
                        record.generation,
                    "recover: WAL replay diverged from the logged "
                    "generation sequence");
        }
        out.generation = checkpointGeneration + oracle.generation();
        out.state = freezeState(oracle.pin()->graph);
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    return out;
}

ReplayOutcome recoverFrom(const fs::path& dir) {
    ReplayOutcome out;
    try {
        StreamingGraph recovered(dir.string(), crashOptions());
        out.generation = recovered.generation();
        out.state = freezeState(recovered.pin()->graph);
    } catch (const std::exception& e) {
        out.error = e.what();
    }
    return out;
}

/// Bit-for-bit equality: EXPECT_EQ on doubles would let +0.0 == -0.0.
void expectBitIdentical(const CsrState& got, const CsrState& want) {
    EXPECT_EQ(got.offsets, want.offsets);
    EXPECT_EQ(got.neighbors, want.neighbors);
    ASSERT_EQ(got.weights.size(), want.weights.size());
    for (std::size_t i = 0; i < got.weights.size(); ++i) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.weights[i]),
                  std::bit_cast<std::uint64_t>(want.weights[i]))
            << "weight " << i << ": " << got.weights[i] << " vs "
            << want.weights[i];
    }
}

constexpr node kFoldNodes = 60;
constexpr std::uint64_t kFoldCheckpoint = 5;

/// First two base edges {u < v} in row order: B and C of the script.
std::pair<std::pair<node, node>, std::pair<node, node>>
firstTwoEdges(const CsrGraph& g) {
    std::vector<std::pair<node, node>> found;
    for (node u = 0; u < g.upperNodeIdBound() && found.size() < 2; ++u) {
        for (grapr::index i = g.offsets()[u]; i < g.offsets()[u + 1]; ++i) {
            if (g.neighborArray()[i] > u) {
                found.emplace_back(u, g.neighborArray()[i]);
                break;
            }
        }
    }
    if (found.size() < 2) fail("fold test base graph has < 2 edges");
    return {found[0], found[1]};
}

/// The fold tests' checkpoint: a planted-partition graph, optionally
/// re-weighted with a symmetric weight per edge — edge B gets +0.0, so a
/// later -0.0 is a bit change the `==` test cannot see.
CsrGraph foldBase(bool weighted) {
    Random::setSeed(8300);
    const Graph g = PlantedPartitionGenerator(kFoldNodes, 4, 0.3, 0.02)
                        .generate();
    const CsrGraph sorted = StreamingGraph(g).pin()->graph;
    if (!weighted) {
        return CsrGraph(sorted.offsets(), sorted.neighborArray(), {}, false);
    }
    const auto [b, c] = firstTwoEdges(sorted);
    std::vector<edgeweight> weights(sorted.neighborArray().size());
    for (node u = 0; u < sorted.upperNodeIdBound(); ++u) {
        for (grapr::index i = sorted.offsets()[u];
             i < sorted.offsets()[u + 1]; ++i) {
            const node v = sorted.neighborArray()[i];
            const std::pair<node, node> e{std::min(u, v), std::max(u, v)};
            weights[i] = e == b ? 0.0 : 0.5 * (1 + (e.first + e.second) % 4);
        }
    }
    return CsrGraph(sorted.offsets(), sorted.neighborArray(),
                    std::move(weights), true);
}

/// Apply `batch` to the generator engine and log it as the next record;
/// batches with no net effect are dropped (a WAL never holds them).
bool logRecord(StreamingGraph& engine, const EdgeBatch& batch,
               std::vector<wal::WalRecord>& records) {
    const std::uint64_t before = engine.generation();
    const BatchResult result = engine.apply(batch, StreamApplyMode::Strict);
    if (result.generation == before) return false;
    records.push_back({kFoldCheckpoint + result.generation, batch});
    return true;
}

/// A seeded Strict-valid record sequence: a fixed script covering the
/// cases where a naive fold diverges, then random records over a small
/// hot edge set (records are *programs*, so remove+insert reweights and
/// ops on edges earlier records touched are common).
std::vector<wal::WalRecord> foldRecords(const CsrGraph& base,
                                        std::uint64_t seed,
                                        count randomRecords) {
    StreamingGraph engine(CsrGraph(base.offsets(), base.neighborArray(),
                                   base.weightArray(), base.isWeighted()));
    std::vector<wal::WalRecord> records;
    const auto [b, c] = firstTwoEdges(base);
    const edgeweight cBase = csrEdgeWeight(base, c.first, c.second).value();
    const node x = kFoldNodes, y = kFoldNodes + 1; // new node ids
    const node far = kFoldNodes + 9;               // the bound trap

    std::vector<EdgeBatch> script(4);
    // r1: new edges X and Z (Z raises the bound); B +0.0 -> -0.0, which
    // `apply` treats as no change.
    script[0].insert(x, y, 1.5);
    script[0].insert(0, far, 1.0);
    script[0].remove(b.first, b.second);
    script[0].insert(b.first, b.second, -0.0);
    // r2: delete X; B -> 5.0; C -> 3.0.
    script[1].remove(x, y);
    script[1].remove(b.first, b.second);
    script[1].insert(b.first, b.second, 5.0);
    script[1].remove(c.first, c.second);
    script[1].insert(c.first, c.second, 3.0);
    // r3: re-insert X; B -> -0.0 (bits differ from base +0.0); C back to
    // its base weight (A -> B -> A keeps the base bits).
    script[2].insert(x, y, 2.5);
    script[2].remove(b.first, b.second);
    script[2].insert(b.first, b.second, -0.0);
    script[2].remove(c.first, c.second);
    script[2].insert(c.first, c.second, cBase);
    // r4: delete Z — the bound it raised must stay.
    script[3].remove(0, far);
    for (const EdgeBatch& batch : script) {
        if (!logRecord(engine, batch, records)) {
            fail("fold script record had no net effect");
        }
    }

    std::mt19937_64 rng(seed);
    const edgeweight pool[] = {0.0, -0.0, 1.0, 2.5, 0.5, 4.0};
    const auto pick = [&](count n) { return static_cast<count>(rng() % n); };
    std::vector<std::pair<node, node>> hot = {b, c, {x, y}, {0, far}};
    while (hot.size() < 16) {
        const auto u = static_cast<node>(pick(kFoldNodes + 4));
        const auto v = static_cast<node>(pick(kFoldNodes + 4));
        hot.emplace_back(std::min(u, v), std::max(u, v));
    }
    while (records.size() < 4 + randomRecords) {
        const SnapshotPtr now = engine.pin();
        std::map<std::pair<node, node>, bool> present;
        EdgeBatch batch;
        const count ops = 1 + pick(6);
        for (count k = 0; k < ops; ++k) {
            std::pair<node, node> e = hot[pick(hot.size())];
            if (pick(10) < 3) {
                const auto u = static_cast<node>(pick(kFoldNodes));
                const auto v = static_cast<node>(pick(kFoldNodes));
                e = {std::min(u, v), std::max(u, v)};
            }
            const auto [it, fresh] = present.try_emplace(e, false);
            if (fresh) {
                it->second =
                    csrEdgeWeight(now->graph, e.first, e.second).has_value();
            }
            const edgeweight w = pool[pick(std::size(pool))];
            if (!it->second) {
                batch.insert(e.first, e.second, w);
                it->second = true;
            } else if (pick(2) == 0) {
                batch.remove(e.first, e.second);
                it->second = false;
            } else {
                batch.remove(e.first, e.second); // reweight
                batch.insert(e.first, e.second, w);
            }
        }
        logRecord(engine, batch, records);
    }
    return records;
}

TEST(CrashRecovery, FoldedReplayMatchesPerRecordReplay) {
    for (const bool weighted : {false, true}) {
        const CsrGraph base = foldBase(weighted);
        for (std::uint64_t seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE(std::string(weighted ? "weighted" : "unweighted") +
                         " seed " + std::to_string(seed));
            const std::vector<wal::WalRecord> records =
                foldRecords(base, 8400 + seed, 40);
            const ReplayOutcome oracle =
                perRecordReplay(base, kFoldCheckpoint, records);
            ASSERT_TRUE(oracle.error.empty()) << oracle.error;
            ASSERT_EQ(oracle.generation, kFoldCheckpoint + records.size());
            // The bound trap: an id a later record deleted still counts.
            ASSERT_GE(oracle.state.offsets.size(), kFoldNodes + 11);

            const fs::path dir = makeTempDir("grapr_fold");
            writeDurableDir(dir, base, kFoldCheckpoint, records,
                            kFoldCheckpoint);
            const ReplayOutcome folded = recoverFrom(dir);
            ASSERT_TRUE(folded.error.empty()) << folded.error;
            EXPECT_EQ(folded.generation, oracle.generation);
            expectBitIdentical(folded.state, oracle.state);

            // A shorter tail — the script before r4 deletes Z — lands on
            // the per-record state too.
            const std::vector<wal::WalRecord> prefix(records.begin(),
                                                     records.begin() + 3);
            const fs::path prefixDir = makeTempDir("grapr_fold_prefix");
            writeDurableDir(prefixDir, base, kFoldCheckpoint, prefix,
                            kFoldCheckpoint);
            const ReplayOutcome short3 = recoverFrom(prefixDir);
            const ReplayOutcome oracle3 =
                perRecordReplay(base, kFoldCheckpoint, prefix);
            ASSERT_TRUE(short3.error.empty()) << short3.error;
            EXPECT_EQ(short3.generation, oracle3.generation);
            expectBitIdentical(short3.state, oracle3.state);

            fs::remove_all(dir);
            fs::remove_all(prefixDir);
        }
    }
}

// CRC-valid segments that replay invalid: folding must not hide them.
// Each corrupt record sits after valid ones; recovery throws the oracle's
// error, and the valid prefix before it still recovers — so it throws at
// exactly the record per-record replay throws at.
TEST(CrashRecovery, FoldedReplayStillDetectsCorruption) {
    const CsrGraph base = foldBase(/*weighted=*/true);
    const auto [b, c] = firstTwoEdges(base);
    const edgeweight cBase = csrEdgeWeight(base, c.first, c.second).value();
    const auto record = [](std::uint64_t k, EdgeBatch batch) {
        return wal::WalRecord{kFoldCheckpoint + k, std::move(batch)};
    };
    EdgeBatch removeB, insertX, removeC, sameWeightC;
    removeB.remove(b.first, b.second);
    insertX.insert(kFoldNodes, kFoldNodes + 1, 2.0);
    removeC.remove(c.first, c.second);
    sameWeightC.remove(c.first, c.second); // net-empty: back at the same
    sameWeightC.insert(c.first, c.second, cBase); // weight

    struct Case {
        const char* name;
        std::vector<wal::WalRecord> records;
        const char* expected; ///< substring of the oracle's error
    };
    const std::vector<Case> cases = {
        {"double delete",
         {record(1, insertX), record(2, removeB), record(3, removeB)},
         "delete of a missing edge"},
        {"double insert",
         {record(1, removeC), record(2, insertX), record(3, insertX)},
         "insert of an existing edge"},
        {"net-empty record",
         {record(1, insertX), record(2, sameWeightC)},
         "replay diverged"},
    };
    for (const Case& bad : cases) {
        SCOPED_TRACE(bad.name);
        const ReplayOutcome oracle =
            perRecordReplay(base, kFoldCheckpoint, bad.records);
        ASSERT_NE(oracle.error.find(bad.expected), std::string::npos)
            << oracle.error;

        const fs::path dir = makeTempDir("grapr_fold_bad");
        writeDurableDir(dir, base, kFoldCheckpoint, bad.records,
                        kFoldCheckpoint);
        EXPECT_EQ(recoverFrom(dir).error, oracle.error);
        fs::remove_all(dir);

        // Without the last (corrupt) record the tail recovers cleanly.
        const std::vector<wal::WalRecord> valid(bad.records.begin(),
                                                bad.records.end() - 1);
        const fs::path validDir = makeTempDir("grapr_fold_valid");
        writeDurableDir(validDir, base, kFoldCheckpoint, valid,
                        kFoldCheckpoint);
        const ReplayOutcome recovered = recoverFrom(validDir);
        EXPECT_TRUE(recovered.error.empty()) << recovered.error;
        EXPECT_EQ(recovered.generation, kFoldCheckpoint + valid.size());
        fs::remove_all(validDir);
    }

    // Generation gap between the checkpoint and its segment: the header
    // names a later base, so the first record is checkpoint + 2.
    {
        const fs::path dir = makeTempDir("grapr_fold_gap");
        writeDurableDir(dir, base, kFoldCheckpoint,
                        {record(2, insertX), record(3, removeB)},
                        kFoldCheckpoint + 1);
        EXPECT_NE(recoverFrom(dir).error.find("does not match its "
                                              "checkpoint generation"),
                  std::string::npos);
        fs::remove_all(dir);
    }
    // A gap inside the segment breaks the baseGeneration + k sequence:
    // the log scan ends the valid prefix there (a torn tail), for folded
    // and per-record replay alike.
    {
        const fs::path dir = makeTempDir("grapr_fold_gap_tail");
        writeDurableDir(dir, base, kFoldCheckpoint,
                        {record(1, insertX), record(3, removeB)},
                        kFoldCheckpoint);
        const ReplayOutcome recovered = recoverFrom(dir);
        const ReplayOutcome oracle =
            perRecordReplay(base, kFoldCheckpoint, {record(1, insertX)});
        ASSERT_TRUE(recovered.error.empty()) << recovered.error;
        EXPECT_EQ(recovered.generation, kFoldCheckpoint + 1);
        expectBitIdentical(recovered.state, oracle.state);
        fs::remove_all(dir);
    }
}

// ---- fault-injection tests --------------------------------------------

#ifndef GRAPR_FAULT_INJECTION

TEST(CrashRecovery, RequiresFaultInjectionBuild) {
    GTEST_SKIP() << "built without GRAPR_FAULT_INJECTION; configure with "
                    "-DGRAPR_FAULT_INJECTION=ON to run the kill/recover "
                    "and rollback tests";
}

#else // GRAPR_FAULT_INJECTION

/// RAII: no fault configuration leaks out of a test.
struct FaultGuard {
    ~FaultGuard() {
        fault::captureSites(false);
        fault::clearConfiguration();
    }
};

// A failed append that rolls back cleanly is a retryable error, not a
// poisoned engine: the WAL file is restored to its pre-append length and
// the generation never publishes.
TEST(CrashRecovery, FailedAppendRollsBackAndIsRetryable) {
    FaultGuard guard;
    const fs::path dir = makeTempDir("grapr_rollback");
    Graph g = seedGraph();
    StreamingGraph engine(g);
    engine.enableDurability(dir.string(), crashOptions());
    const std::uint64_t generationBefore = engine.generation();
    const CsrState before = freezeState(engine.pin()->graph);

    EdgeBatch batch;
    batch.insert(2, 3, 1.0);
    batch.remove(2, 3);
    // Past the node bound, so the net effect is a guaranteed insert.
    batch.insert(kNodes + 11, kNodes + 13, 1.0);

    fault::configure("wal.append.write:1:throw");
    EXPECT_THROW(engine.apply(batch, StreamApplyMode::Permissive),
                 fault::InjectedFault);
    EXPECT_FALSE(engine.failed())
        << "a cleanly rolled-back append must not poison the engine";
    EXPECT_EQ(engine.generation(), generationBefore);
    expectMatchesState(engine.pin()->graph, before);

    // Same batch again, no fault: must commit, and recovery must see it.
    fault::clearConfiguration();
    engine.apply(batch, StreamApplyMode::Permissive);
    EXPECT_EQ(engine.generation(), generationBefore + 1);
    const CsrState after = freezeState(engine.pin()->graph);

    StreamingGraph recovered(dir.string(), crashOptions());
    EXPECT_EQ(recovered.generation(), generationBefore + 1);
    expectMatchesState(recovered.pin()->graph, after);

    fs::remove_all(dir);
}

// When the rollback of a failed append ALSO fails, the on-disk tail is
// unknown: the engine must poison itself and reject everything after.
TEST(CrashRecovery, FailedRollbackPoisonsTheEngine) {
    FaultGuard guard;
    const fs::path dir = makeTempDir("grapr_poison");
    Graph g = seedGraph();
    StreamingGraph engine(g);
    engine.enableDurability(dir.string(), crashOptions());

    EdgeBatch batch;
    batch.insert(kNodes + 21, kNodes + 22, 1.0); // guaranteed net effect
    fault::configure("wal.append.write:1:throw,wal.rollback.truncate:1");
    EXPECT_THROW(engine.apply(batch, StreamApplyMode::Permissive),
                 fault::InjectedFault);
    EXPECT_TRUE(engine.failed());
    EXPECT_NE(engine.failureReason().find("rollback"), std::string::npos)
        << "reason was: " << engine.failureReason();

    fault::clearConfiguration();
    EXPECT_THROW(engine.apply(batch, StreamApplyMode::Permissive),
                 std::runtime_error);
    EXPECT_THROW(engine.checkpoint(), std::runtime_error);

    // Recovering from the directory is the documented way out.
    StreamingGraph recovered(dir.string(), crashOptions());
    EXPECT_FALSE(recovered.failed());
    recovered.apply(batch, StreamApplyMode::Permissive);

    fs::remove_all(dir);
}

// Group commit: an fsync failure with older acknowledged-but-unsynced
// records in the group cannot be rolled back record by record — the
// engine must poison, not truncate acknowledged history.
TEST(CrashRecovery, GroupCommitFsyncFailurePoisons) {
    FaultGuard guard;
    const fs::path dir = makeTempDir("grapr_group");
    Graph g = seedGraph();
    StreamingGraph engine(g);
    DurabilityOptions options = crashOptions();
    options.groupCommit = 3;
    engine.enableDurability(dir.string(), options);

    const StreamWorkload workload = crashWorkload();
    engine.apply(workload.batch(0, engine.pin()->graph),
                 StreamApplyMode::Permissive);
    engine.apply(workload.batch(1, engine.pin()->graph),
                 StreamApplyMode::Permissive);

    // The third append completes the group and calls fsync.
    fault::configure("wal.append.fsync:1:throw");
    EXPECT_THROW(engine.apply(workload.batch(2, engine.pin()->graph),
                              StreamApplyMode::Permissive),
                 fault::InjectedFault);
    EXPECT_TRUE(engine.failed());

    fs::remove_all(dir);
}

// A fault between the WAL fsync and the publish leaves the log ahead of
// memory: poisoned, and recovery replays the logged-but-unpublished
// batch — the WAL is the source of truth once it is durable.
TEST(CrashRecovery, PublishFaultRecoversTheLoggedBatch) {
    FaultGuard guard;
    const fs::path dir = makeTempDir("grapr_publish");
    Graph g = seedGraph();
    StreamingGraph engine(g);
    engine.enableDurability(dir.string(), crashOptions());
    const std::uint64_t generationBefore = engine.generation();

    // Volatile twin predicts the post-batch state.
    Graph g2 = seedGraph();
    StreamingGraph twin(g2);
    EdgeBatch batch;
    batch.insert(kNodes + 31, kNodes + 33, 1.0); // guaranteed net effect
    twin.apply(batch, StreamApplyMode::Permissive);
    const CsrState predicted = freezeState(twin.pin()->graph);

    fault::configure("engine.publish:1:throw");
    EXPECT_THROW(engine.apply(batch, StreamApplyMode::Permissive),
                 fault::InjectedFault);
    EXPECT_TRUE(engine.failed());
    EXPECT_NE(engine.failureReason().find("publish"), std::string::npos);
    EXPECT_EQ(engine.generation(), generationBefore); // memory unchanged

    fault::clearConfiguration();
    StreamingGraph recovered(dir.string(), crashOptions());
    EXPECT_EQ(recovered.generation(), generationBefore + 1);
    expectMatchesState(recovered.pin()->graph, predicted);

    fs::remove_all(dir);
}

// Satellite: the text writers surface short writes as structured
// IoErrors carrying the path and a recent byte offset.
TEST(CrashRecovery, WriterShortWritesAreStructuredIoErrors) {
    FaultGuard guard;
    const fs::path dir = makeTempDir("grapr_writers");
    Graph g = seedGraph();

    // Fail mid-body: past the header, before the end (edge rows are
    // checked every 1024, so trigger late enough for a useful offset).
    fault::configure("io.write.edgelist:1500");
    const std::string edgePath = (dir / "out.tsv").string();
    try {
        io::writeEdgeList(g, edgePath, false);
        FAIL() << "writeEdgeList swallowed the simulated short write";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), edgePath);
        EXPECT_GT(e.byteOffset(), 0u);
        EXPECT_LT(e.byteOffset(), fs::file_size(edgePath) + 1);
        EXPECT_NE(std::string(e.what()).find("writeEdgeList"),
                  std::string::npos);
    }

    fault::configure("io.write.metis:200");
    const std::string metisPath = (dir / "out.metis").string();
    try {
        io::writeMetis(g, metisPath);
        FAIL() << "writeMetis swallowed the simulated short write";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), metisPath);
        EXPECT_GT(e.byteOffset(), 0u);
        EXPECT_NE(std::string(e.what()).find("writeMetis"),
                  std::string::npos);
    }

    // Without a fault both writers succeed on the same graph and paths.
    fault::clearConfiguration();
    io::writeEdgeList(g, edgePath, false);
    io::writeMetis(g, metisPath);

    fs::remove_all(dir);
}

// Satellite: malformed GRAPR_FAULT specs must fail loudly, not silently
// disarm — a harness that misspells a spec would otherwise run with no
// fault armed and report green.
TEST(CrashRecovery, MalformedFaultSpecsFailLoudly) {
    FaultGuard guard;
    for (const char* bad :
         {"wal.append.write:abc:throw", "wal.append.write:3x",
          "wal.append.write:0:throw", "wal.append.write::throw",
          "wal.append.write:1:explode", ":1:throw"}) {
        EXPECT_THROW(fault::configure(bad), std::runtime_error)
            << "malformed spec '" << bad << "' was accepted";
    }
    // Valid shapes still parse: bare site (nth defaults to 1), explicit
    // count, explicit action, and comma-separated combinations.
    fault::configure("wal.append.write");
    fault::configure("wal.append.write:2");
    fault::configure("wal.append.write:2:throw,engine.publish:1:kill");
    fault::clearConfiguration();
}

// Satellite + tentpole cross-check: grapr_analyze's fault-site-coverage
// check pins the static GRAPR_FAULT_POINT list to tests/fault_sites.txt;
// this is the dynamic half. One run that exercises every registered site
// must produce a captureSites() trace whose name set equals the manifest
// — drift in EITHER direction fails (a site added without a manifest
// entry fails the analyzer; a manifest entry the harness can no longer
// reach fails here).
TEST(CrashRecovery, FaultSiteManifestMatchesTrace) {
#ifndef GRAPR_FAULT_SITE_MANIFEST
    GTEST_SKIP() << "GRAPR_FAULT_SITE_MANIFEST not defined by the build";
#else
    FaultGuard guard;
    std::set<std::string> manifest;
    {
        std::ifstream in(GRAPR_FAULT_SITE_MANIFEST);
        ASSERT_TRUE(in.is_open())
            << "cannot read " << GRAPR_FAULT_SITE_MANIFEST;
        std::string line;
        while (std::getline(in, line)) {
            if (line.empty() || line[0] == '#') continue;
            manifest.insert(line);
        }
    }
    ASSERT_FALSE(manifest.empty());

    const fs::path dir = makeTempDir("grapr_manifest");
    // Arm a throwing fault BEFORE enabling capture: configure() resets
    // the hit counts, captureSites() preserves them. The throw drives
    // the rollback path (wal.rollback.truncate is INJECT-only and never
    // evaluated on a clean run).
    fault::configure("wal.append.write:3:throw");
    fault::captureSites(true);
    {
        Graph g = seedGraph();
        StreamingGraph engine(g);
        engine.enableDurability(dir.string(), crashOptions());
        const StreamWorkload workload = crashWorkload();
        int thrown = 0;
        for (std::uint64_t i = 0; i < kBatches; ++i) {
            try {
                engine.apply(workload.batch(i, engine.pin()->graph),
                             StreamApplyMode::Permissive);
            } catch (const fault::InjectedFault&) {
                ++thrown; // clean rollback: the engine stays usable
            }
        }
        EXPECT_EQ(thrown, 1);
        EXPECT_FALSE(engine.failed());
    }

    // The text writers register their own sites.
    Graph g2 = seedGraph();
    io::writeEdgeList(g2, (dir / "trace.tsv").string(), false);
    io::writeMetis(g2, (dir / "trace.metis").string());

    // Tear the newest WAL segment's tail so recovery's replay hits the
    // torn-tail truncation site (and the checkpoint/create sites again).
    fs::path segment;
    for (const auto& entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() > 5 &&
            name.compare(name.size() - 5, 5, ".gwal") == 0) {
            if (segment.empty() ||
                segment.filename().string() < name) {
                segment = entry.path();
            }
        }
    }
    ASSERT_FALSE(segment.empty()) << "no WAL segment in " << dir;
    {
        std::ofstream out(segment,
                          std::ios::binary | std::ios::app);
        const char garbage[] = "torn-tail-garbage";
        out.write(garbage, sizeof garbage);
    }
    {
        StreamingGraph recovered(dir.string(), crashOptions());
        EXPECT_FALSE(recovered.failed());
    }

    fault::captureSites(false);
    const auto trace = fault::sites();

    // Stable, duplicate-free enumeration.
    EXPECT_TRUE(std::is_sorted(trace.begin(), trace.end()));
    std::set<std::string> traced;
    for (const auto& [site, hits] : trace) {
        EXPECT_TRUE(traced.insert(site).second)
            << "duplicate site in trace: " << site;
        EXPECT_GT(hits, 0u);
    }
    EXPECT_EQ(trace, fault::sites()) << "trace changed between calls";

    // Both directions of drift fail.
    for (const std::string& site : manifest) {
        EXPECT_TRUE(traced.count(site) > 0)
            << "manifest site never reached by the trace run: " << site;
    }
    for (const std::string& site : traced) {
        EXPECT_TRUE(manifest.count(site) > 0)
            << "site hit at runtime but missing from fault_sites.txt: "
            << site;
    }
    fs::remove_all(dir);
#endif
}

// ---- the tentpole: kill at EVERY fault point, recover, compare --------

TEST(CrashRecovery, KillAtEveryFaultPointRecoversBitIdentical) {
#if !GRAPR_CAN_REEXEC
    GTEST_SKIP() << "re-exec harness needs fork + /proc/self/exe";
#else
    FaultGuard guard;

    // 1. Enumerate the fault points the durable commit path actually
    //    executes, and how often, by tracing one clean run.
    const fs::path traceDir = makeTempDir("grapr_crash_trace");
    fault::clearConfiguration();
    fault::captureSites(true);
    {
        Graph g = seedGraph();
        StreamingGraph engine(g);
        engine.enableDurability(traceDir.string(), crashOptions());
        churn(engine, nullptr);
    }
    fault::captureSites(false);
    const auto trace = fault::sites();
    fault::clearConfiguration();
    fs::remove_all(traceDir);

    ASSERT_FALSE(trace.empty());
    std::set<std::string> traced;
    for (const auto& [site, hits] : trace) traced.insert(site);
    // The commit path must exercise at least these (a silently removed
    // fault point would shrink the harness without failing it).
    for (const char* site :
         {"checkpoint.open", "checkpoint.write", "checkpoint.fsync",
          "checkpoint.rename", "checkpoint.dirsync", "wal.create.open",
          "wal.create.write", "wal.write", "wal.append.write",
          "wal.append.fsync", "engine.publish"}) {
        EXPECT_TRUE(traced.count(site) > 0)
            << "fault point " << site
            << " was not hit by the canonical durable run";
    }

    // 2. The never-crashed oracle: CSR arrays of every generation.
    std::map<std::uint64_t, CsrState> oracle;
    {
        Graph g = seedGraph();
        StreamingGraph engine(g);
        churn(engine, &oracle);
    }

    // 3. Kill a child at {first, middle, last} hit of every site, then
    //    recover and compare against the oracle at the recovered
    //    generation.
    for (const auto& [site, hits] : trace) {
        std::set<std::uint64_t> killAt = {1, (hits + 1) / 2, hits};
        for (const std::uint64_t n : killAt) {
            SCOPED_TRACE(site + ":" + std::to_string(n) + " of " +
                         std::to_string(hits));
            const fs::path dir = makeTempDir("grapr_crash");
            const ChildResult child = runCrashChild(
                dir.string(), site + ":" + std::to_string(n) + ":kill");
            ASSERT_TRUE(child.spawned);
            ASSERT_FALSE(child.signalled)
                << "child died of signal " << child.signal;
            ASSERT_EQ(child.exitCode, fault::kKilledExitCode)
                << "the armed fault did not fire in the child";

            try {
                StreamingGraph recovered(dir.string(), crashOptions());
                const SnapshotPtr snap = recovered.pin();
                const auto it = oracle.find(snap->generation);
                ASSERT_NE(it, oracle.end())
                    << "recovered generation " << snap->generation
                    << " is not a state the oracle ever published";
                expectMatchesState(snap->graph, it->second);
                // The recovered engine is live: it accepts new commits.
                EXPECT_FALSE(recovered.failed());
                recovered.apply(
                    crashWorkload().batch(1000, snap->graph),
                    StreamApplyMode::Permissive);
            } catch (const io::IoError& e) {
                // Only legitimate when the kill predates the very first
                // durable state (no checkpoint ever renamed into place).
                EXPECT_FALSE(hasCheckpointFile(dir))
                    << "recovery failed with a checkpoint present: "
                    << e.what();
            }
            fs::remove_all(dir);
        }
    }
#endif
}

// Crash during recovery itself (re-checkpointing is part of recovery):
// a second recovery still lands on the same oracle state.
TEST(CrashRecovery, KillDuringRecoveryIsRecoverable) {
#if !GRAPR_CAN_REEXEC
    GTEST_SKIP() << "re-exec harness needs fork + /proc/self/exe";
#else
    FaultGuard guard;
    std::map<std::uint64_t, CsrState> oracle;
    {
        Graph g = seedGraph();
        StreamingGraph engine(g);
        churn(engine, &oracle);
    }

    const fs::path dir = makeTempDir("grapr_rec_crash");
    // First child: killed mid-run (leaves a checkpoint + WAL tail).
    const ChildResult first =
        runCrashChild(dir.string(), "wal.append.fsync:15:kill");
    ASSERT_TRUE(first.spawned);
    ASSERT_EQ(first.exitCode, fault::kKilledExitCode);

    // Second process: killed while its *recovery* rewrites the
    // checkpoint (recovery re-checkpoints as step 3).
    const ChildResult second = runCrashChild(
        dir.string(), "checkpoint.fsync:1:kill", "GRAPR_RECOVER_DIR");
    ASSERT_TRUE(second.spawned);
    ASSERT_FALSE(second.signalled);
    ASSERT_EQ(second.exitCode, fault::kKilledExitCode)
        << "recovery did not reach its re-checkpoint fsync";

    // The directory survived a crash *during recovery*: recover again.
    StreamingGraph recovered(dir.string(), crashOptions());
    const SnapshotPtr snap = recovered.pin();
    const auto it = oracle.find(snap->generation);
    ASSERT_NE(it, oracle.end());
    expectMatchesState(snap->graph, it->second);

    fs::remove_all(dir);
#endif
}

#endif // GRAPR_FAULT_INJECTION

} // namespace

int main(int argc, char** argv) {
    if (const char* dir = std::getenv("GRAPR_RECOVER_DIR")) {
        return runRecoverFixture(dir);
    }
    if (const char* dir = std::getenv("GRAPR_CRASH_DIR")) {
        return runCrashFixture(dir);
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
