#include "graph/stream_engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <system_error>
#include <tuple>
#include <unordered_map>
#include <utility>

#include <omp.h>

#include "graph/wal.hpp"
#include "io/binary_csr.hpp"
#include "io/io_error.hpp"
#include "structures/delta_csr.hpp"
#include "support/fault.hpp"
#include "support/parallel.hpp"

namespace grapr {

namespace {

/// Canonical key of undirected edge {u, v}: (min << 32) | max.
inline std::uint64_t edgeKey(node a, node b) noexcept {
    return (static_cast<std::uint64_t>(a) << 32) | b;
}

/// Per-edge replay state while normalizing a batch: the edge's presence
/// and weight in the frozen base, and its evolving state as the batch's
/// ops are applied in order.
struct EdgeReplay {
    bool basePresent = false;
    edgeweight baseWeight = 0.0;
    bool present = false;
    edgeweight weight = 0.0;
};

using ReplayMap = std::unordered_map<std::uint64_t, EdgeReplay>;

/// Larger endpoint of a canonical edge key.
inline node keyHigh(std::uint64_t key) noexcept {
    return static_cast<node>(key & 0xffffffffu);
}

/// A net half-edge effect, canonicalized (a <= b).
struct NetEdge {
    node a;
    node b;
    edgeweight w;
};

/// Step 1 of a batch — normalize: run the batch's ops in order over
/// `replay`. An edge met for the first time is seeded with its state
/// before the batch, `seed(a, b)` (its weight, or nullopt when absent),
/// so Strict validity follows the evolving state, not just the base.
/// On a weighted engine an insert's weight must be finite and
/// non-negative, in both modes. Returns the number of ops Permissive mode
/// ignored.
template <class Seed>
count normalizeOps(const EdgeBatch& batch, StreamApplyMode mode,
                   bool weighted, ReplayMap& replay, const Seed& seed) {
    count ignored = 0;
    for (const EdgeOp& op : batch.ops()) {
        require(op.u != none && op.v != none,
                "StreamingGraph::apply: op names the `none` sentinel node");
        require(!weighted || op.kind != EdgeOp::Kind::Insert ||
                    (std::isfinite(op.w) && op.w >= 0.0),
                "StreamingGraph::apply: insert weight is NaN, infinite or "
                "negative");
        const node a = std::min(op.u, op.v);
        const node b = std::max(op.u, op.v);
        auto [it, fresh] = replay.try_emplace(edgeKey(a, b));
        EdgeReplay& s = it->second;
        if (fresh) {
            const std::optional<edgeweight> w = seed(a, b);
            s.basePresent = w.has_value();
            s.baseWeight = w.value_or(0.0);
            s.present = s.basePresent;
            s.weight = s.baseWeight;
        }
        if (op.kind == EdgeOp::Kind::Insert) {
            if (s.present) {
                require(mode == StreamApplyMode::Permissive,
                        "StreamingGraph::apply: insert of an existing edge "
                        "(Strict mode)");
                ++ignored;
            } else {
                s.present = true;
                s.weight = weighted ? op.w : 1.0;
            }
        } else {
            if (!s.present) {
                require(mode == StreamApplyMode::Permissive,
                        "StreamingGraph::apply: delete of a missing edge "
                        "(Strict mode)");
                ++ignored;
            } else {
                s.present = false;
            }
        }
    }
    return ignored;
}

/// What an edge's replay did to it, relative to its seeded state.
enum class NetChange : std::uint8_t { None, Insert, Delete, Reweight };

/// `apply` treats weights that compare equal as unchanged (so +0.0 ->
/// -0.0 is no change); the recovery fold compares bit patterns instead
/// (see foldWalTail).
inline bool equalWeights(edgeweight x, edgeweight y) { return x == y; }
inline bool sameWeightBits(edgeweight x, edgeweight y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
}

template <class SameWeight>
NetChange netChange(const EdgeReplay& s, const SameWeight& sameWeight) {
    if (s.basePresent != s.present) {
        return s.present ? NetChange::Insert : NetChange::Delete;
    }
    if (s.present && !sameWeight(s.weight, s.baseWeight)) {
        return NetChange::Reweight;
    }
    return NetChange::None;
}

/// Net per-edge effects, each list sorted by endpoints. A reweight
/// contributes to both lists; the weight of a delete is the base weight.
struct NetLists {
    std::vector<NetEdge> ins;
    std::vector<NetEdge> del;
    count reweighted = 0;

    bool empty() const noexcept { return ins.empty() && del.empty(); }
};

/// Step 2 — reduce the replay state to net, deterministically ordered
/// effects.
template <class SameWeight>
NetLists reduceNet(const ReplayMap& replay, const SameWeight& sameWeight) {
    NetLists net;
    for (const auto& [key, s] : replay) {
        const auto a = static_cast<node>(key >> 32);
        const node b = keyHigh(key);
        switch (netChange(s, sameWeight)) {
        case NetChange::Delete:
            net.del.push_back({a, b, s.baseWeight});
            break;
        case NetChange::Insert:
            net.ins.push_back({a, b, s.weight});
            break;
        case NetChange::Reweight:
            net.del.push_back({a, b, s.baseWeight});
            net.ins.push_back({a, b, s.weight});
            ++net.reweighted;
            break;
        case NetChange::None:
            break;
        }
    }
    const auto byEndpoints = [](const NetEdge& x, const NetEdge& y) {
        return std::tie(x.a, x.b) < std::tie(y.a, y.b);
    };
    std::sort(net.ins.begin(), net.ins.end(), byEndpoints);
    std::sort(net.del.begin(), net.del.end(), byEndpoints);
    return net;
}

/// Endpoints of every net edge, sorted ascending, deduplicated.
std::vector<node> touchedEndpoints(const NetLists& net) {
    std::vector<node> touched;
    touched.reserve(2 * (net.ins.size() + net.del.size()));
    for (const std::vector<NetEdge>* list : {&net.ins, &net.del}) {
        for (const NetEdge& e : *list) {
            touched.push_back(e.a);
            touched.push_back(e.b);
        }
    }
    std::sort(touched.begin(), touched.end());
    touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
    return touched;
}

/// Step 3 — scatter the net effects into per-row delta lists for a
/// generation with node-id bound `newBound`.
CsrDelta scatterDelta(const NetLists& net, const std::vector<node>& touched,
                      count newBound, bool weighted) {
    CsrDelta delta;
    delta.newBound = newBound;
    std::vector<count> insCnt(newBound, 0);
    std::vector<count> delCnt(newBound, 0);
    for (const NetEdge& e : net.ins) {
        ++insCnt[e.a];
        if (e.b != e.a) ++insCnt[e.b];
    }
    for (const NetEdge& e : net.del) {
        ++delCnt[e.a];
        if (e.b != e.a) ++delCnt[e.b];
    }
    const count insTotal = Parallel::prefixSum(insCnt);
    const count delTotal = Parallel::prefixSum(delCnt);
    delta.insOffsets.assign(newBound + 1, 0);
    delta.delOffsets.assign(newBound + 1, 0);
    for (node v = 0; v < newBound; ++v) {
        delta.insOffsets[v] = insCnt[v];
        delta.delOffsets[v] = delCnt[v];
    }
    delta.insOffsets[newBound] = insTotal;
    delta.delOffsets[newBound] = delTotal;
    delta.insTargets.resize(insTotal);
    delta.insWeights.resize(weighted ? insTotal : 0);
    delta.delTargets.resize(delTotal);

    std::vector<index> insCursor(delta.insOffsets.begin(),
                                 delta.insOffsets.end() - 1);
    std::vector<index> delCursor(delta.delOffsets.begin(),
                                 delta.delOffsets.end() - 1);
    const auto scatterIns = [&](node row, node target, edgeweight w) {
        const index pos = insCursor[row]++;
        delta.insTargets[pos] = target;
        if (weighted) delta.insWeights[pos] = w;
    };
    for (const NetEdge& e : net.ins) {
        scatterIns(e.a, e.b, e.w);
        if (e.b != e.a) scatterIns(e.b, e.a, e.w);
    }
    for (const NetEdge& e : net.del) {
        delta.delTargets[delCursor[e.a]++] = e.b;
        if (e.b != e.a) delta.delTargets[delCursor[e.b]++] = e.a;
    }
    // Net edges were scattered in (a, b) order, so row-a slices are already
    // sorted; the b-side back-edges are not. Sort every touched row slice.
    for (const node v : touched) {
        const auto insLo = static_cast<std::ptrdiff_t>(delta.insOffsets[v]);
        const auto insHi =
            static_cast<std::ptrdiff_t>(delta.insOffsets[v + 1]);
        if (weighted) {
            // Keep targets and weights aligned: sort an index permutation.
            std::vector<std::pair<node, edgeweight>> row;
            row.reserve(static_cast<std::size_t>(insHi - insLo));
            for (std::ptrdiff_t i = insLo; i < insHi; ++i) {
                row.emplace_back(delta.insTargets[static_cast<index>(i)],
                                 delta.insWeights[static_cast<index>(i)]);
            }
            std::sort(row.begin(), row.end());
            for (std::ptrdiff_t i = insLo; i < insHi; ++i) {
                const auto& [t, w] = row[static_cast<std::size_t>(i - insLo)];
                delta.insTargets[static_cast<index>(i)] = t;
                delta.insWeights[static_cast<index>(i)] = w;
            }
        } else {
            std::sort(delta.insTargets.begin() + insLo,
                      delta.insTargets.begin() + insHi);
        }
        std::sort(delta.delTargets.begin() +
                      static_cast<std::ptrdiff_t>(delta.delOffsets[v]),
                  delta.delTargets.begin() +
                      static_cast<std::ptrdiff_t>(delta.delOffsets[v + 1]));
    }
    return delta;
}

/// Recovery's replay of a WAL tail as ONE net batch and one delta merge:
/// the arrays that Strict `apply` of each record in turn to `base`
/// (generation `baseGeneration`) would publish, bit for bit, and the same
/// error on the same record (DESIGN.md "Recovery"). Each record is
/// normalized against the state its predecessors left and must have a
/// net effect. A change is carried only when `apply` would publish it
/// (`==` weights, so a record-local +0.0 -> -0.0 keeps the old bits); the
/// final reduce against the base compares bits, since the carried weight
/// is what the last record stored. The bound grows with every record's
/// net edges, even ones a later record deletes.
CsrGraph foldWalTail(const CsrGraph& base,
                     const std::vector<wal::WalRecord>& records,
                     std::uint64_t baseGeneration, bool weighted) {
    ReplayMap folded; // base -> current state of every edge changed so far
    ReplayMap step;   // one record's replay against its predecessor state
    const auto seedFromFold =
        [&](node a, node b) -> std::optional<edgeweight> {
        const auto it = folded.find(edgeKey(a, b));
        if (it == folded.end()) return csrEdgeWeight(base, a, b);
        if (!it->second.present) return std::nullopt;
        return it->second.weight;
    };
    count newBound = base.upperNodeIdBound();
    std::uint64_t generation = baseGeneration;
    for (const wal::WalRecord& record : records) {
        step.clear();
        normalizeOps(record.batch, StreamApplyMode::Strict, weighted, step,
                     seedFromFold);
        bool changed = false;
        for (const auto& [key, s] : step) {
            if (netChange(s, equalWeights) == NetChange::None) continue;
            changed = true;
            newBound = std::max(newBound, static_cast<count>(keyHigh(key)) + 1);
            // First change of this edge: `s` was seeded from the base, so
            // its base fields are the fold's base fields too.
            EdgeReplay& carried = folded.try_emplace(key, s).first->second;
            carried.present = s.present;
            carried.weight = s.weight;
        }
        if (changed) ++generation;
        require(changed && record.generation == generation,
                "recover: WAL replay diverged from the logged generation "
                "sequence");
    }

    const NetLists net = reduceNet(folded, sameWeightBits);
    return applyDelta(base,
                      scatterDelta(net, touchedEndpoints(net), newBound,
                                   weighted),
                      weighted);
}

/// Re-wrap a frozen CsrGraph's arrays so the stored snapshot has a
/// disengaged view stamp: a snapshot outlives the Graph it may have been
/// frozen from, and never goes stale (see stream_engine.hpp).
CsrGraph rewrapDisengaged(const CsrGraph& frozen, bool weighted) {
    return CsrGraph(frozen.offsets(), frozen.neighborArray(),
                    frozen.weightArray(), weighted);
}

void requireSortedRows(const CsrGraph& g) {
    const std::vector<index>& offsets = g.offsets();
    const std::vector<node>& neighbors = g.neighborArray();
    const auto bound = static_cast<std::int64_t>(g.upperNodeIdBound());
    std::atomic<bool> unsorted{false};
#pragma omp parallel for default(none)                                       \
    shared(offsets, neighbors, bound, unsorted) schedule(static)
    for (std::int64_t sv = 0; sv < bound; ++sv) {
        const auto v = static_cast<node>(sv);
        for (index i = offsets[v] + 1; i < offsets[v + 1]; ++i) {
            if (neighbors[i - 1] >= neighbors[i]) {
                unsorted.store(true, std::memory_order_relaxed);
            }
        }
    }
    require(!unsorted.load(),
            "StreamingGraph: initial snapshot rows must be sorted "
            "strictly ascending, without duplicate entries (a repeated "
            "edge); build the engine from a Graph to collapse them");
}

/// The initial snapshot of a Graph: every row sorted ascending with its
/// duplicate entries (a repeated edge) collapsed to the first. The sort is
/// stable, so the survivor is the first instance in row order; addEdge
/// appends each instance to both endpoint rows at once, so both rows keep
/// the same weight. Returned through the raw-array constructor, so the
/// snapshot's view stamp is disengaged.
CsrGraph sortedUniqueRows(const CsrGraph& frozen, bool weighted) {
    const std::vector<index>& offsets = frozen.offsets();
    std::vector<node> neighbors = frozen.neighborArray();
    std::vector<edgeweight> weights = frozen.weightArray();
    const count bound = frozen.upperNodeIdBound();
    // Entries each row keeps, then (prefix-summed in place) packed offsets.
    std::vector<count> kept(bound + 1, 0);
    const auto sbound = static_cast<std::int64_t>(bound);
#pragma omp parallel for default(none)                                       \
    shared(offsets, neighbors, weights, kept, weighted, sbound)              \
    schedule(guided)
    for (std::int64_t sv = 0; sv < sbound; ++sv) {
        const auto v = static_cast<std::size_t>(sv);
        const index lo = offsets[v];
        const index hi = offsets[v + 1];
        std::vector<std::pair<node, edgeweight>> row;
        row.reserve(hi - lo);
        for (index i = lo; i < hi; ++i) {
            row.emplace_back(neighbors[i], weighted ? weights[i] : 1.0);
        }
        const auto sameNeighbor = [](const auto& a, const auto& b) {
            return a.first == b.first;
        };
        std::stable_sort(row.begin(), row.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        row.erase(std::unique(row.begin(), row.end(), sameNeighbor),
                  row.end());
        for (std::size_t i = 0; i < row.size(); ++i) {
            // grapr:analyze-allow(shared-write-safety): lo + i stays inside
            // row v's slice [lo, hi), owned by this iteration — a slice
            // offset is beyond the derived-index rule.
            neighbors[lo + i] = row[i].first;
            // grapr:analyze-allow(shared-write-safety): the same slice.
            if (weighted) weights[lo + i] = row[i].second;
        }
        kept[v] = row.size();
    }
    const count total = Parallel::prefixSum(kept);
    if (total == neighbors.size()) {
        return CsrGraph(offsets, std::move(neighbors), std::move(weights),
                        weighted);
    }
    std::vector<node> packedNeighbors(total);
    std::vector<edgeweight> packedWeights(weighted ? total : 0);
#pragma omp parallel for default(none)                                       \
    shared(offsets, neighbors, weights, kept, packedNeighbors,               \
               packedWeights, weighted, sbound) schedule(guided)
    for (std::int64_t sv = 0; sv < sbound; ++sv) {
        const auto v = static_cast<std::size_t>(sv);
        const index to = kept[v];
        for (index i = 0; i < kept[v + 1] - to; ++i) {
            // grapr:analyze-allow(shared-write-safety): [to, kept[v + 1])
            // is row v's slice of the packed arrays, written by this
            // iteration only.
            packedNeighbors[to + i] = neighbors[offsets[v] + i];
            // grapr:analyze-allow(shared-write-safety): the same slice.
            if (weighted) packedWeights[to + i] = weights[offsets[v] + i];
        }
    }
    return CsrGraph(std::move(kept), std::move(packedNeighbors),
                    std::move(packedWeights), weighted);
}

// --- durable-directory layout ---------------------------------------------
// dir/checkpoint-<gen, zero-padded to 20 digits>.gcsr
// dir/wal-<gen>.gwal   (records replaying against checkpoint <gen>)

std::string paddedGeneration(std::uint64_t generation) {
    std::string digits = std::to_string(generation);
    return std::string(20 - digits.size(), '0') + digits;
}

std::string checkpointPath(const std::string& dir, std::uint64_t generation) {
    return dir + "/checkpoint-" + paddedGeneration(generation) + ".gcsr";
}

std::string walSegmentPath(const std::string& dir, std::uint64_t generation) {
    return dir + "/wal-" + paddedGeneration(generation) + ".gwal";
}

/// Parse "<prefix><digits><suffix>" file names; nullopt on anything else.
std::optional<std::uint64_t> parseTaggedName(const std::string& name,
                                             const std::string& prefix,
                                             const std::string& suffix) {
    if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
    if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
    if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) !=
        0) {
        return std::nullopt;
    }
    const std::string digits = name.substr(
        prefix.size(), name.size() - prefix.size() - suffix.size());
    std::uint64_t generation = 0;
    for (const char c : digits) {
        if (std::isdigit(static_cast<unsigned char>(c)) == 0) {
            return std::nullopt;
        }
        generation = generation * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return generation;
}

/// Checkpoints in `dir`, newest generation first.
std::vector<std::pair<std::uint64_t, std::string>>
listCheckpoints(const std::string& dir) {
    namespace fs = std::filesystem;
    std::vector<std::pair<std::uint64_t, std::string>> out;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) {
        throw io::IoError(dir, 0, 0,
                          "recover: cannot list durable directory: " +
                              ec.message());
    }
    for (const fs::directory_entry& entry : it) {
        const std::string name = entry.path().filename().string();
        if (const auto generation =
                parseTaggedName(name, "checkpoint-", ".gcsr")) {
            out.emplace_back(*generation, entry.path().string());
        }
    }
    std::sort(out.begin(), out.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    return out;
}

/// Best-effort removal of everything superseded by checkpoint
/// `keepGeneration` (older checkpoints/segments, stray temp files).
void pruneDurableDir(const std::string& dir, std::uint64_t keepGeneration) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return;
    for (const fs::directory_entry& entry : it) {
        const std::string name = entry.path().filename().string();
        bool stale = name.size() > 4 &&
                     name.compare(name.size() - 4, 4, ".tmp") == 0;
        if (const auto g = parseTaggedName(name, "checkpoint-", ".gcsr")) {
            stale = *g < keepGeneration;
        } else if (const auto g = parseTaggedName(name, "wal-", ".gwal")) {
            stale = *g < keepGeneration;
        }
        if (stale) {
            std::error_code removeEc;
            fs::remove(entry.path(), removeEc);
        }
    }
}

} // namespace

/// Durable-mode state: the directory, the open WAL segment, and the
/// record count since the last checkpoint (drives rotation).
struct StreamingGraph::Durability {
    std::string dir;
    DurabilityOptions options;
    wal::WalWriter wal;
    count sinceCheckpoint = 0;
};

std::optional<edgeweight> csrEdgeWeight(const CsrGraph& g, node u, node v) {
    const count bound = g.upperNodeIdBound();
    if (u >= bound || v >= bound) return std::nullopt;
    if (g.degree(v) < g.degree(u)) std::swap(u, v); // search the short row
    const std::vector<index>& offsets = g.offsets();
    const std::vector<node>& neighbors = g.neighborArray();
    const auto first =
        neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u]);
    const auto last =
        neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[u + 1]);
    const auto it = std::lower_bound(first, last, v);
    if (it == last || *it != v) return std::nullopt;
    if (!g.isWeighted()) return 1.0;
    return g.weightArray()[static_cast<std::size_t>(it - neighbors.begin())];
}

StreamingGraph::StreamingGraph(const Graph& initial)
    : weighted_(initial.isWeighted()) {
    // Sorting works on a frozen copy: `initial` is not mutated, so views
    // the caller froze from it stay valid.
    auto snap = std::make_shared<StreamSnapshot>();
    snap->generation = 0;
    snap->graph = sortedUniqueRows(CsrGraph(initial), weighted_);
    head_ = std::move(snap);
}

StreamingGraph::StreamingGraph(CsrGraph initial)
    : weighted_(initial.isWeighted()) {
    requireSortedRows(initial);
    auto snap = std::make_shared<StreamSnapshot>();
    snap->generation = 0;
    snap->graph = rewrapDisengaged(initial, weighted_);
    head_ = std::move(snap);
}

StreamingGraph::StreamingGraph(const std::string& dir,
                               DurabilityOptions options) {
    // 1. Newest checkpoint that validates (older ones are the fallback
    //    when the newest is damaged — e.g. bit rot after a clean rename).
    const auto checkpoints = listCheckpoints(dir);
    if (checkpoints.empty()) {
        throw io::IoError(dir, 0, 0,
                          "recover: no checkpoint in durable directory");
    }
    std::optional<io::BinaryCsrSnapshot> loaded;
    std::string lastError;
    for (const auto& [generation, path] : checkpoints) {
        try {
            loaded = io::readBinaryCsr(path);
            break;
        } catch (const io::IoError& e) {
            lastError = e.what();
        }
    }
    if (!loaded) {
        throw io::IoError(dir, 0, 0,
                          "recover: no checkpoint validates (last error: " +
                              lastError + ")");
    }
    weighted_ = loaded->graph.isWeighted();
    requireSortedRows(loaded->graph);
    auto snap = std::make_shared<StreamSnapshot>();
    snap->generation = loaded->generation;
    snap->graph = rewrapDisengaged(loaded->graph, weighted_);

    // 2. Replay the matching WAL tail in Strict mode, folded into one net
    //    batch and one merge (foldWalTail): the result is bit for bit the
    //    last logged generation, and every record is still checked
    //    against its predecessor state. A torn trailing record (crash
    //    mid-append) is truncated at the first CRC/length mismatch, never
    //    misparsed. A segment whose HEADER is torn means the crash hit
    //    segment creation — nothing was ever acknowledged through it, so
    //    the checkpoint alone is the recovered state.
    const std::string segment = walSegmentPath(dir, loaded->generation);
    std::error_code existsEc;
    if (std::filesystem::exists(segment, existsEc)) {
        wal::ReplayResult tail;
        bool headerValid = true;
        try {
            tail = wal::replay(segment, /*truncateTorn=*/true);
        } catch (const io::IoError&) {
            headerValid = false;
        }
        if (headerValid && !tail.records.empty()) {
            require(tail.baseGeneration == loaded->generation,
                    "recover: WAL segment does not match its checkpoint "
                    "generation");
            snap->graph = foldWalTail(snap->graph, tail.records,
                                      snap->generation, weighted_);
            snap->generation = tail.records.back().generation;
        }
    }
    // Installed, not published: no reader can hold this engine yet.
    head_ = std::move(snap);

    // 3. Make the recovered state the new durable base: fresh checkpoint,
    //    fresh segment, superseded files pruned. Bounds the next
    //    recovery's replay and makes recovery idempotent.
    enableDurability(dir, options);
}

StreamingGraph::~StreamingGraph() = default;

void StreamingGraph::enableDurability(const std::string& dir,
                                      DurabilityOptions options) {
    std::lock_guard<std::mutex> writerLock(writerMutex_);
    require(durable_ == nullptr,
            "StreamingGraph::enableDurability: already durable");
    if (poisoned_) {
        fail("StreamingGraph::enableDurability: engine is poisoned (" +
             poisonReason_ + ")");
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        throw io::IoError(dir, 0, 0,
                          "cannot create durable directory: " + ec.message());
    }
    auto durable = std::make_unique<Durability>();
    durable->dir = dir;
    durable->options = options;
    if (durable->options.groupCommit == 0) durable->options.groupCommit = 1;
    if (durable->options.checkpointInterval == 0) {
        durable->options.checkpointInterval = 1;
    }
    durable_ = std::move(durable);
    try {
        checkpointNow();
    } catch (...) {
        durable_.reset(); // never half-durable: the caller may retry
        throw;
    }
}

void StreamingGraph::checkpoint() {
    std::lock_guard<std::mutex> writerLock(writerMutex_);
    require(durable_ != nullptr,
            "StreamingGraph::checkpoint: enable durability first");
    if (poisoned_) {
        fail("StreamingGraph::checkpoint: engine is poisoned (" +
             poisonReason_ + ")");
    }
    checkpointNow();
}

void StreamingGraph::checkpointNow() {
    const SnapshotPtr snap = pin();
    io::writeBinaryCsr(snap->graph, snap->generation,
                       checkpointPath(durable_->dir, snap->generation));
    // Rotate only after the checkpoint is durable; if opening the new
    // segment fails, the old writer (and the old checkpoint) are intact.
    wal::WalWriter next(walSegmentPath(durable_->dir, snap->generation),
                        snap->generation, durable_->options.groupCommit);
    durable_->wal = std::move(next); // closes the superseded segment
    durable_->sinceCheckpoint = 0;
    pruneDurableDir(durable_->dir, snap->generation);
}

void StreamingGraph::maybeCheckpoint() {
    if (durable_ == nullptr ||
        durable_->sinceCheckpoint < durable_->options.checkpointInterval) {
        return;
    }
    try {
        checkpointNow();
    } catch (const std::exception&) {
        // Contained: the batch that triggered rotation is already
        // committed AND logged — the previous checkpoint plus the full
        // segment still recover it. Rotation is retried on the next
        // apply() (sinceCheckpoint keeps counting). Explicit
        // checkpoint() calls do rethrow.
    }
}

void StreamingGraph::poison(const std::string& reason) {
    poisoned_ = true;
    poisonReason_ = reason;
}

void StreamingGraph::appendToWal(const EdgeBatch& net,
                                 std::uint64_t generation) {
    try {
        durable_->wal.append(net, generation);
    } catch (...) {
        if (durable_->wal.poisoned()) {
            poison("WAL rollback failed; the on-disk log tail is unknown");
        }
        throw;
    }
    ++durable_->sinceCheckpoint;
}

std::uint64_t StreamingGraph::generation() const {
    return pin()->generation;
}

SnapshotPtr StreamingGraph::pin() const {
    std::lock_guard<std::mutex> lock(headMutex_);
    return head_;
}

void StreamingGraph::publish(SnapshotPtr next) {
    std::lock_guard<std::mutex> lock(headMutex_);
    head_ = std::move(next);
}

BatchResult StreamingGraph::apply(const EdgeBatch& batch,
                                  StreamApplyMode mode) {
    std::lock_guard<std::mutex> writerLock(writerMutex_);
    if (poisoned_) {
        fail("StreamingGraph::apply: engine is poisoned after a failed "
             "commit (" + poisonReason_ + "); recover from the durable "
             "directory or start a fresh engine");
    }
    const SnapshotPtr base = pin();
    const CsrGraph& g = base->graph;
    const count oldBound = g.upperNodeIdBound();

    BatchResult result;
    result.generation = base->generation;

    // --- replay the batch in order against the frozen base ---------------
    // Per-edge state lets remove-then-insert in one batch express a
    // reweight, and makes Strict-mode validity depend on the evolving
    // batch state, not just the base graph.
    ReplayMap replay;
    replay.reserve(batch.size());
    result.ignored = normalizeOps(
        batch, mode, weighted_, replay,
        [&g](node a, node b) { return csrEdgeWeight(g, a, b); });

    // --- reduce to net per-edge effects, deterministically ordered -------
    const NetLists net = reduceNet(replay, equalWeights);
    if (net.empty()) {
        return result; // no net effect: nothing published
    }
    result.reweighted = net.reweighted;
    result.inserted = net.ins.size() - net.reweighted;
    result.removed = net.del.size() - net.reweighted;

    // Inverse batch: removes of the net inserts first, then re-inserts of
    // the net deletes at their observed base weight. Removes go first so a
    // reweighted edge is strictly-valid to undo (remove new, insert old).
    for (const NetEdge& e : net.ins) result.inverse.remove(e.a, e.b);
    for (const NetEdge& e : net.del) result.inverse.insert(e.a, e.b, e.w);

    // Touched frontier + node-id bound of the next generation (touched is
    // sorted, so its last entry is the largest net endpoint).
    result.touched = touchedEndpoints(net);
    const count newBound =
        std::max(oldBound, static_cast<count>(result.touched.back()) + 1);

    // --- scatter into per-row deltas, assemble generation N+1 in parallel,
    // then log, then publish. Readers keep serving `base` throughout:
    // applyDelta only reads it.
    CsrGraph next = applyDelta(
        g, scatterDelta(net, result.touched, newBound, weighted_), weighted_);
    auto snap = std::make_shared<StreamSnapshot>();
    snap->generation = base->generation + 1;
    snap->graph = std::move(next);
    result.generation = snap->generation;

    if (durable_ != nullptr) {
        // WAL-first: the NET batch (removes, then inserts — replayable
        // in Strict mode against the base snapshot) must be durable
        // before the generation becomes visible. A failed append rolls
        // the log back and leaves the engine on `base` (strong
        // guarantee); a failed rollback poisons the engine instead.
        EdgeBatch logged;
        for (const NetEdge& e : net.del) logged.remove(e.a, e.b);
        for (const NetEdge& e : net.ins) logged.insert(e.a, e.b, e.w);
        appendToWal(logged, snap->generation);
    }
    try {
        GRAPR_FAULT_POINT("engine.publish");
        publish(std::move(snap));
    } catch (...) {
        // Past the WAL fsync the commit may no longer fail softly: the
        // log has the record, memory does not. Poison; recovery replays
        // the logged batch into the consistent state.
        poison("commit interrupted between WAL append and publish");
        throw;
    }
    maybeCheckpoint();
    return result;
}

// --- GraphLog ------------------------------------------------------------

BatchResult GraphLog::commit(StreamApplyMode mode) {
    BatchResult result = graph_->apply(pending_, mode);
    pending_.clear();
    undo_.push_back(result.inverse);
    return result;
}

BatchResult GraphLog::apply(const EdgeBatch& batch, StreamApplyMode mode) {
    BatchResult result = graph_->apply(batch, mode);
    undo_.push_back(result.inverse);
    return result;
}

BatchResult GraphLog::undo() {
    require(!undo_.empty(), "GraphLog::undo: nothing to undo");
    const EdgeBatch inverse = std::move(undo_.back());
    undo_.pop_back();
    return graph_->apply(inverse, StreamApplyMode::Strict);
}

} // namespace grapr
