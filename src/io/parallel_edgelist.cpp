#include "io/parallel_edgelist.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <unordered_map>
#include <utility>

#include <omp.h>

#include "io/io_error.hpp"
#include "io/mapped_file.hpp"
#include "io/text_scanner.hpp"
#include "support/logging.hpp"
#include "support/parallel.hpp"

namespace grapr::io {

namespace {

/// One parsed edge as the assembly reads it: both endpoints already in
/// the 32-bit id space, 8 bytes. On weighted input its weight sits at the
/// same position of the chunk's weight array.
struct StagedEdge {
    node u;
    node v;
};

/// First error seen by one chunk; the chunk stops parsing once set, and
/// the post-parallel sweep reports the error of the earliest chunk —
/// which is the first malformed line in file order, independent of the
/// chunk count.
struct ChunkError {
    bool set = false;
    std::size_t offset = 0;
    const char* message = nullptr;

    void record(std::size_t off, const char* msg) {
        if (set) return;
        set = true;
        offset = off;
        message = msg;
    }
};

/// First-appearance numbering of raw 64-bit ids: 0, 1, 2, … in the order
/// idOf first sees them. Each chunk numbers its own ids while it parses;
/// the merge numbers the chunks' id lists in file order.
struct IdNumbering {
    std::unordered_map<std::uint64_t, node> number;
    std::vector<std::uint64_t> raws; // raws[k] was numbered k

    /// The number of `raw`; `none` once the 32-bit id space is full.
    node idOf(std::uint64_t raw) {
        const auto next = static_cast<node>(
            std::min(raws.size(), static_cast<std::size_t>(none)));
        const auto [it, inserted] = number.try_emplace(raw, next);
        if (inserted && next != none) raws.push_back(raw);
        return it->second;
    }
};

/// How a parse turns raw ids into node ids.
enum class IdMode {
    Declared, // a header bounds the ids: used as they are
    Remapped, // first-appearance numbering, per chunk, merged afterwards
    Direct,   // used as they are, n = max id + 1
};

/// One chunk's parse state, written by one thread; cache-line aligned so
/// that no two threads' per-edge writes share a line.
struct alignas(64) EdgeChunk {
    std::vector<StagedEdge> edges;
    std::vector<edgeweight> edgeWeights; // parallel to edges; weighted only
    IdNumbering ids;                 // IdMode::Remapped: this chunk's raw ids
    ChunkError error;
    count skipped = 0; // permissive-mode dropped lines
    node maxId = 0;    // IdMode::Direct: the largest staged id
    // An id (Direct) or this chunk's distinct ids (Remapped) left the
    // 32-bit id space; the chunk stages nothing more but keeps parsing,
    // so a malformed line further on is still the error reported.
    bool idSpaceExceeded = false;
};

/// What parsing leaves for assembly: the staged chunks and the node ids.
struct StagedEdges {
    std::vector<EdgeChunk> chunks;
    count n = 0;
    std::vector<std::uint64_t> rawIds; // raw id of every node; empty: v is v
};

struct CsrArrays {
    std::vector<index> offsets;
    std::vector<node> neighbors;
    std::vector<edgeweight> weights;
};

int resolveThreads(const ParseOptions& options) {
    return options.threads > 0 ? options.threads : omp_get_max_threads();
}

constexpr char kHeaderMarker[] = "grapr edge list: n=";

/// Scan the leading comment/blank block for the writeEdgeList header that
/// pins the node count (so isolated nodes and raw ids survive the round
/// trip). Runs before the parallel phase so every chunk can validate ids
/// against the declared bound.
bool scanDeclaredN(const char* data, const char* end, char comment,
                   std::uint64_t& declaredN) {
    const std::size_t markerLen = std::strlen(kHeaderMarker);
    const char* p = data;
    while (p < end) {
        const char* lineEnd = scan::findLineEnd(p, end);
        if (!scan::isCommentOrBlank(p, lineEnd, comment)) return false;
        const char* found =
            std::search(p, lineEnd, kHeaderMarker, kHeaderMarker + markerLen);
        if (found != lineEnd) {
            const char* q = found + markerLen;
            if (scan::parseU64(q, lineEnd, declaredN)) return true;
        }
        p = lineEnd < end ? lineEnd + 1 : end;
    }
    return false;
}

void parseChunk(const scan::Chunk& chunk, const char* data,
                const ParseOptions& options, IdMode mode,
                std::uint64_t declaredN, EdgeChunk& out) {
    // A line stages at most one edge, so sizing from the line count means
    // the staging is never copied by growth.
    const auto lines =
        static_cast<std::size_t>(std::count(chunk.begin, chunk.end, '\n')) + 1;
    out.edges.reserve(lines);
    if (options.weighted) out.edgeWeights.reserve(lines);

    const char* p = chunk.begin;
    while (p < chunk.end) {
        const char* lineEnd = scan::findLineEnd(p, chunk.end);
        const char* next = lineEnd < chunk.end ? lineEnd + 1 : chunk.end;
        if (scan::isCommentOrBlank(p, lineEnd, options.comment)) {
            p = next;
            continue;
        }

        const char* q = p;
        scan::skipSpace(q, lineEnd);
        std::uint64_t u = 0, v = 0;
        double w = 1.0;
        std::size_t errorOffset = 0;
        const char* errorMessage = nullptr;
        const char* tokenStart = q;
        if (!scan::parseU64(q, lineEnd, u)) {
            errorOffset = static_cast<std::size_t>(tokenStart - data);
            errorMessage = "malformed node id (expected unsigned integer)";
        } else {
            scan::skipSpace(q, lineEnd);
            tokenStart = q;
            if (!scan::parseU64(q, lineEnd, v)) {
                errorOffset = static_cast<std::size_t>(tokenStart - data);
                errorMessage = "malformed line (expected two node ids)";
            } else if (options.weighted) {
                scan::skipSpace(q, lineEnd);
                tokenStart = q;
                if (!scan::parseDouble(q, lineEnd, w)) {
                    errorOffset = static_cast<std::size_t>(tokenStart - data);
                    errorMessage =
                        "missing, malformed or non-finite edge weight";
                }
            }
        }
        if (!errorMessage) {
            if (u < options.indexBase || v < options.indexBase) {
                errorOffset = static_cast<std::size_t>(p - data);
                errorMessage = "node id below the configured index base";
            } else {
                u -= options.indexBase;
                v -= options.indexBase;
                if (mode == IdMode::Declared &&
                    (u >= declaredN || v >= declaredN)) {
                    errorOffset = static_cast<std::size_t>(p - data);
                    errorMessage = "node id exceeds the declared node count";
                }
            }
        }

        if (errorMessage) {
            if (options.strict) {
                out.error.record(errorOffset, errorMessage);
                return;
            }
            ++out.skipped;
        } else if (!out.idSpaceExceeded) {
            StagedEdge e{};
            if (mode == IdMode::Remapped) {
                e.u = out.ids.idOf(u);
                e.v = out.ids.idOf(v);
                out.idSpaceExceeded = e.u == none || e.v == none;
            } else {
                // Declared ids lie below the declared count, at most none.
                out.idSpaceExceeded =
                    std::max(u, v) >= static_cast<std::uint64_t>(none);
                e.u = static_cast<node>(u);
                e.v = static_cast<node>(v);
                out.maxId = std::max({out.maxId, e.u, e.v});
            }
            if (!out.idSpaceExceeded) {
                out.edges.push_back(e);
                if (options.weighted) out.edgeWeights.push_back(w);
            }
        }
        p = next;
    }
}

/// Parse [data, data + size) into per-chunk staged edges and resolve the
/// node ids. Every error that needs the text (line numbers) is raised
/// here, so the caller may release the text before assembly.
StagedEdges stageEdges(const char* data, std::size_t size,
                       const std::string& name, const ParseOptions& options,
                       int threads) {
    const char* const end = data + size;

    std::uint64_t declaredN = 0;
    const bool haveDeclaredN =
        scanDeclaredN(data, end, options.comment, declaredN);
    if (haveDeclaredN && declaredN > static_cast<std::uint64_t>(none)) {
        throw IoError(name, 1, 0,
                      "declared node count exceeds the 32-bit id space");
    }
    const IdMode mode = haveDeclaredN      ? IdMode::Declared
                        : options.remapIds ? IdMode::Remapped
                                           : IdMode::Direct;

    const std::vector<scan::Chunk> ranges =
        scan::splitLineChunks(data, end, threads);
    StagedEdges staged;
    std::vector<EdgeChunk>& chunks = staged.chunks;
    chunks.resize(ranges.size());
    const int numChunks = static_cast<int>(ranges.size());
#pragma omp parallel for default(none)                                       \
    shared(ranges, chunks, data, options, mode, declaredN, numChunks)        \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        parseChunk(ranges[static_cast<std::size_t>(c)], data, options, mode,
                   declaredN, chunks[static_cast<std::size_t>(c)]);
    }

    count skipped = 0;
    for (const EdgeChunk& chunk : chunks) {
        if (chunk.error.set) {
            throw IoError(name,
                          scan::lineOfOffset(data, size, chunk.error.offset),
                          chunk.error.offset, chunk.error.message,
                          /*recoverable=*/true);
        }
        skipped += chunk.skipped;
    }
    if (skipped > 0) {
        logWarn("readEdgeList: skipped ", skipped, " malformed line(s) in ",
                name);
    }

    if (std::any_of(chunks.begin(), chunks.end(),
                    [](const EdgeChunk& c) { return c.idSpaceExceeded; })) {
        throw IoError(name, 0, size,
                      mode == IdMode::Remapped
                          ? "more distinct node ids than the 32-bit id space "
                            "holds"
                          : "node id exceeds the 32-bit id space");
    }
    switch (mode) {
    case IdMode::Declared:
        staged.n = static_cast<count>(declaredN);
        break;
    case IdMode::Direct: {
        bool any = false;
        node maxId = 0;
        for (const EdgeChunk& chunk : chunks) {
            if (chunk.edges.empty()) continue;
            any = true;
            maxId = std::max(maxId, chunk.maxId);
        }
        staged.n = any ? static_cast<count>(maxId) + 1 : 0;
        break;
    }
    case IdMode::Remapped: {
        // Walking the chunks' first-appearance lists in file order visits
        // every raw id in the order of its first appearance in the file,
        // so this numbers the nodes exactly as one sequential pass over
        // the edges would — over distinct ids per chunk, not over edges.
        IdNumbering global;
        std::vector<std::vector<node>> toGlobal(chunks.size());
        for (std::size_t c = 0; c < chunks.size(); ++c) {
            const std::vector<std::uint64_t>& raws = chunks[c].ids.raws;
            toGlobal[c].reserve(raws.size());
            for (const std::uint64_t raw : raws) {
                const node id = global.idOf(raw);
                if (id == none) {
                    throw IoError(name, 0, size,
                                  "more distinct node ids than the 32-bit "
                                  "id space holds");
                }
                toGlobal[c].push_back(id);
            }
            chunks[c].ids = IdNumbering();
        }
#pragma omp parallel for default(none)                                       \
    shared(chunks, toGlobal, numChunks) num_threads(threads)                 \
    schedule(static, 1)
        for (int c = 0; c < numChunks; ++c) {
            const std::vector<node>& map = toGlobal[static_cast<std::size_t>(c)];
            for (StagedEdge& e : chunks[static_cast<std::size_t>(c)].edges) {
                e.u = map[e.u];
                e.v = map[e.v];
            }
        }
        staged.rawIds = std::move(global.raws);
        staged.n = staged.rawIds.size();
        break;
    }
    }
    return staged;
}

/// Assemble symmetric CSR arrays from the per-chunk staged edges: count
/// degrees per (chunk, row), prefix-sum into absolute row offsets plus a
/// per-chunk start cursor per row, then scatter. Entry order within a row
/// equals file order of the incident edges, so the result is independent
/// of the chunk/thread count. The staging is freed once scattered.
CsrArrays assembleArrays(std::vector<EdgeChunk>& chunks, count n,
                         bool weighted, int threads) {
    const int numChunks = static_cast<int>(chunks.size());
    std::vector<std::vector<index>> chunkDeg(chunks.size());
#pragma omp parallel for default(none) shared(chunks, chunkDeg, numChunks, n) \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        auto& deg = chunkDeg[static_cast<std::size_t>(c)];
        deg.assign(n, 0);
        for (const StagedEdge& e : chunks[static_cast<std::size_t>(c)].edges) {
            ++deg[e.u];
            if (e.u != e.v) ++deg[e.v];
        }
    }

    // Row degrees, prefix-summed in place into the offsets (the closing
    // zero becomes the entry count).
    CsrArrays csr;
    std::vector<index>& offsets = csr.offsets;
    offsets.assign(n + 1, 0);
    const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel for default(none)                                       \
    shared(chunkDeg, offsets, numChunks, sn) num_threads(threads)            \
    schedule(static)
    for (std::int64_t v = 0; v < sn; ++v) {
        count total = 0;
        for (int c = 0; c < numChunks; ++c) {
            total += chunkDeg[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(v)];
        }
        offsets[static_cast<std::size_t>(v)] = total;
    }
    const count entries = Parallel::prefixSum(offsets);

    // Turn each chunk's degree count into the absolute start offset of
    // that chunk's slice of the row.
#pragma omp parallel for default(none)                                       \
    shared(chunkDeg, offsets, numChunks, sn) num_threads(threads)            \
    schedule(static)
    for (std::int64_t v = 0; v < sn; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        index running = offsets[uv];
        for (int c = 0; c < numChunks; ++c) {
            auto& slot = chunkDeg[static_cast<std::size_t>(c)][uv];
            const index width = slot;
            slot = running;
            running += width;
        }
    }

    std::vector<node>& neighbors = csr.neighbors;
    std::vector<edgeweight>& weights = csr.weights;
    neighbors.resize(entries);
    weights.resize(weighted ? entries : 0);
#pragma omp parallel for default(none)                                       \
    shared(chunks, chunkDeg, neighbors, weights, weighted, numChunks)        \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        auto& cursor = chunkDeg[static_cast<std::size_t>(c)];
        const EdgeChunk& chunk = chunks[static_cast<std::size_t>(c)];
        for (std::size_t i = 0; i < chunk.edges.size(); ++i) {
            const StagedEdge e = chunk.edges[i];
            index slot = cursor[e.u]++;
            neighbors[slot] = e.v;
            if (weighted) weights[slot] = chunk.edgeWeights[i];
            if (e.u != e.v) {
                slot = cursor[e.v]++;
                neighbors[slot] = e.u;
                if (weighted) weights[slot] = chunk.edgeWeights[i];
            }
        }
    }
    chunks.clear();
    return csr;
}

/// Stable per-row dedup for directed inputs: keep the first instance of
/// every neighbor (file order), drop the rest. Symmetric because both
/// endpoint rows receive their entries in the same global edge order.
void dedupRows(CsrArrays& csr, bool weighted, int threads) {
    std::vector<index>& offsets = csr.offsets;
    std::vector<node>& neighbors = csr.neighbors;
    std::vector<edgeweight>& weights = csr.weights;
    const count n = offsets.size() - 1;
    // Kept entries per row, then (prefix-summed in place, the closing
    // zero becoming the total) the packed row offsets.
    std::vector<index> packedOffsets(n + 1, 0);
    const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel default(none)                                           \
    shared(offsets, neighbors, weights, packedOffsets, weighted, sn, n)      \
    num_threads(threads)
    {
        // Timestamped per-thread "seen" set: O(deg) per row, no clearing.
        std::vector<index> stamp(n, 0);
        index generation = 0;
#pragma omp for schedule(guided)
        for (std::int64_t sv = 0; sv < sn; ++sv) {
            const auto v = static_cast<std::size_t>(sv);
            ++generation;
            index write = offsets[v];
            for (index i = offsets[v]; i < offsets[v + 1]; ++i) {
                const node u = neighbors[i];
                if (stamp[u] == generation) continue;
                stamp[u] = generation;
                // grapr:analyze-allow(shared-write-safety): the "foreign"
                // read neighbors[i] is this thread's own row scan (write
                // <= i within the same slice) — in-place compaction is
                // beyond the effect lattice.
                neighbors[write] = u;
                // grapr:analyze-allow(shared-write-safety): same in-row
                // compaction; weights[i] is read within the owned slice.
                if (weighted) weights[write] = weights[i];
                ++write;
            }
            packedOffsets[v] = write - offsets[v];
        }
    }

    const count total = Parallel::prefixSum(packedOffsets);
    std::vector<node> packedNeighbors(total);
    std::vector<edgeweight> packedWeights(weighted ? total : 0);
#pragma omp parallel for default(none)                                       \
    shared(offsets, neighbors, weights, packedOffsets, packedNeighbors,      \
               packedWeights, weighted, sn)                                  \
    num_threads(threads) schedule(guided)
    for (std::int64_t sv = 0; sv < sn; ++sv) {
        const auto v = static_cast<std::size_t>(sv);
        const index to = packedOffsets[v];
        for (index i = 0; i < packedOffsets[v + 1] - to; ++i) {
            // grapr:analyze-allow(shared-write-safety): [to, to + kept) is
            // row v's slice of the packed arrays, written by this
            // iteration only — a slice offset is beyond the derived-index
            // rule.
            packedNeighbors[to + i] = neighbors[offsets[v] + i];
            // grapr:analyze-allow(shared-write-safety): the same slice.
            if (weighted) packedWeights[to + i] = weights[offsets[v] + i];
        }
    }
    offsets = std::move(packedOffsets);
    neighbors = std::move(packedNeighbors);
    weights = std::move(packedWeights);
}

/// Assemble the staged edges into the CSR (deduplicating rows for
/// directed input) and hand out the node ids.
CsrGraph assemble(StagedEdges staged, const std::string& name,
                  const ParseOptions& options, int threads,
                  std::vector<std::uint64_t>* originalIds) {
    CsrArrays csr =
        assembleArrays(staged.chunks, staged.n, options.weighted, threads);
    if (options.directedInput) dedupRows(csr, options.weighted, threads);

    CsrGraph graph = [&] {
        try {
            return CsrGraph(std::move(csr.offsets), std::move(csr.neighbors),
                            std::move(csr.weights), options.weighted);
        } catch (const std::exception& e) {
            throw IoError(name, 0, 0,
                          std::string("inconsistent graph structure: ") +
                              e.what());
        }
    }();

    if (originalIds) {
        if (staged.rawIds.empty()) {
            staged.rawIds.resize(staged.n);
            std::iota(staged.rawIds.begin(), staged.rawIds.end(),
                      std::uint64_t{0});
        }
        *originalIds = std::move(staged.rawIds);
    }
    return graph;
}

} // namespace

CsrGraph parseEdgeListCsr(const char* data, std::size_t size,
                          const std::string& name,
                          const ParseOptions& options,
                          std::vector<std::uint64_t>* originalIds) {
    const int threads = resolveThreads(options);
    return assemble(stageEdges(data, size, name, options, threads), name,
                    options, threads, originalIds);
}

CsrGraph readEdgeListCsr(const std::string& path, const ParseOptions& options,
                         std::vector<std::uint64_t>* originalIds) {
    const int threads = resolveThreads(options);
    StagedEdges staged = [&] {
        const MappedFile file(path);
        return stageEdges(file.data(), file.size(), path, options, threads);
    }(); // the text is released here, before assembly
    return assemble(std::move(staged), path, options, threads, originalIds);
}

} // namespace grapr::io
