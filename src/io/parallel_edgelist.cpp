#include "io/parallel_edgelist.hpp"

#include <algorithm>
#include <cstring>
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

struct RawEdge {
    std::uint64_t u;
    std::uint64_t v;
    double w;
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

struct EdgeChunk {
    std::vector<RawEdge> edges;
    ChunkError error;
    count skipped = 0; // permissive-mode dropped lines
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
                const ParseOptions& options, bool haveDeclaredN,
                std::uint64_t declaredN, EdgeChunk& out) {
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
                if (haveDeclaredN && (u >= declaredN || v >= declaredN)) {
                    errorOffset = static_cast<std::size_t>(p - data);
                    errorMessage = "node id exceeds the declared node count";
                }
            }
        }

        if (!errorMessage) {
            out.edges.push_back({u, v, w});
        } else if (options.strict) {
            out.error.record(errorOffset, errorMessage);
            return;
        } else {
            ++out.skipped;
        }
        p = next;
    }
}

/// Assemble symmetric CSR arrays from the per-chunk edge vectors: count
/// degrees per (chunk, row), prefix-sum into absolute row offsets plus a
/// per-chunk start cursor per row, then scatter. Entry order within a row
/// equals file order of the incident edges, so the result is independent
/// of the chunk/thread count.
CsrGraph assembleCsr(std::vector<EdgeChunk>& chunks, count n, bool weighted,
                     int threads, const std::string& name) {
    const int numChunks = static_cast<int>(chunks.size());
    std::vector<std::vector<index>> chunkDeg(chunks.size());
#pragma omp parallel for default(none) shared(chunks, chunkDeg, numChunks, n) \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        auto& deg = chunkDeg[static_cast<std::size_t>(c)];
        deg.assign(n, 0);
        for (const RawEdge& e : chunks[static_cast<std::size_t>(c)].edges) {
            ++deg[e.u];
            if (e.u != e.v) ++deg[e.v];
        }
    }

    std::vector<count> degrees(n, 0);
    const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel for default(none)                                       \
    shared(chunkDeg, degrees, numChunks, sn) num_threads(threads)            \
    schedule(static)
    for (std::int64_t v = 0; v < sn; ++v) {
        count total = 0;
        for (int c = 0; c < numChunks; ++c) {
            total += chunkDeg[static_cast<std::size_t>(c)]
                             [static_cast<std::size_t>(v)];
        }
        degrees[static_cast<std::size_t>(v)] = total;
    }
    const count entries = Parallel::prefixSum(degrees);

    std::vector<index> offsets(n + 1);
    offsets[n] = entries;
    // Turn each chunk's degree count into the absolute start offset of
    // that chunk's slice of the row.
#pragma omp parallel for default(none)                                       \
    shared(chunkDeg, degrees, offsets, numChunks, sn) num_threads(threads)   \
    schedule(static)
    for (std::int64_t v = 0; v < sn; ++v) {
        const auto uv = static_cast<std::size_t>(v);
        offsets[uv] = degrees[uv];
        index running = degrees[uv];
        for (int c = 0; c < numChunks; ++c) {
            auto& slot = chunkDeg[static_cast<std::size_t>(c)][uv];
            const index width = slot;
            slot = running;
            running += width;
        }
    }

    std::vector<node> neighbors(entries);
    std::vector<edgeweight> weights(weighted ? entries : 0);
#pragma omp parallel for default(none)                                       \
    shared(chunks, chunkDeg, neighbors, weights, weighted, numChunks)        \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        auto& cursor = chunkDeg[static_cast<std::size_t>(c)];
        for (const RawEdge& e : chunks[static_cast<std::size_t>(c)].edges) {
            index slot = cursor[e.u]++;
            neighbors[slot] = static_cast<node>(e.v);
            if (weighted) weights[slot] = e.w;
            if (e.u != e.v) {
                slot = cursor[e.v]++;
                neighbors[slot] = static_cast<node>(e.u);
                if (weighted) weights[slot] = e.w;
            }
        }
    }

    try {
        return CsrGraph(std::move(offsets), std::move(neighbors),
                        std::move(weights), weighted);
    } catch (const std::exception& e) {
        throw IoError(name, 0, 0,
                      std::string("inconsistent graph structure: ") + e.what());
    }
}

/// Stable per-row dedup for directed inputs: keep the first instance of
/// every neighbor (file order), drop the rest. Symmetric because both
/// endpoint rows receive their entries in the same global edge order.
void dedupRows(std::vector<index>& offsets, std::vector<node>& neighbors,
               std::vector<edgeweight>& weights, bool weighted, int threads) {
    const count n = offsets.size() - 1;
    std::vector<count> newDeg(n, 0);
    const auto sn = static_cast<std::int64_t>(n);
#pragma omp parallel default(none)                                           \
    shared(offsets, neighbors, weights, newDeg, weighted, sn, n)             \
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
            newDeg[v] = write - offsets[v];
        }
    }

    std::vector<count> prefix = newDeg;
    const count total = Parallel::prefixSum(prefix);
    std::vector<index> packedOffsets(n + 1);
    packedOffsets[n] = total;
    std::vector<node> packedNeighbors(total);
    std::vector<edgeweight> packedWeights(weighted ? total : 0);
#pragma omp parallel for default(none)                                       \
    shared(offsets, neighbors, weights, prefix, newDeg, packedOffsets,       \
               packedNeighbors, packedWeights, weighted, sn)                 \
    num_threads(threads) schedule(guided)
    for (std::int64_t sv = 0; sv < sn; ++sv) {
        const auto v = static_cast<std::size_t>(sv);
        packedOffsets[v] = prefix[v];
        for (index i = 0; i < newDeg[v]; ++i) {
            packedNeighbors[prefix[v] + i] = neighbors[offsets[v] + i];
            if (weighted) packedWeights[prefix[v] + i] = weights[offsets[v] + i];
        }
    }
    offsets = std::move(packedOffsets);
    neighbors = std::move(packedNeighbors);
    weights = std::move(packedWeights);
}

} // namespace

CsrGraph parseEdgeListCsr(const char* data, std::size_t size,
                          const std::string& name,
                          const ParseOptions& options,
                          std::vector<std::uint64_t>* originalIds) {
    const char* const end = data + size;
    const int threads = resolveThreads(options);

    std::uint64_t declaredN = 0;
    const bool haveDeclaredN =
        scanDeclaredN(data, end, options.comment, declaredN);
    if (haveDeclaredN && declaredN > static_cast<std::uint64_t>(none)) {
        throw IoError(name, 1, 0,
                      "declared node count exceeds the 32-bit id space");
    }

    const std::vector<scan::Chunk> ranges =
        scan::splitLineChunks(data, end, threads);
    std::vector<EdgeChunk> chunks(ranges.size());
    const int numChunks = static_cast<int>(ranges.size());
#pragma omp parallel for default(none)                                       \
    shared(ranges, chunks, data, options, haveDeclaredN, declaredN,          \
               numChunks) num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        parseChunk(ranges[static_cast<std::size_t>(c)], data, options,
                   haveDeclaredN, declaredN,
                   chunks[static_cast<std::size_t>(c)]);
    }

    count skipped = 0;
    for (const EdgeChunk& chunk : chunks) {
        if (chunk.error.set) {
            throw IoError(name,
                          scan::lineOfOffset(data, size, chunk.error.offset),
                          chunk.error.offset, chunk.error.message);
        }
        skipped += chunk.skipped;
    }
    if (skipped > 0) {
        logWarn("readEdgeList: skipped ", skipped, " malformed line(s) in ",
                name);
    }

    // Resolve node ids: declared bound > first-appearance remap > direct.
    count n = 0;
    std::vector<std::uint64_t> original;
    if (haveDeclaredN) {
        n = static_cast<count>(declaredN);
    } else if (options.remapIds) {
        std::unordered_map<std::uint64_t, node> remap;
        count totalEdges = 0;
        for (const EdgeChunk& chunk : chunks) {
            totalEdges += chunk.edges.size();
        }
        remap.reserve(totalEdges);
        // Sequential over chunks in file order: first-appearance numbering
        // must match the single-threaded reader exactly.
        for (EdgeChunk& chunk : chunks) {
            for (RawEdge& e : chunk.edges) {
                for (std::uint64_t* id : {&e.u, &e.v}) {
                    auto [it, inserted] = remap.emplace(
                        *id, static_cast<node>(original.size()));
                    if (inserted) {
                        if (original.size() >=
                            static_cast<std::size_t>(none)) {
                            throw IoError(name, 0, size,
                                          "more distinct node ids than the "
                                          "32-bit id space holds");
                        }
                        original.push_back(*id);
                    }
                    *id = it->second;
                }
            }
        }
        n = original.size();
    } else {
        std::uint64_t maxId = 0;
        bool any = false;
        for (const EdgeChunk& chunk : chunks) {
            for (const RawEdge& e : chunk.edges) {
                maxId = std::max({maxId, e.u, e.v});
                any = true;
            }
        }
        if (any && maxId >= static_cast<std::uint64_t>(none)) {
            throw IoError(name, 0, size,
                          "node id exceeds the 32-bit id space");
        }
        n = any ? static_cast<count>(maxId) + 1 : 0;
    }

    CsrGraph graph = [&] {
        if (!options.directedInput) {
            return assembleCsr(chunks, n, options.weighted, threads, name);
        }
        // Dedup path: assemble with duplicates, then compact per row.
        CsrGraph withDuplicates =
            assembleCsr(chunks, n, options.weighted, threads, name);
        std::vector<index> offsets = withDuplicates.offsets();
        std::vector<node> neighbors = withDuplicates.neighborArray();
        std::vector<edgeweight> weights = withDuplicates.weightArray();
        dedupRows(offsets, neighbors, weights, options.weighted, threads);
        return CsrGraph(std::move(offsets), std::move(neighbors),
                        std::move(weights), options.weighted);
    }();

    if (originalIds) {
        if (haveDeclaredN || !options.remapIds) {
            original.resize(n);
            for (count v = 0; v < n; ++v) original[v] = v;
        }
        *originalIds = std::move(original);
    }
    return graph;
}

CsrGraph readEdgeListCsr(const std::string& path, const ParseOptions& options,
                         std::vector<std::uint64_t>* originalIds) {
    MappedFile file(path);
    return parseEdgeListCsr(file.data(), file.size(), path, options,
                            originalIds);
}

} // namespace grapr::io
