#include "io/parallel_metis.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include <omp.h>

#include "io/io_error.hpp"
#include "io/mapped_file.hpp"
#include "io/text_scanner.hpp"
#include "support/logging.hpp"
#include "support/parallel.hpp"

namespace grapr::io {

namespace {

struct ChunkError {
    bool set = false;
    std::size_t offset = 0;
    const char* message = nullptr;
    bool recoverable = false; // permissive mode skips it

    void record(std::size_t off, const char* msg, bool skippable) {
        if (set) return;
        set = true;
        offset = off;
        message = msg;
        recoverable = skippable;
    }
};

struct MetisChunk {
    std::vector<count> rowDegrees;     // kept entries per data row
    std::vector<std::uint8_t> rowBlank; // row is all whitespace
    ChunkError error;
    count droppedTokens = 0; // permissive-mode junk tokens
};

struct MetisHeader {
    count n = 0;
    count m = 0;
    bool weighted = false;
    std::size_t bodyOffset = 0; // first byte after the header line
    count headerLine = 0;       // 1-based line the header sits on
};

int resolveThreads(const ParseOptions& options) {
    return options.threads > 0 ? options.threads : omp_get_max_threads();
}

/// A body line is a comment iff its first column is '%' (the format's
/// rule; an indented '%' is a data row). Everything else — including an
/// empty line, which encodes an isolated vertex — is a data row.
bool isMetisComment(const char* p, const char* lineEnd) {
    return p < lineEnd && *p == '%';
}

MetisHeader parseHeader(const char* data, std::size_t size,
                        const std::string& name) {
    const char* const end = data + size;
    const char* p = data;
    count line = 0;
    while (p < end) {
        const char* lineEnd = scan::findLineEnd(p, end);
        ++line;
        if (isMetisComment(p, lineEnd)) {
            p = lineEnd < end ? lineEnd + 1 : end;
            continue;
        }
        MetisHeader header;
        header.headerLine = line;
        const char* q = p;
        scan::skipSpace(q, lineEnd);
        std::uint64_t n = 0, m = 0;
        if (!scan::parseU64(q, lineEnd, n)) {
            throw IoError(name, line, static_cast<std::size_t>(q - data),
                          "malformed header (expected \"n m [fmt]\")");
        }
        scan::skipSpace(q, lineEnd);
        if (!scan::parseU64(q, lineEnd, m)) {
            throw IoError(name, line, static_cast<std::size_t>(q - data),
                          "malformed header (expected \"n m [fmt]\")");
        }
        scan::skipSpace(q, lineEnd);
        std::uint64_t fmt = 0;
        const char* fmtStart = q;
        if (scan::parseU64(q, lineEnd, fmt) && fmt != 0 && fmt != 1) {
            throw IoError(name, line,
                          static_cast<std::size_t>(fmtStart - data),
                          "only fmt 0 (plain) and 1 (edge weights) are "
                          "supported");
        }
        if (n > static_cast<std::uint64_t>(none)) {
            throw IoError(name, line, static_cast<std::size_t>(p - data),
                          "declared node count exceeds the 32-bit id space");
        }
        header.n = static_cast<count>(n);
        header.m = static_cast<count>(m);
        header.weighted = fmt == 1;
        header.bodyOffset = static_cast<std::size_t>(
            (lineEnd < end ? lineEnd + 1 : end) - data);
        return header;
    }
    throw IoError(name, line, size, "missing header");
}

/// Scan one data row, invoking emit(vZeroBased, w) for every kept entry.
/// Used identically by the counting and the writing pass, so the two
/// always agree. Returns false once `error` is recorded (strict mode, or
/// a structural violation in either mode).
template <typename Emit>
bool scanMetisRow(const char* p, const char* lineEnd, const char* data,
                  count n, bool weighted, bool strict, count& droppedTokens,
                  ChunkError& error, Emit&& emit) {
    scan::skipSpace(p, lineEnd);
    while (p < lineEnd) {
        const char* tokenStart = p;
        std::uint64_t id = 0;
        if (!scan::parseU64(p, lineEnd, id)) {
            if (strict) {
                error.record(static_cast<std::size_t>(tokenStart - data),
                             "malformed neighbor id (expected 1-based "
                             "integer)",
                             /*skippable=*/true);
                return false;
            }
            scan::skipToken(p, lineEnd);
            ++droppedTokens;
            scan::skipSpace(p, lineEnd);
            continue;
        }
        if (id < 1 || id > n) {
            // Not recoverable in either mode: the mirrored entry in the
            // other endpoint's row cannot be located, so dropping it would
            // silently desymmetrise the graph.
            error.record(static_cast<std::size_t>(tokenStart - data),
                         "neighbor id out of range", /*skippable=*/false);
            return false;
        }
        double w = 1.0;
        if (weighted) {
            scan::skipSpace(p, lineEnd);
            const char* weightStart = p;
            if (!scan::parseDouble(p, lineEnd, w)) {
                // Not recoverable either, for the same reason: the entry
                // mirroring this one in row `id` would be kept.
                error.record(static_cast<std::size_t>(weightStart - data),
                             "missing, malformed or non-finite edge weight",
                             /*skippable=*/false);
                return false;
            }
        }
        emit(static_cast<node>(id - 1), w);
        scan::skipSpace(p, lineEnd);
    }
    return true;
}

} // namespace

CsrGraph parseMetisCsr(const char* data, std::size_t size,
                       const std::string& name, const ParseOptions& options) {
    const char* const end = data + size;
    const int threads = resolveThreads(options);

    const MetisHeader header = parseHeader(data, size, name);

    const std::vector<scan::Chunk> ranges =
        scan::splitLineChunks(data + header.bodyOffset, end, threads);
    std::vector<MetisChunk> chunks(ranges.size());
    const int numChunks = static_cast<int>(ranges.size());
    // Each region reads what the caller or an earlier region wrote; the
    // fence shows TSan the fork and join edges of libgomp's (uninstrumented)
    // team handoff. No-ops outside TSan builds.
    Parallel::TsanJoinFence fence;

    // Pass 1: per chunk, count data rows and kept entries per row.
    fence.open();
#pragma omp parallel for default(none)                                       \
    shared(ranges, chunks, data, header, options, numChunks, fence)          \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        fence.enter();
        const scan::Chunk& range = ranges[static_cast<std::size_t>(c)];
        MetisChunk& chunk = chunks[static_cast<std::size_t>(c)];
        const char* p = range.begin;
        while (p < range.end && !chunk.error.set) {
            const char* lineEnd = scan::findLineEnd(p, range.end);
            if (!isMetisComment(p, lineEnd)) {
                const char* blankProbe = p;
                scan::skipSpace(blankProbe, lineEnd);
                chunk.rowBlank.push_back(blankProbe == lineEnd ? 1 : 0);
                count entries = 0;
                scanMetisRow(p, lineEnd, data, header.n, header.weighted,
                             options.strict, chunk.droppedTokens, chunk.error,
                             [&](node, double) { ++entries; });
                chunk.rowDegrees.push_back(entries);
            }
            p = lineEnd < range.end ? lineEnd + 1 : range.end;
        }
        fence.arrive();
    }
    fence.join();

    count droppedTokens = 0;
    for (const MetisChunk& chunk : chunks) {
        if (chunk.error.set) {
            throw IoError(name,
                          scan::lineOfOffset(data, size, chunk.error.offset),
                          chunk.error.offset, chunk.error.message,
                          chunk.error.recoverable);
        }
        droppedTokens += chunk.droppedTokens;
    }
    if (droppedTokens > 0) {
        logWarn("readMetis: dropped ", droppedTokens, " junk token(s) in ",
                name);
    }

    // Row accounting: trailing all-blank rows are not vertex rows (files
    // routinely end in stray newlines); any other surplus is an error in
    // strict mode and ignored with a warning otherwise.
    count totalRows = 0;
    for (const MetisChunk& chunk : chunks) {
        totalRows += chunk.rowDegrees.size();
    }
    for (auto it = chunks.rbegin();
         it != chunks.rend() && totalRows > header.n; ++it) {
        while (totalRows > header.n && !it->rowDegrees.empty() &&
               it->rowBlank.back() == 1) {
            it->rowDegrees.pop_back();
            it->rowBlank.pop_back();
            --totalRows;
        }
        if (!it->rowDegrees.empty() && it->rowBlank.back() == 0) break;
    }
    if (totalRows < header.n) {
        throw IoError(name, 0, size,
                      "fewer adjacency rows than the declared node count");
    }
    if (totalRows > header.n) {
        if (options.strict) {
            throw IoError(name, 0, size,
                          "more adjacency rows than the declared node count",
                          /*recoverable=*/true);
        }
        logWarn("readMetis: ignoring ", totalRows - header.n,
                " adjacency row(s) beyond the declared node count in ", name);
    }

    // First vertex id of every chunk, then CSR offsets via prefix sum
    // over the kept rows.
    std::vector<count> firstRow(chunks.size() + 1, 0);
    for (std::size_t c = 0; c < chunks.size(); ++c) {
        firstRow[c + 1] = firstRow[c] + chunks[c].rowDegrees.size();
    }
    std::vector<count> degrees(header.n, 0);
    fence.open();
#pragma omp parallel for default(none)                                       \
    shared(chunks, firstRow, degrees, header, numChunks, fence)              \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        fence.enter();
        const auto uc = static_cast<std::size_t>(c);
        for (std::size_t r = 0; r < chunks[uc].rowDegrees.size(); ++r) {
            const count row = firstRow[uc] + r;
            // grapr:analyze-allow(shared-write-safety): row lies in chunk
            // c's slice [firstRow[c], firstRow[c+1]) — the inner offset r
            // is bounded by the slice width, which the lattice cannot see.
            if (row < header.n) degrees[row] = chunks[uc].rowDegrees[r];
        }
        fence.arrive();
    }
    fence.join();
    const count entries = Parallel::prefixSum(degrees);
    std::vector<index> offsets(header.n + 1);
    offsets[header.n] = entries;
    const auto sn = static_cast<std::int64_t>(header.n);
    fence.open();
#pragma omp parallel default(none) shared(offsets, degrees, sn, fence)       \
    num_threads(threads)
    {
        fence.enter();
#pragma omp for schedule(static)
        for (std::int64_t v = 0; v < sn; ++v) {
            offsets[static_cast<std::size_t>(v)] =
                degrees[static_cast<std::size_t>(v)];
        }
        fence.arrive();
    }
    fence.join();

    // Pass 2: re-tokenise and write every row's entries into its slice.
    std::vector<node> neighbors(entries);
    std::vector<edgeweight> weights(header.weighted ? entries : 0);
    fence.open();
#pragma omp parallel for default(none)                                       \
    shared(ranges, chunks, data, header, options, firstRow, offsets,         \
               neighbors, weights, numChunks, fence)                         \
    num_threads(threads) schedule(static, 1)
    for (int c = 0; c < numChunks; ++c) {
        fence.enter();
        const auto uc = static_cast<std::size_t>(c);
        const scan::Chunk& range = ranges[uc];
        MetisChunk& chunk = chunks[uc];
        count row = firstRow[uc];
        const count rowLimit = firstRow[uc] + chunk.rowDegrees.size();
        index cursor = firstRow[uc] < header.n ? offsets[firstRow[uc]] : 0;
        count dummyDropped = 0;
        const char* p = range.begin;
        while (p < range.end && row < rowLimit) {
            const char* lineEnd = scan::findLineEnd(p, range.end);
            if (!isMetisComment(p, lineEnd)) {
                if (row < header.n) {
                    scanMetisRow(p, lineEnd, data, header.n, header.weighted,
                                 options.strict, dummyDropped, chunk.error,
                                 [&](node v, double w) {
                                     // grapr:analyze-allow(shared-write-safety):
                                     // cursor starts at offsets[firstRow[c]]
                                     // and stays inside chunk c's entry
                                     // slice; the ternary initializer is
                                     // beyond the derived-index rule.
                                     neighbors[cursor] = v;
                                     if (header.weighted) {
                                         // grapr:analyze-allow(shared-write-safety):
                                         // same chunk-slice cursor.
                                         weights[cursor] = w;
                                     }
                                     ++cursor;
                                 });
                }
                ++row;
            }
            p = lineEnd < range.end ? lineEnd + 1 : range.end;
        }
        fence.arrive();
    }
    fence.join();

    CsrGraph graph = [&] {
        try {
            return CsrGraph(std::move(offsets), std::move(neighbors),
                            std::move(weights), header.weighted);
        } catch (const std::exception& e) {
            throw IoError(name, 0, 0,
                          std::string("inconsistent graph structure: ") +
                              e.what());
        }
    }();

    if (graph.numberOfEdges() != header.m) {
        if (options.strict) {
            throw IoError(name, header.headerLine, 0,
                          "header declares " + std::to_string(header.m) +
                              " edges but " +
                              std::to_string(graph.numberOfEdges()) +
                              " were parsed",
                          /*recoverable=*/true);
        }
        logWarn("readMetis: header declares ", header.m, " edges but ",
                graph.numberOfEdges(), " were parsed (", name, ")");
    }
    return graph;
}

CsrGraph readMetisCsr(const std::string& path, const ParseOptions& options) {
    MappedFile file(path);
    return parseMetisCsr(file.data(), file.size(), path, options);
}

} // namespace grapr::io
