#pragma once
// Allocation-free text scanning primitives shared by the parallel parsers:
// cursor-based integer/double token readers (std::from_chars underneath,
// so no locale, no stream state, no heap), newline-aligned chunk
// splitting, line accounting for error reports, and the shortest
// round-trip weight formatter used by the writers.

#include <charconv>
#include <cmath>
#include <cstring>
#include <string>
#include <system_error>
#include <vector>

#include "support/common.hpp"

namespace grapr::io::scan {

/// Horizontal whitespace: what separates tokens within a line.
inline bool isSpace(char c) noexcept {
    return c == ' ' || c == '\t' || c == '\r';
}

inline void skipSpace(const char*& p, const char* end) noexcept {
    while (p < end && isSpace(*p)) ++p;
}

/// Advance past the current non-whitespace token (permissive recovery).
inline void skipToken(const char*& p, const char* end) noexcept {
    while (p < end && !isSpace(*p)) ++p;
}

/// Parse an unsigned decimal integer at p. On success advances p past the
/// digits and returns true; on failure (no digit, or overflow) leaves p
/// unchanged and returns false. A leading '-' or '+' is a failure: node
/// ids are non-negative by definition, and silently wrapping "-1" to
/// 2^64-1 (what istream extraction does) has hidden real input errors.
inline bool parseU64(const char*& p, const char* end,
                     std::uint64_t& out) noexcept {
    const auto [next, ec] = std::from_chars(p, end, out, 10);
    if (ec != std::errc() || next == p) return false;
    p = next;
    return true;
}

/// Parse a finite floating-point token at p (from_chars general format;
/// accepts the usual "2", "2.5", "1e-3", "-0.25" spellings). Same cursor
/// contract as parseU64. A non-finite value ("nan", "inf", which from_chars
/// accepts) is a failure: as an edge weight it would silently turn every
/// modularity score downstream into NaN.
inline bool parseDouble(const char*& p, const char* end,
                        double& out) noexcept {
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || next == p || !std::isfinite(out)) return false;
    p = next;
    return true;
}

/// End of the line starting at p: the first '\n' at or after p, or end.
inline const char* findLineEnd(const char* p, const char* end) noexcept {
    const void* nl = std::memchr(p, '\n', static_cast<std::size_t>(end - p));
    return nl ? static_cast<const char*>(nl) : end;
}

/// True when [p, lineEnd) is blank or a comment line (first non-space
/// char is `comment` or '%', the comment char of every format we read).
inline bool isCommentOrBlank(const char* p, const char* lineEnd,
                             char comment) noexcept {
    skipSpace(p, lineEnd);
    if (p == lineEnd) return true;
    return *p == comment || *p == '%';
}

/// A half-open byte range of the input.
struct Chunk {
    const char* begin;
    const char* end;
};

/// Split [begin, end) into at most `pieces` newline-aligned chunks: every
/// chunk starts right after a '\n' (or at begin) and ends right after a
/// '\n' (or at end), so no line straddles two chunks. Chunks concatenate
/// to exactly the input in order, which is what makes the parallel parse
/// independent of the chunk count. Some chunks may be empty when lines
/// are long relative to the input.
inline std::vector<Chunk> splitLineChunks(const char* begin, const char* end,
                                          int pieces) {
    std::vector<Chunk> chunks;
    if (pieces < 1) pieces = 1;
    const std::size_t size = static_cast<std::size_t>(end - begin);
    const char* cursor = begin;
    for (int i = 1; i <= pieces && cursor < end; ++i) {
        const char* target = begin + size * static_cast<std::size_t>(i) /
                                         static_cast<std::size_t>(pieces);
        if (i == pieces) {
            target = end;
        } else {
            if (target < cursor) target = cursor;
            target = findLineEnd(target, end);
            if (target < end) ++target; // include the newline
        }
        if (target > cursor) {
            chunks.push_back({cursor, target});
            cursor = target;
        }
    }
    if (cursor < end) chunks.push_back({cursor, end});
    return chunks;
}

/// 1-based line number of byte `offset` in [data, data+size): one plus
/// the number of newlines before it. Only used on error paths.
inline count lineOfOffset(const char* data, std::size_t size,
                          std::size_t offset) noexcept {
    if (offset > size) offset = size;
    count line = 1;
    const char* p = data;
    const char* const stop = data + offset;
    while (p < stop) {
        const void* nl =
            std::memchr(p, '\n', static_cast<std::size_t>(stop - p));
        if (!nl) break;
        ++line;
        p = static_cast<const char*>(nl) + 1;
    }
    return line;
}

/// Shortest decimal form of w that parses back to exactly w
/// (std::to_chars shortest round-trip; "2" for 2.0, "0.1" for 0.1).
/// The writers use this so weighted round trips are bit-exact.
inline std::string formatWeight(double w) {
    char buffer[32];
    const auto [next, ec] = std::to_chars(buffer, buffer + sizeof buffer, w);
    if (ec != std::errc()) return std::to_string(w); // unreachable for finite w
    return std::string(buffer, next);
}

} // namespace grapr::io::scan
