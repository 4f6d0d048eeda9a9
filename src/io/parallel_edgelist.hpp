#pragma once
// Parallel edge-list ingestion straight to CSR.
//
// The file is memory-mapped (mapped_file.hpp), split into newline-aligned
// chunks, and the chunks are tokenised in parallel with the allocation-free
// scanner (text_scanner.hpp). Each chunk stages its edges as pairs of
// 32-bit node ids (8 bytes per edge, plus 8 for a weight on weighted
// input), reserved from its line count so the staging never grows by
// copying. readEdgeListCsr then releases the text and assembles the CSR
// through a two-pass build — per-chunk degree count, prefix sum, parallel
// scatter — with no intermediate adjacency-list Graph. Because chunk
// results are stitched in file order, the resulting CsrGraph (offsets,
// neighbor order, weights) is bit-identical for every thread count,
// including 1 (asserted by tests/test_parallel_io.cpp).
//
// Malformed input throws io::IoError with the exact line and byte offset
// (strict mode, the default) or is skipped with one summary warning
// (permissive mode). See ParseOptions for the full knob list.

#include <cstddef>
#include <string>
#include <vector>

#include "graph/csr_graph.hpp"
#include "io/parse_options.hpp"

namespace grapr::io {

/// Read a whitespace-separated edge list ("u v [w]" per line) from `path`
/// into a frozen CsrGraph. If `originalIds` is non-null it receives the
/// original raw id of every node (first-appearance order when remapping,
/// identity otherwise).
CsrGraph readEdgeListCsr(const std::string& path,
                         const ParseOptions& options = {},
                         std::vector<std::uint64_t>* originalIds = nullptr);

/// Same parser over an in-memory buffer (`name` is used in error
/// messages), which stays alive throughout. This is the entry point the
/// fuzz tests drive.
CsrGraph parseEdgeListCsr(const char* data, std::size_t size,
                          const std::string& name,
                          const ParseOptions& options = {},
                          std::vector<std::uint64_t>* originalIds = nullptr);

} // namespace grapr::io
