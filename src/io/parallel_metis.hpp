#pragma once
// Parallel METIS-format ingestion straight to CSR.
//
// METIS bodies are line-per-vertex, so the newline-aligned chunks of the
// mapped file are also vertex-aligned: pass 1 counts rows and per-row
// adjacency entries per chunk (establishing each chunk's first vertex id
// and the CSR offsets via prefix sum), pass 2 re-tokenises and writes the
// entries into their final slots. Both passes share one row scanner, so
// they agree token for token, and chunk stitching is in file order — the
// resulting CsrGraph is bit-identical for every thread count.
//
// Supported header: "n m [fmt]" with fmt 0 (plain) or 1 (edge weights),
// as in metis_io.hpp. Structural violations (bad header, out-of-range
// neighbor ids, missing, malformed or non-finite edge weights, missing
// rows, asymmetric adjacency) throw io::IoError in both modes; junk
// neighbor tokens and a header edge count that disagrees with the edges
// actually read throw in strict mode and are warned about in permissive
// mode.

#include <cstddef>
#include <string>

#include "graph/csr_graph.hpp"
#include "io/parse_options.hpp"

namespace grapr::io {

/// Read a METIS graph file into a frozen CsrGraph. `options.weighted` is
/// ignored (the header's fmt field decides).
CsrGraph readMetisCsr(const std::string& path,
                      const ParseOptions& options = {});

/// Same parser over an in-memory buffer (`name` is used in error
/// messages). This is the entry point the fuzz tests drive.
CsrGraph parseMetisCsr(const char* data, std::size_t size,
                       const std::string& name,
                       const ParseOptions& options = {});

} // namespace grapr::io
