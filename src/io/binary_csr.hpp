#pragma once
// Binary CSR checkpoint format ("GCSR") — the on-disk twin of a frozen
// CsrGraph, used by StreamingGraph durability as the checkpoint the WAL
// tail replays against, and the seed of the ROADMAP CSR-on-disk format.
//
// It is also the one binary graph format: the CLI reads and writes it as
// `.gcsr`, and the benchmarks cache generated instances in it.
//
// Layout (native byte order — a checkpoint is a local durability
// artifact, not an interchange file; 8-byte-aligned arrays):
//
//   offset  size                 field
//   0       4                    magic "GCSR"
//   4       4   u32              format version (1)
//   8       8   u64              stream generation the arrays represent
//   16      8   u64              bound     = upperNodeIdBound()
//   24      8   u64              halfEdges = offsets[bound]
//   32      1   u8               weighted flag
//   33      7                    zero padding
//   40      8*(bound+1)  u64[]   offsets
//   ...     4*halfEdges  u32[]   neighbors
//   ...     0 or 4               zero padding to 8-byte alignment
//   ...     8*halfEdges  f64[]   weights          (weighted files only)
//   end-4   4   u32              CRC-32 of everything before it
//
// A checkpoint is written ATOMICALLY: the bytes go to `<path>.tmp` in the
// same directory, are fsync'd, and only then rename()d over `path`
// (followed by an fsync of the directory). A crash mid-write leaves at
// most a stale .tmp file, never a half-written checkpoint under the
// final name; the trailing CRC makes any surviving file verifiably
// complete or rejected as a whole.
//
// Loading goes through MappedFile, so a reopen is zero-parse: headers
// are validated, the CRC is checked, and the arrays are copied straight
// out of the mapping into the CsrGraph vectors.

#include <cstdint>
#include <string>

#include "graph/csr_graph.hpp"

namespace grapr::io {

/// A loaded checkpoint: the frozen arrays plus the stream generation
/// they represent.
struct BinaryCsrSnapshot {
    CsrGraph graph;
    std::uint64_t generation = 0;
};

/// Write `g` (tagged with `generation`) to `path` atomically. Throws
/// IoError (with path and byte offset) on any I/O failure; a failed
/// write never disturbs an existing file at `path`.
void writeBinaryCsr(const CsrGraph& g, std::uint64_t generation,
                    const std::string& path);

/// Load a checkpoint written by writeBinaryCsr. Throws IoError when the
/// file is missing, truncated, version-mismatched, structurally invalid,
/// or fails its CRC.
BinaryCsrSnapshot readBinaryCsr(const std::string& path);

} // namespace grapr::io
