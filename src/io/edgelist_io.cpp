#include "io/edgelist_io.hpp"

#include <fstream>
#include <ios>

#include "io/io_error.hpp"
#include "io/parallel_edgelist.hpp"
#include "io/text_scanner.hpp"
#include "support/fault.hpp"

namespace grapr::io {

Graph readEdgeList(const std::string& path, const ParseOptions& options,
                   std::vector<std::uint64_t>* originalIds) {
    // Route through the parallel mmap pipeline (parallel_edgelist.hpp):
    // chunked tokenisation, two-pass CSR build, then one thaw back into
    // the mutable Graph for this adjacency-list-returning API. Semantics
    // (first-appearance remap, "grapr edge list: n=" header handling,
    // directed-input dedup, strict errors) are unchanged; errors are now
    // IoError with the exact line and byte offset.
    return readEdgeListCsr(path, options, originalIds).toGraph();
}

void writeEdgeList(const Graph& g, const std::string& path, bool withWeights) {
    std::ofstream out(path, std::ios::binary);
    if (!out) throw IoError(path, 0, 0, "writeEdgeList: cannot open for writing");
    // Track the last position the stream was known-good at, so a short
    // write (ENOSPC, quota, dying disk) reports where the file ends. The
    // old code checked the stream only once, after the loop — a full-disk
    // failure was silently swallowed until (and sometimes past) close.
    count lastGood = 0;
    const auto checkStream = [&](const char* what) {
        if (!out) throw IoError(path, 0, lastGood, std::string(what) +
                                " failed (disk full?)");
        lastGood = static_cast<count>(out.tellp());
    };
    out << "# grapr edge list: n=" << g.numberOfNodes()
        << " m=" << g.numberOfEdges() << "\n";
    checkStream("writeEdgeList: header write");
    count row = 0;
    g.forEdges([&](node u, node v, edgeweight w) {
        if (GRAPR_FAULT_INJECT("io.write.edgelist")) {
            out.setstate(std::ios::badbit); // simulated ENOSPC
        }
        out << u << '\t' << v;
        // Shortest round-trip form: re-reading restores w bit-exactly.
        if (withWeights) out << '\t' << scan::formatWeight(w);
        out << '\n';
        // Checking every row would tellp() per edge; every 1024 rows
        // keeps the reported offset within one block of the failure.
        if ((++row & 1023u) == 0) checkStream("writeEdgeList: row write");
    });
    out.flush();
    checkStream("writeEdgeList: flush");
    out.close();
    if (out.fail()) {
        throw IoError(path, 0, lastGood, "writeEdgeList: close failed");
    }
}

} // namespace grapr::io
