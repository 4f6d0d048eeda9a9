#pragma once
// Whitespace-separated edge list I/O ("u v [w]" per line, '#' or '%'
// comments). The format of the SNAP collection the paper draws two of its
// networks from. Node ids in the file may be sparse; the reader remaps them
// to consecutive ids and can report the mapping.

#include <string>
#include <vector>

#include "graph/graph.hpp"
#include "io/parse_options.hpp"

namespace grapr::io {

/// Read an edge list. Returns the graph; if `originalIds` is non-null it
/// receives the original id of every remapped node.
Graph readEdgeList(const std::string& path, const ParseOptions& options = {},
                   std::vector<std::uint64_t>* originalIds = nullptr);

/// Write g as "u v [w]" lines (each undirected edge once).
void writeEdgeList(const Graph& g, const std::string& path,
                   bool withWeights = false);

} // namespace grapr::io
