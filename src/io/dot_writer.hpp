#pragma once
// Graphviz DOT output for community graphs (paper Figure 11): the coarse
// graph induced by a community detection solution, node sizes proportional
// to community sizes. Intended for qualitative inspection of resolution
// differences between PLP / PLM / PLMR / EPP.

#include <string>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "structures/partition.hpp"

namespace grapr::io {

/// Write g as plain DOT (undirected, weights as edge labels when weighted).
void writeDot(const Graph& g, const std::string& path);

/// Write the community graph of (g, zeta): one DOT node per community with
/// width/label scaled by community size; edge thickness by inter-community
/// weight. zeta must be compacted (ids < upperBound, consecutive).
void writeCommunityGraphDot(const CsrGraph& communityGraph,
                            const std::vector<count>& communitySizes,
                            const std::string& path);

} // namespace grapr::io
