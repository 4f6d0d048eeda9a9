#pragma once
// Whole-graph utilities: degree statistics, compaction of node ids after
// deletions, subgraph extraction, and randomized node orders of a frozen
// graph (PLP's upfront shuffle, and the sequential baselines, which —
// unlike PLM — explicitly randomize their traversal order).

#include <vector>

#include "graph/csr_graph.hpp"
#include "graph/graph.hpp"
#include "support/common.hpp"

namespace grapr::GraphTools {

struct DegreeStatistics {
    count minimum = 0;
    count maximum = 0;
    double average = 0.0;
};

/// Min / max / average degree over existing nodes.
DegreeStatistics degreeStatistics(const Graph& g);

/// Node with the highest degree (smallest id wins ties); none if empty.
node maxDegreeNode(const Graph& g);

/// Sum of node volumes = 2·ω(E) (checks out against totalEdgeWeight).
edgeweight totalVolume(const Graph& g);

/// Copy of g with node ids compacted to [0, n) (removed ids squeezed out).
/// Returns the compacted graph and the old-id -> new-id map (none for
/// removed nodes).
std::pair<Graph, std::vector<node>> compact(const Graph& g);

/// Node-induced subgraph; `nodes` must contain existing, distinct ids.
/// Returned graph has ids [0, nodes.size()) in the order given, plus the
/// mapping old -> new.
std::pair<Graph, std::vector<node>> inducedSubgraph(
    const Graph& g, const std::vector<node>& nodes);

/// Existing node ids in uniformly random order (thread-local RNG).
std::vector<node> randomNodeOrder(const CsrGraph& g);

/// A uniformly random existing node; none if the graph is empty.
node randomNode(const Graph& g);

/// Sort every adjacency list ascending (improves locality for repeated
/// scans; invalidates positional indices).
void sortAdjacencies(Graph& g);

} // namespace grapr::GraphTools
