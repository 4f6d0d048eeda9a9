#include "graph/graph_tools.hpp"

#include <algorithm>
#include <limits>

#include "support/random.hpp"

namespace grapr::GraphTools {

DegreeStatistics degreeStatistics(const Graph& g) {
    DegreeStatistics stats;
    if (g.isEmpty()) return stats;
    count minimum = std::numeric_limits<count>::max();
    count maximum = 0;
    count total = 0;
    g.forNodes([&](node v) {
        const count d = g.degree(v);
        minimum = std::min(minimum, d);
        maximum = std::max(maximum, d);
        total += d;
    });
    stats.minimum = minimum;
    stats.maximum = maximum;
    stats.average =
        static_cast<double>(total) / static_cast<double>(g.numberOfNodes());
    return stats;
}

node maxDegreeNode(const Graph& g) {
    node best = none;
    count bestDegree = 0;
    g.forNodes([&](node v) {
        if (best == none || g.degree(v) > bestDegree) {
            best = v;
            bestDegree = g.degree(v);
        }
    });
    return best;
}

edgeweight totalVolume(const Graph& g) {
    edgeweight total = 0.0;
    g.forNodes([&](node v) { total += g.volume(v); });
    return total;
}

std::pair<Graph, std::vector<node>> compact(const Graph& g) {
    std::vector<node> map(g.upperNodeIdBound(), none);
    node next = 0;
    g.forNodes([&](node v) { map[v] = next++; });
    Graph result(next, g.isWeighted());
    g.forEdges([&](node u, node v, edgeweight w) {
        result.addEdge(map[u], map[v], w);
    });
    return {std::move(result), std::move(map)};
}

std::pair<Graph, std::vector<node>> inducedSubgraph(
    const Graph& g, const std::vector<node>& nodes) {
    std::vector<node> map(g.upperNodeIdBound(), none);
    for (index i = 0; i < nodes.size(); ++i) {
        require(g.hasNode(nodes[i]), "inducedSubgraph: node does not exist");
        require(map[nodes[i]] == none, "inducedSubgraph: duplicate node");
        map[nodes[i]] = static_cast<node>(i);
    }
    Graph sub(nodes.size(), g.isWeighted());
    for (node v : nodes) {
        g.forNeighborsOf(v, [&](node u, edgeweight w) {
            if (map[u] == none) return;
            // Each non-loop edge is seen from both endpoints; add once.
            if (u == v || map[v] < map[u]) sub.addEdge(map[v], map[u], w);
        });
    }
    return {std::move(sub), std::move(map)};
}

std::vector<node> randomNodeOrder(const CsrGraph& g) {
    std::vector<node> order = g.nodeIds();
    Random::shuffle(order.begin(), order.end());
    return order;
}

node randomNode(const Graph& g) {
    if (g.isEmpty()) return none;
    // Rejection sampling over the id range; fine because removals are rare.
    for (;;) {
        const node v =
            static_cast<node>(Random::integer(g.upperNodeIdBound()));
        if (g.hasNode(v)) return v;
    }
}

void sortAdjacencies(Graph& g) { g.sortNeighborLists(); }

} // namespace grapr::GraphTools
