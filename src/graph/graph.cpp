#include "graph/graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace grapr {

namespace {
constexpr index npos = std::numeric_limits<index>::max();
} // namespace

Graph::Graph(count n, bool weighted)
    : n_(n),
      weighted_(weighted),
      adjacency_(n),
      weights_(weighted ? n : 0),
      exists_(n, 1) {}

node Graph::addNode(GRAPR_VIEW_SITE_ARG0) {
    GRAPR_VIEW_BUMP(viewSourceStamp_);
    const node v = static_cast<node>(adjacency_.size());
    adjacency_.emplace_back();
    if (weighted_) weights_.emplace_back();
    exists_.push_back(1);
    ++n_;
    return v;
}

void Graph::removeNode(node v GRAPR_VIEW_SITE_ARG) {
    require(hasNode(v), "removeNode: node does not exist");
    // Remove edges incident to v; iterate over a copy because removeEdge
    // mutates adjacency_[v].
    std::vector<node> incident = adjacency_[v];
    // A self-loop appears once in incident; non-loop neighbors once each.
    for (node u : incident) {
        // Multi-edges: removeEdge removes one instance per call, and
        // `incident` lists one entry per instance, so all go.
        removeEdge(v, u GRAPR_VIEW_SITE_FWD);
    }
    GRAPR_VIEW_BUMP(viewSourceStamp_);
    exists_[v] = 0;
    --n_;
}

void Graph::addEdge(node u, node v, edgeweight w GRAPR_VIEW_SITE_ARG) {
    require(hasNode(u) && hasNode(v), "addEdge: node does not exist");
    GRAPR_VIEW_BUMP(viewSourceStamp_);
    if (!weighted_) w = 1.0;
    sorted_ = false;
    adjacency_[u].push_back(v);
    if (weighted_) weights_[u].push_back(w);
    if (u != v) {
        adjacency_[v].push_back(u);
        if (weighted_) weights_[v].push_back(w);
    } else {
        ++selfLoops_;
    }
    ++m_;
    totalWeight_ += w;
}

bool Graph::addEdgeChecked(node u, node v, edgeweight w GRAPR_VIEW_SITE_ARG) {
    if (hasEdge(u, v)) return false;
    addEdge(u, v, w GRAPR_VIEW_SITE_FWD);
    return true;
}

index Graph::indexOfNeighbor(node u, node v) const {
    const auto& adj = adjacency_[u];
    if (sorted_) {
        const auto it = std::lower_bound(adj.begin(), adj.end(), v);
        if (it != adj.end() && *it == v) {
            return static_cast<index>(it - adj.begin());
        }
        return npos;
    }
    for (index i = 0; i < adj.size(); ++i) {
        if (adj[i] == v) return i;
    }
    return npos;
}

void Graph::removeEdge(node u, node v GRAPR_VIEW_SITE_ARG) {
    const index iu = indexOfNeighbor(u, v);
    require(iu != npos, "removeEdge: edge does not exist");
    const edgeweight w = weighted_ ? weights_[u][iu] : 1.0;

    GRAPR_VIEW_BUMP(viewSourceStamp_);
    sorted_ = false; // swap-with-back removal breaks the order below
    auto dropAt = [this](node x, index i) {
        auto& adj = adjacency_[x];
        adj[i] = adj.back();
        adj.pop_back();
        if (weighted_) {
            auto& wts = weights_[x];
            wts[i] = wts.back();
            wts.pop_back();
        }
    };

    dropAt(u, iu);
    if (u != v) {
        // On a multi-edge, drop the instance of v's row that carries the
        // removed weight: swap-with-back removals reorder the instances of
        // one row independently of the other, so v's first instance need
        // not be the one just taken from u's row.
        const auto& adj = adjacency_[v];
        index iv = npos;
        for (index i = 0; i < adj.size(); ++i) {
            if (adj[i] != u) continue;
            if (iv == npos) iv = i; // no weight matches: the first instance
            if (!weighted_ || std::bit_cast<std::uint64_t>(weights_[v][i]) ==
                                  std::bit_cast<std::uint64_t>(w)) {
                iv = i;
                break;
            }
        }
        require(iv != npos, "removeEdge: asymmetric adjacency");
        dropAt(v, iv);
    } else {
        --selfLoops_;
    }
    --m_;
    totalWeight_ -= w;
}

bool Graph::hasEdge(node u, node v) const {
    if (!hasNode(u) || !hasNode(v)) return false;
    if (degree(u) > degree(v)) std::swap(u, v);
    return indexOfNeighbor(u, v) != npos;
}

edgeweight Graph::weight(node u, node v) const {
    const index iu = indexOfNeighbor(u, v);
    if (iu == npos) return 0.0;
    return weighted_ ? weights_[u][iu] : 1.0;
}

edgeweight Graph::weightedDegree(node v) const {
    if (!weighted_) return static_cast<edgeweight>(degree(v));
    edgeweight total = 0.0;
    for (edgeweight w : weights_[v]) total += w;
    return total;
}

edgeweight Graph::volume(node v) const {
    return weightedDegree(v) + weight(v, v);
}

std::vector<node> Graph::nodeIds() const {
    std::vector<node> ids;
    ids.reserve(n_);
    forNodes([&](node v) { ids.push_back(v); });
    return ids;
}

void Graph::reserveNeighbors(node v, count capacity) {
    adjacency_[v].reserve(capacity);
    if (weighted_) weights_[v].reserve(capacity);
}

void Graph::sortNeighborLists(GRAPR_VIEW_SITE_ARG0) {
    // A mutation for the view contract: frozen views keep pre-sort
    // adjacency order, so positional reads would silently diverge.
    GRAPR_VIEW_BUMP(viewSourceStamp_);
    const auto bound = static_cast<std::int64_t>(adjacency_.size());
#pragma omp parallel for default(none) shared(bound) schedule(guided)
    for (std::int64_t sv = 0; sv < bound; ++sv) {
        const auto v = static_cast<std::size_t>(sv);
        auto& adj = adjacency_[v];
        if (!weighted_) {
            std::sort(adj.begin(), adj.end());
            continue;
        }
        auto& wts = weights_[v];
        std::vector<index> order(adj.size());
        for (index i = 0; i < order.size(); ++i) order[i] = i;
        std::sort(order.begin(), order.end(),
                  [&](index a, index b) { return adj[a] < adj[b]; });
        std::vector<node> newAdj(adj.size());
        std::vector<edgeweight> newWts(wts.size());
        for (index i = 0; i < order.size(); ++i) {
            newAdj[i] = adj[order[i]];
            newWts[i] = wts[order[i]];
        }
        adj = std::move(newAdj);
        wts = std::move(newWts);
    }
    sorted_ = true;
}

bool Graph::structurallyEquals(const Graph& other) const {
    if (numberOfNodes() != other.numberOfNodes()) return false;
    if (numberOfEdges() != other.numberOfEdges()) return false;
    if (upperNodeIdBound() != other.upperNodeIdBound()) return false;
    for (node v = 0; v < upperNodeIdBound(); ++v) {
        if (hasNode(v) != other.hasNode(v)) return false;
        if (!hasNode(v)) continue;
        if (degree(v) != other.degree(v)) return false;
        // Compare sorted (neighbor, weight) sequences.
        std::vector<std::pair<node, edgeweight>> a, b;
        forNeighborsOf(v, [&](node u, edgeweight w) { a.emplace_back(u, w); });
        other.forNeighborsOf(v,
                             [&](node u, edgeweight w) { b.emplace_back(u, w); });
        std::sort(a.begin(), a.end());
        std::sort(b.begin(), b.end());
        for (index i = 0; i < a.size(); ++i) {
            if (a[i].first != b[i].first) return false;
            if (std::abs(a[i].second - b[i].second) > 1e-9) return false;
        }
    }
    return true;
}

void Graph::checkConsistency() const {
    count nodes = 0;
    count halfEdges = 0;
    count loops = 0;
    long double weightTwice = 0.0L; // non-loop edges counted twice
    long double loopWeight = 0.0L;
    for (node v = 0; v < adjacency_.size(); ++v) {
        if (!exists_[v]) {
            require(adjacency_[v].empty(),
                    "consistency: removed node has adjacency entries");
            continue;
        }
        ++nodes;
        if (weighted_) {
            require(adjacency_[v].size() == weights_[v].size(),
                    "consistency: weight array size mismatch");
        }
        for (index i = 0; i < adjacency_[v].size(); ++i) {
            const node u = adjacency_[v][i];
            require(hasNode(u), "consistency: edge to removed node");
            const edgeweight w = weighted_ ? weights_[v][i] : 1.0;
            if (u == v) {
                ++loops;
                loopWeight += w;
                ++halfEdges; // loop stored once
            } else {
                require(hasEdge(u, v), "consistency: asymmetric edge");
                weightTwice += w;
                ++halfEdges;
            }
        }
    }
    require(nodes == n_, "consistency: node count mismatch");
    require(loops == selfLoops_, "consistency: self-loop count mismatch");
    const count expectedHalf = 2 * (m_ - selfLoops_) + selfLoops_;
    require(halfEdges == expectedHalf, "consistency: edge count mismatch");
    const long double expectedWeight = weightTwice / 2.0L + loopWeight;
    require(std::abs(static_cast<double>(expectedWeight) - totalWeight_) <
                1e-6 * (1.0 + std::abs(totalWeight_)),
            "consistency: total weight mismatch");
}

} // namespace grapr
