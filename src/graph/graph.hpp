#pragma once
// General-purpose adjacency-list graph, modelled on the data structure the
// paper builds its framework on (§IV-A): per-node std::vector adjacencies,
// optional edge weights, efficient node/edge insertion and deletion, and a
// high-level interface of (parallel) iteration methods that receive a
// callable and apply it to all elements.
//
// Graphs are undirected. Every non-loop edge {u,v} is stored in both
// adjacency lists; a self-loop {u,u} is stored once. Edge weights, when the
// graph is weighted, are stored positionally parallel to the adjacency
// arrays. Unweighted graphs report weight 1.0 per edge and skip the weight
// arrays entirely.

#include <cstdint>
#include <utility>
#include <vector>

#include <omp.h>

#include "support/common.hpp"
#include "support/view_check.hpp"

namespace grapr {

class Graph {
public:
    /// An empty graph with n isolated nodes.
    explicit Graph(count n = 0, bool weighted = false);

    // --- size and flags ---------------------------------------------------

    /// Number of existing nodes.
    count numberOfNodes() const noexcept { return n_; }
    /// Number of undirected edges (a self-loop counts as one edge).
    count numberOfEdges() const noexcept { return m_; }
    /// Number of self-loops.
    count numberOfSelfLoops() const noexcept { return selfLoops_; }
    /// Upper bound for node ids: ids are in [0, upperNodeIdBound()), some of
    /// which may have been removed.
    count upperNodeIdBound() const noexcept { return adjacency_.size(); }

    bool isWeighted() const noexcept { return weighted_; }
    bool isEmpty() const noexcept { return n_ == 0; }

    /// Does node id v refer to an existing node?
    bool hasNode(node v) const noexcept {
        return v < exists_.size() && exists_[v];
    }

    // --- structural updates ------------------------------------------------

    // Mutators carry a hidden defaulted std::source_location parameter in
    // GRAPR_VIEW_CHECK builds (expanded by GRAPR_VIEW_SITE_PARAM) so a
    // stale frozen view can report where its source graph mutated.

    /// Add an isolated node; returns its id.
    node addNode(GRAPR_VIEW_SITE_PARAM0);

    /// Remove a node and all incident edges. O(sum of neighbor degrees).
    void removeNode(node v GRAPR_VIEW_SITE_PARAM);

    /// Add undirected edge {u,v} with weight w (ignored when unweighted).
    /// Precondition: the edge does not already exist (checked only in
    /// addEdgeChecked); duplicate insertion creates a multi-edge.
    void addEdge(node u, node v, edgeweight w = 1.0 GRAPR_VIEW_SITE_PARAM);

    /// Like addEdge but returns false (and does nothing) if {u,v} exists.
    bool addEdgeChecked(node u, node v,
                        edgeweight w = 1.0 GRAPR_VIEW_SITE_PARAM);

    /// Remove undirected edge {u,v}; precondition: it exists.
    void removeEdge(node u, node v GRAPR_VIEW_SITE_PARAM);

    /// Does the edge {u,v} exist? O(min(deg(u), deg(v))), dropping to
    /// O(log min(deg(u), deg(v))) after sortNeighborLists() while the
    /// graph stays unmodified (see hasSortedNeighborLists).
    bool hasEdge(node u, node v) const;

    /// Weight of edge {u,v}; 0 if absent, 1 for present edges of an
    /// unweighted graph.
    edgeweight weight(node u, node v) const;

    // --- degrees, weights, volumes -----------------------------------------

    /// Number of adjacency entries of v (self-loop counted once).
    count degree(node v) const noexcept {
        return adjacency_[v].size();
    }

    /// Sum of weights of edges incident to v, self-loop counted once.
    edgeweight weightedDegree(node v) const;

    /// vol(v) = weightedDegree(v) + weight of the self-loop again, i.e. the
    /// self-loop contributes 2·ω(v,v) (paper §III-B definition).
    edgeweight volume(node v) const;

    /// ω(E): total edge weight, self-loops counted once.
    edgeweight totalEdgeWeight() const noexcept { return totalWeight_; }

    // --- neighborhood access -----------------------------------------------

    /// i-th neighbor of v.
    node getIthNeighbor(node v, index i) const { return adjacency_[v][i]; }

    /// Weight of the i-th incident edge of v.
    edgeweight getIthNeighborWeight(node v, index i) const {
        return weighted_ ? weights_[v][i] : 1.0;
    }

    const std::vector<node>& neighbors(node v) const { return adjacency_[v]; }

    // --- iteration ---------------------------------------------------------

    /// Apply f(v) to every existing node, sequentially, ascending ids.
    template <typename F>
    void forNodes(F&& f) const {
        for (node v = 0; v < adjacency_.size(); ++v) {
            if (exists_[v]) f(v);
        }
    }

    /// Apply f(v) to every existing node in parallel (static schedule).
    template <typename F>
    void parallelForNodes(F&& f) const {
        const auto bound = static_cast<std::int64_t>(adjacency_.size());
#pragma omp parallel for default(none) shared(f, bound) schedule(static)
        for (std::int64_t v = 0; v < bound; ++v) {
            if (exists_[static_cast<node>(v)]) f(static_cast<node>(v));
        }
    }

    /// Apply f(v) to every existing node in parallel with guided scheduling
    /// — the load-balanced iteration the paper uses for scale-free degree
    /// distributions (§III-A implementation notes).
    template <typename F>
    void balancedParallelForNodes(F&& f) const {
        const auto bound = static_cast<std::int64_t>(adjacency_.size());
#pragma omp parallel for default(none) shared(f, bound) schedule(guided)
        for (std::int64_t v = 0; v < bound; ++v) {
            if (exists_[static_cast<node>(v)]) f(static_cast<node>(v));
        }
    }

    /// Apply f(u, v, w) to every undirected edge exactly once (u <= v).
    template <typename F>
    void forEdges(F&& f) const {
        for (node u = 0; u < adjacency_.size(); ++u) {
            if (!exists_[u]) continue;
            const auto& adj = adjacency_[u];
            for (index i = 0; i < adj.size(); ++i) {
                const node v = adj[i];
                if (v >= u) f(u, v, weighted_ ? weights_[u][i] : 1.0);
            }
        }
    }

    /// Parallel edge iteration, each undirected edge visited exactly once.
    template <typename F>
    void parallelForEdges(F&& f) const {
        const auto bound = static_cast<std::int64_t>(adjacency_.size());
#pragma omp parallel for default(none) shared(f, bound) schedule(guided)
        for (std::int64_t su = 0; su < bound; ++su) {
            const node u = static_cast<node>(su);
            if (!exists_[u]) continue;
            const auto& adj = adjacency_[u];
            for (index i = 0; i < adj.size(); ++i) {
                const node v = adj[i];
                if (v >= u) f(u, v, weighted_ ? weights_[u][i] : 1.0);
            }
        }
    }

    /// Apply f(v, w) to every neighbor of u (self-loop delivered once).
    template <typename F>
    void forNeighborsOf(node u, F&& f) const {
        const auto& adj = adjacency_[u];
        if (weighted_) {
            const auto& wts = weights_[u];
            for (index i = 0; i < adj.size(); ++i) f(adj[i], wts[i]);
        } else {
            for (index i = 0; i < adj.size(); ++i) f(adj[i], 1.0);
        }
    }

    // --- whole-graph helpers -----------------------------------------------

    /// List of existing node ids.
    std::vector<node> nodeIds() const;

    /// Structural equality: same node set, same edge multiset with equal
    /// weights (order-insensitive). Intended for tests and I/O round-trips.
    bool structurallyEquals(const Graph& other) const;

    /// Reserve adjacency capacity for node v.
    void reserveNeighbors(node v, count capacity);

    /// Sort every adjacency list by neighbor id (weights permuted along).
    /// Improves scan locality and switches hasEdge/weight membership
    /// lookups to binary search; invalidates positional neighbor indices.
    /// Counts as a mutation for the view-lifecycle contract: frozen views
    /// preserve pre-sort adjacency order, so positional reads diverge.
    void sortNeighborLists(GRAPR_VIEW_SITE_PARAM0);

    /// True while every adjacency list is sorted ascending: set by
    /// sortNeighborLists() (and trivially on construction), cleared by any
    /// structural edge update. Frozen-style workloads sort once and keep
    /// O(log deg) membership queries from then on.
    bool hasSortedNeighborLists() const noexcept { return sorted_; }

    /// Validate internal invariants (degree symmetry, weight array sizes,
    /// edge/weight totals); throws on violation. Used by tests and after
    /// deserialization.
    void checkConsistency() const;

private:
    count n_;                // existing nodes
    count m_ = 0;            // undirected edges
    count selfLoops_ = 0;
    bool weighted_;
    edgeweight totalWeight_ = 0.0;
    std::vector<std::vector<node>> adjacency_;
    std::vector<std::vector<edgeweight>> weights_; // empty when unweighted
    std::vector<std::uint8_t> exists_;
    bool sorted_ = true; // empty adjacency lists are trivially sorted
#ifdef GRAPR_VIEW_CHECK
    // Mutation generation cell shared with every CsrGraph frozen from this
    // graph (see support/view_check.hpp). Copies get a fresh cell.
    view::SourceStamp viewSourceStamp_;
#endif

    /// Index of v in u's adjacency list, or none-like npos. Binary search
    /// when sorted_, linear scan otherwise.
    index indexOfNeighbor(node u, node v) const;

    friend class GraphBuilder;
    friend class CsrGraph;
};

} // namespace grapr
