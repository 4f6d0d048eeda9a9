#pragma once
// Parallel graph construction.
//
// Generators produce edges concurrently; inserting them into Graph's
// per-node vectors directly would need a lock per node. GraphBuilder
// instead buffers (u, v, w) triples in per-thread arrays, then assembles
// the adjacency structure in three parallel passes:
//   1. count the degree contribution of every triple (atomic increments),
//   2. size all adjacency arrays,
//   3. scatter the triples into their final slots (atomic slot counters).
// Optionally deduplicates parallel edges (keeping one instance) — R-MAT
// and configuration-model generators emit duplicates by construction.

#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "support/common.hpp"

namespace grapr {

class GraphBuilder {
public:
    /// Builder for a graph with n nodes.
    explicit GraphBuilder(count n, bool weighted = false);

    count numberOfNodes() const noexcept { return n_; }

    /// Thread-safe: record undirected edge {u, v}. May be called from any
    /// OpenMP thread inside a parallel region.
    void addEdge(node u, node v, edgeweight w = 1.0);

    /// Number of triples buffered so far (all threads).
    count bufferedEdges() const;

    /// Assemble the Graph. `dedup` removes parallel edges; the surviving
    /// instance keeps one duplicate's weight. The builder is consumed.
    Graph build(bool dedup = false);

private:
    struct Triple {
        node u;
        node v;
        edgeweight w;
    };

    count n_;
    bool weighted_;
    std::vector<std::vector<Triple>> perThread_;
    // Overflow path for threads beyond the pool sized at construction time
    // (the thread count can be raised between ctor and addEdge). Guarded by
    // a lock — falling back to another thread's buffer would race.
    std::mutex overflowLock_;
    std::vector<Triple> overflow_;
};

} // namespace grapr
