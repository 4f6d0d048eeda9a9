// Unit tests for the Graph data structure, GraphBuilder and GraphTools.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "graph/graph.hpp"
#include "graph/graph_builder.hpp"
#include "graph/graph_tools.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

Graph triangleWithTail() {
    // 0-1-2 triangle, 2-3 tail.
    Graph g(4, false);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    g.addEdge(2, 3);
    return g;
}

} // namespace

TEST(Graph, EmptyConstruction) {
    Graph g(0, false);
    EXPECT_TRUE(g.isEmpty());
    EXPECT_EQ(g.numberOfNodes(), 0u);
    EXPECT_EQ(g.numberOfEdges(), 0u);
    g.checkConsistency();
}

TEST(Graph, AddEdgeBasics) {
    Graph g = triangleWithTail();
    EXPECT_EQ(g.numberOfNodes(), 4u);
    EXPECT_EQ(g.numberOfEdges(), 4u);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 3));
    EXPECT_EQ(g.degree(2), 3u);
    EXPECT_EQ(g.degree(3), 1u);
    g.checkConsistency();
}

TEST(Graph, UnweightedWeightIsOne) {
    Graph g = triangleWithTail();
    EXPECT_DOUBLE_EQ(g.weight(0, 1), 1.0);
    EXPECT_DOUBLE_EQ(g.weight(0, 3), 0.0);
    EXPECT_DOUBLE_EQ(g.totalEdgeWeight(), 4.0);
}

TEST(Graph, WeightedEdges) {
    Graph g(3, true);
    g.addEdge(0, 1, 2.5);
    g.addEdge(1, 2, 0.5);
    EXPECT_DOUBLE_EQ(g.weight(0, 1), 2.5);
    EXPECT_DOUBLE_EQ(g.weight(1, 0), 2.5);
    EXPECT_DOUBLE_EQ(g.totalEdgeWeight(), 3.0);
    EXPECT_DOUBLE_EQ(g.weightedDegree(1), 3.0);
    g.checkConsistency();
}

TEST(Graph, SelfLoopSemantics) {
    // Paper definition: vol(u) counts the self-loop twice.
    Graph g(2, true);
    g.addEdge(0, 0, 3.0);
    g.addEdge(0, 1, 1.0);
    EXPECT_EQ(g.numberOfSelfLoops(), 1u);
    EXPECT_EQ(g.numberOfEdges(), 2u);
    EXPECT_EQ(g.degree(0), 2u); // loop stored once
    EXPECT_DOUBLE_EQ(g.weightedDegree(0), 4.0);
    EXPECT_DOUBLE_EQ(g.volume(0), 7.0); // 4 + 3 again
    EXPECT_DOUBLE_EQ(g.totalEdgeWeight(), 4.0);
    g.checkConsistency();
}

TEST(Graph, VolumeIdentity) {
    // Sum of volumes == 2 * total edge weight, loops included.
    Graph g(3, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 3.0);
    g.addEdge(2, 2, 1.5);
    EXPECT_DOUBLE_EQ(GraphTools::totalVolume(g), 2.0 * g.totalEdgeWeight());
}

TEST(Graph, RemoveEdge) {
    Graph g = triangleWithTail();
    g.removeEdge(0, 1);
    EXPECT_FALSE(g.hasEdge(0, 1));
    EXPECT_EQ(g.numberOfEdges(), 3u);
    EXPECT_EQ(g.degree(0), 1u);
    g.checkConsistency();
    EXPECT_THROW(g.removeEdge(0, 1), std::runtime_error);
}

TEST(Graph, RemoveSelfLoop) {
    Graph g(2, false);
    g.addEdge(0, 0);
    g.addEdge(0, 1);
    g.removeEdge(0, 0);
    EXPECT_EQ(g.numberOfSelfLoops(), 0u);
    EXPECT_EQ(g.numberOfEdges(), 1u);
    g.checkConsistency();
}

TEST(Graph, RemoveOneInstanceOfRepeatedEdgeFromBothRows) {
    // Removing {0,2} swaps row 0's last entry, {0,1} weight 2, ahead of
    // {0,1} weight 1, while row 1 keeps its instances in insertion order.
    // Removing {0,1} must then drop the same instance from both rows.
    Graph g(3, true);
    g.addEdge(0, 2, 9.0);
    g.addEdge(0, 1, 1.0);
    g.addEdge(0, 1, 2.0);
    g.removeEdge(0, 2);
    g.removeEdge(0, 1);
    EXPECT_EQ(g.numberOfEdges(), 1u);
    EXPECT_EQ(g.degree(0), 1u);
    EXPECT_EQ(g.degree(1), 1u);
    EXPECT_DOUBLE_EQ(g.weight(0, 1), g.weight(1, 0));
    EXPECT_DOUBLE_EQ(g.totalEdgeWeight(), g.weight(0, 1));
    g.checkConsistency();
}

TEST(Graph, RemoveNode) {
    Graph g = triangleWithTail();
    g.removeNode(2);
    EXPECT_EQ(g.numberOfNodes(), 3u);
    EXPECT_FALSE(g.hasNode(2));
    EXPECT_EQ(g.numberOfEdges(), 1u); // only 0-1 remains
    EXPECT_EQ(g.degree(3), 0u);
    g.checkConsistency();
}

TEST(Graph, AddNodeAfterRemoval) {
    Graph g = triangleWithTail();
    g.removeNode(3);
    const node v = g.addNode();
    EXPECT_EQ(v, 4u);
    EXPECT_TRUE(g.hasNode(4));
    g.addEdge(4, 0);
    EXPECT_TRUE(g.hasEdge(0, 4));
    g.checkConsistency();
}

TEST(Graph, AddEdgeChecked) {
    Graph g(3, false);
    EXPECT_TRUE(g.addEdgeChecked(0, 1));
    EXPECT_FALSE(g.addEdgeChecked(0, 1));
    EXPECT_FALSE(g.addEdgeChecked(1, 0));
    EXPECT_EQ(g.numberOfEdges(), 1u);
}

TEST(Graph, ForEdgesVisitsEachOnce) {
    Graph g = triangleWithTail();
    g.addEdge(3, 3); // loop
    std::set<std::pair<node, node>> seen;
    g.forEdges([&](node u, node v, edgeweight w) {
        EXPECT_DOUBLE_EQ(w, 1.0);
        EXPECT_TRUE(seen.emplace(u, v).second) << "edge visited twice";
    });
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Graph, ParallelForEdgesMatchesSequential) {
    Random::setSeed(11);
    Graph g(200, false);
    for (int i = 0; i < 500; ++i) {
        const node u = static_cast<node>(Random::integer(200));
        const node v = static_cast<node>(Random::integer(200));
        if (!g.hasEdge(u, v)) g.addEdge(u, v);
    }
    count sequential = 0;
    g.forEdges([&](node, node, edgeweight) { ++sequential; });
    std::atomic<count> parallel{0};
    g.parallelForEdges([&](node, node, edgeweight) { ++parallel; });
    EXPECT_EQ(sequential, g.numberOfEdges());
    EXPECT_EQ(parallel.load(), g.numberOfEdges());
}

TEST(Graph, ForNeighborsDeliversWeights) {
    Graph g(3, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(0, 2, 3.0);
    double total = 0.0;
    g.forNeighborsOf(0, [&](node, edgeweight w) { total += w; });
    EXPECT_DOUBLE_EQ(total, 5.0);
}

TEST(Graph, NodeIdsSkipsRemoved) {
    Graph g = triangleWithTail();
    g.removeNode(1);
    EXPECT_EQ(g.nodeIds(), (std::vector<node>{0, 2, 3}));
}

TEST(Graph, StructurallyEqualsDetectsDifference) {
    Graph a = triangleWithTail();
    Graph b = triangleWithTail();
    EXPECT_TRUE(a.structurallyEquals(b));
    b.removeEdge(2, 3);
    b.addEdge(1, 3);
    EXPECT_FALSE(a.structurallyEquals(b));
}

TEST(Graph, SortNeighborListsKeepsWeights) {
    Graph g(4, true);
    g.addEdge(0, 3, 3.0);
    g.addEdge(0, 1, 1.0);
    g.addEdge(0, 2, 2.0);
    g.sortNeighborLists();
    EXPECT_EQ(g.getIthNeighbor(0, 0), 1u);
    EXPECT_DOUBLE_EQ(g.getIthNeighborWeight(0, 0), 1.0);
    EXPECT_EQ(g.getIthNeighbor(0, 2), 3u);
    EXPECT_DOUBLE_EQ(g.getIthNeighborWeight(0, 2), 3.0);
    g.checkConsistency();
}

TEST(Graph, AddEdgeToMissingNodeThrows) {
    Graph g(2, false);
    EXPECT_THROW(g.addEdge(0, 5), std::runtime_error);
    g.removeNode(1);
    EXPECT_THROW(g.addEdge(0, 1), std::runtime_error);
}

TEST(GraphBuilder, BuildsFromTriples) {
    GraphBuilder builder(4, false);
    builder.addEdge(0, 1);
    builder.addEdge(2, 1);
    builder.addEdge(3, 3);
    Graph g = builder.build();
    EXPECT_EQ(g.numberOfEdges(), 3u);
    EXPECT_EQ(g.numberOfSelfLoops(), 1u);
    EXPECT_TRUE(g.hasEdge(1, 2));
    g.checkConsistency();
}

TEST(GraphBuilder, DedupRemovesDuplicatesBothOrientations) {
    GraphBuilder builder(3, false);
    builder.addEdge(0, 1);
    builder.addEdge(1, 0);
    builder.addEdge(0, 1);
    builder.addEdge(1, 2);
    Graph g = builder.build(/*dedup=*/true);
    EXPECT_EQ(g.numberOfEdges(), 2u);
    EXPECT_EQ(g.degree(0), 1u);
    g.checkConsistency();
}

TEST(GraphBuilder, ParallelInsertion) {
    const count n = 1000;
    GraphBuilder builder(n, false);
#pragma omp parallel for default(none) shared(builder, n)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n) - 1; ++v) {
        builder.addEdge(static_cast<node>(v), static_cast<node>(v + 1));
    }
    Graph g = builder.build();
    EXPECT_EQ(g.numberOfEdges(), n - 1);
    g.checkConsistency();
}

TEST(GraphBuilder, RejectsOutOfRangeIds) {
    GraphBuilder builder(2, false);
    builder.addEdge(0, 5);
    EXPECT_THROW(builder.build(), std::runtime_error);
}

TEST(GraphTools, DegreeStatistics) {
    Graph g = triangleWithTail();
    const auto stats = GraphTools::degreeStatistics(g);
    EXPECT_EQ(stats.minimum, 1u);
    EXPECT_EQ(stats.maximum, 3u);
    EXPECT_DOUBLE_EQ(stats.average, 2.0);
    EXPECT_EQ(GraphTools::maxDegreeNode(g), 2u);
}

TEST(GraphTools, CompactAfterRemoval) {
    Graph g = triangleWithTail();
    g.removeNode(1);
    auto [compacted, map] = GraphTools::compact(g);
    EXPECT_EQ(compacted.numberOfNodes(), 3u);
    EXPECT_EQ(compacted.upperNodeIdBound(), 3u);
    EXPECT_EQ(map[1], none);
    // edges 0-2 and 2-3 survive under new ids.
    EXPECT_TRUE(compacted.hasEdge(map[0], map[2]));
    EXPECT_TRUE(compacted.hasEdge(map[2], map[3]));
    compacted.checkConsistency();
}

TEST(GraphTools, InducedSubgraph) {
    Graph g = triangleWithTail();
    auto [sub, map] = GraphTools::inducedSubgraph(g, {0, 1, 2});
    EXPECT_EQ(sub.numberOfNodes(), 3u);
    EXPECT_EQ(sub.numberOfEdges(), 3u); // the triangle
    sub.checkConsistency();
}

TEST(GraphTools, InducedSubgraphRejectsDuplicates) {
    Graph g = triangleWithTail();
    EXPECT_THROW(GraphTools::inducedSubgraph(g, {0, 0}), std::runtime_error);
}

TEST(GraphTools, RandomNodeOrderIsPermutation) {
    Random::setSeed(12);
    Graph g(50, false);
    auto order = GraphTools::randomNodeOrder(CsrGraph(g));
    std::sort(order.begin(), order.end());
    EXPECT_EQ(order, g.nodeIds());
}

TEST(GraphTools, RandomNodeSkipsRemoved) {
    Random::setSeed(13);
    Graph g(10, false);
    for (node v = 0; v < 9; ++v) g.removeNode(v);
    for (int i = 0; i < 20; ++i) EXPECT_EQ(GraphTools::randomNode(g), 9u);
}

TEST(Graph, RandomOperationSequenceStaysConsistent) {
    // Fuzz-style: a random interleaving of insertions, deletions and node
    // removals must never break the structural invariants checked by
    // checkConsistency().
    Random::setSeed(200);
    Graph g(50, true);
    for (int step = 0; step < 2000; ++step) {
        const auto op = Random::integer(100);
        const node u = static_cast<node>(Random::integer(g.upperNodeIdBound()));
        const node v = static_cast<node>(Random::integer(g.upperNodeIdBound()));
        if (!g.hasNode(u) || !g.hasNode(v)) continue;
        if (op < 55) {
            if (!g.hasEdge(u, v)) {
                g.addEdge(u, v, 0.5 + Random::real());
            }
        } else if (op < 95) {
            if (g.hasEdge(u, v)) g.removeEdge(u, v);
        } else if (g.numberOfNodes() > 10) {
            g.removeNode(u);
        }
        if (step % 250 == 0) g.checkConsistency();
    }
    g.checkConsistency();
    // The survivors still support detection end-to-end.
    EXPECT_GE(g.numberOfNodes(), 10u);
}

TEST(Graph, CopySemantics) {
    Graph g(4, true);
    g.addEdge(0, 1, 2.0);
    Graph copy = g;       // deep copy
    copy.addEdge(2, 3, 1.0);
    EXPECT_EQ(g.numberOfEdges(), 1u);
    EXPECT_EQ(copy.numberOfEdges(), 2u);
    Graph moved = std::move(copy);
    EXPECT_EQ(moved.numberOfEdges(), 2u);
    moved.checkConsistency();
}

// --- sorted adjacency lists: binary-search membership lookups --------------

TEST(Graph, SortedFlagLifecycle) {
    Graph g(4, false);
    EXPECT_TRUE(g.hasSortedNeighborLists()); // empty lists are sorted
    g.addEdge(0, 2);
    EXPECT_FALSE(g.hasSortedNeighborLists()); // append may break order
    g.sortNeighborLists();
    EXPECT_TRUE(g.hasSortedNeighborLists());
    g.addEdge(0, 1);
    EXPECT_FALSE(g.hasSortedNeighborLists());
    g.sortNeighborLists();
    EXPECT_TRUE(g.hasSortedNeighborLists());
    g.removeEdge(0, 1);
    EXPECT_FALSE(g.hasSortedNeighborLists()); // swap-with-back removal
}

TEST(Graph, SortedLookupsMatchLinearScan) {
    Random::setSeed(4242);
    const count n = 60;
    Graph g(n, true);
    for (count i = 0; i < 300; ++i) {
        const auto u = static_cast<node>(Random::integer(n));
        const auto v = static_cast<node>(Random::integer(n));
        g.addEdgeChecked(u, v, 1.0 + static_cast<double>(i % 7));
    }
    // Record ground truth while the lists are unsorted (linear scans).
    std::vector<std::vector<edgeweight>> truth(n, std::vector<edgeweight>(n));
    for (node u = 0; u < n; ++u) {
        for (node v = 0; v < n; ++v) truth[u][v] = g.weight(u, v);
    }
    g.sortNeighborLists();
    ASSERT_TRUE(g.hasSortedNeighborLists());
    for (node u = 0; u < n; ++u) {
        for (node v = 0; v < n; ++v) {
            EXPECT_EQ(g.weight(u, v), truth[u][v]) << u << "," << v;
            EXPECT_EQ(g.hasEdge(u, v), truth[u][v] != 0.0) << u << "," << v;
        }
    }
    g.checkConsistency();
}

TEST(Graph, SortedRemoveKeepsLookupsCorrect) {
    Graph g(5, true);
    g.addEdge(0, 3, 1.0);
    g.addEdge(0, 1, 2.0);
    g.addEdge(0, 4, 3.0);
    g.addEdge(0, 0, 5.0);
    g.sortNeighborLists();
    g.removeEdge(0, 3); // binary-search lookup, then unsorted from here on
    EXPECT_FALSE(g.hasEdge(0, 3));
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_DOUBLE_EQ(g.weight(0, 4), 3.0);
    EXPECT_DOUBLE_EQ(g.weight(0, 0), 5.0);
    g.checkConsistency();
}

TEST(GraphBuilder, BuiltGraphReportsUnsortedLists) {
    GraphBuilder builder(4, false);
    builder.addEdge(0, 1);
    builder.addEdge(2, 3);
    const Graph g = builder.build();
    EXPECT_FALSE(g.hasSortedNeighborLists()); // scatter order is arbitrary
    const Graph empty = GraphBuilder(3, false).build();
    EXPECT_TRUE(empty.hasSortedNeighborLists());
}

// Satellite regression for the GraphBuilder overflow path: the per-thread
// buffer pool is sized at construction, but OpenMP's thread count can be
// raised before addEdge runs. Threads beyond the pool used to alias buffer
// 0 (a data race and lost edges); they must fall back to the locked
// overflow buffer and lose nothing.
TEST(GraphBuilder, ThreadCountRaisedAfterConstructionLosesNoEdges) {
    const int savedThreads = Parallel::maxThreads();
    Parallel::setThreads(1);
    GraphBuilder builder(512, false); // pool sized for a single thread
    Parallel::setThreads(std::min(8, savedThreads > 1 ? savedThreads : 8));

    const count edges = 511;
    const auto sedges = static_cast<std::int64_t>(edges);
#pragma omp parallel for default(none) shared(builder, sedges)               \
    schedule(static)
    for (std::int64_t i = 0; i < sedges; ++i) {
        builder.addEdge(static_cast<node>(i), static_cast<node>(i + 1));
    }
    EXPECT_EQ(builder.bufferedEdges(), edges);

    const Graph g = builder.build();
    EXPECT_EQ(g.numberOfEdges(), edges);
    for (node v = 0; v < 511; ++v) {
        EXPECT_TRUE(g.hasEdge(v, v + 1)) << "lost edge {" << v << ", "
                                         << v + 1 << "}";
    }
    Parallel::setThreads(savedThreads);
}
