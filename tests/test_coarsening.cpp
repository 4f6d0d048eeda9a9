// Coarsening and prolongation: weight conservation, structural shape,
// parallel == sequential, projection identities, and the CSR coarsening
// against a sequential oracle (tests/support/coarsening_oracle.hpp), bit
// for bit at every thread count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "community/plm.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/planted_partition.hpp"
#include "generators/rmat.hpp"
#include "generators/simple_graphs.hpp"
#include "graph/csr_graph.hpp"
#include "quality/modularity.hpp"
#include "support/coarsening_oracle.hpp"
#include "support/random.hpp"
#include "support/single_thread_scope.hpp"

using namespace grapr;
using grapr::testing::OracleCoarsening;
using grapr::testing::oracleCoarsening;
using grapr::testing::SingleThreadScope;
using grapr::testing::ThreadCountScope;

namespace {

Partition evenOddPartition(count n) {
    Partition p(n);
    for (node v = 0; v < n; ++v) p.set(v, v % 2);
    p.setUpperBound(2);
    return p;
}

} // namespace

TEST(Coarsening, TwoTrianglesToTwoNodes) {
    // Two triangles plus a bridge collapse to two coarse nodes with
    // self-loops of weight 3 and a connecting edge of weight 1.
    Graph g(6, false);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(0, 2);
    g.addEdge(3, 4);
    g.addEdge(4, 5);
    g.addEdge(3, 5);
    g.addEdge(2, 3);
    Partition p(6);
    for (node v = 0; v < 6; ++v) p.set(v, v < 3 ? 0 : 1);
    p.setUpperBound(2);

    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    const Graph coarse = result.coarseGraph.toGraph();
    EXPECT_EQ(coarse.numberOfNodes(), 2u);
    EXPECT_EQ(coarse.numberOfEdges(), 3u); // 2 loops + 1 edge
    EXPECT_DOUBLE_EQ(coarse.weight(0, 0), 3.0);
    EXPECT_DOUBLE_EQ(coarse.weight(1, 1), 3.0);
    EXPECT_DOUBLE_EQ(coarse.weight(0, 1), 1.0);
    coarse.checkConsistency();
}

TEST(Coarsening, PreservesTotalEdgeWeight) {
    Random::setSeed(70);
    Graph g = ErdosRenyiGenerator(500, 0.02).generate();
    const Partition p = evenOddPartition(g.upperNodeIdBound());
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_NEAR(result.coarseGraph.totalEdgeWeight(), g.totalEdgeWeight(),
                1e-9);
}

TEST(Coarsening, PreservesCommunityVolumes) {
    Random::setSeed(71);
    Graph g = ErdosRenyiGenerator(300, 0.05).generate();
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) p.set(v, v % 7);
    p.setUpperBound(7);

    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    // Volume of coarse node c == summed volume of its fine community.
    std::vector<double> fineVolume(7, 0.0);
    g.forNodes([&](node v) { fineVolume[p[v]] += g.volume(v); });
    for (node c = 0; c < 7; ++c) {
        // Community ids are compacted ascending, so community c -> coarse c.
        EXPECT_NEAR(result.coarseGraph.volume(c), fineVolume[c], 1e-9);
    }
}

TEST(Coarsening, SequentialMatchesParallel) {
    Random::setSeed(72);
    Graph g = PlantedPartitionGenerator(600, 12, 0.2, 0.01).generate();
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) {
        p.set(v, static_cast<node>(Random::integer(40)));
    }
    p.setUpperBound(40);

    const CsrGraph csr(g);
    const CsrCoarseningResult parallel =
        ParallelPartitionCoarsening(true).run(csr, p);
    const CsrCoarseningResult sequential =
        ParallelPartitionCoarsening(false).run(csr, p);
    EXPECT_EQ(parallel.fineToCoarse, sequential.fineToCoarse);
    EXPECT_TRUE(parallel.coarseGraph.toGraph().structurallyEquals(
        sequential.coarseGraph.toGraph()));
}

TEST(Coarsening, SingletonPartitionIsIdentityShape) {
    Random::setSeed(73);
    Graph g = ErdosRenyiGenerator(100, 0.05).generate();
    Partition p(g.upperNodeIdBound());
    p.allToSingletons();
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_EQ(result.coarseGraph.numberOfNodes(), g.numberOfNodes());
    EXPECT_EQ(result.coarseGraph.numberOfEdges(), g.numberOfEdges());
    EXPECT_NEAR(result.coarseGraph.totalEdgeWeight(), g.totalEdgeWeight(),
                1e-9);
}

TEST(Coarsening, AllToOneGivesSingleNode) {
    Graph g = SimpleGraphs::clique(10);
    Partition p(10);
    p.allToOne();
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_EQ(result.coarseGraph.numberOfNodes(), 1u);
    EXPECT_EQ(result.coarseGraph.numberOfSelfLoops(), 1u);
    EXPECT_DOUBLE_EQ(result.coarseGraph.toGraph().weight(0, 0), 45.0);
}

TEST(Coarsening, NonCompactCommunityIdsAreCompacted) {
    Graph g = SimpleGraphs::path(4);
    Partition p(4);
    p.set(0, 100);
    p.set(1, 100);
    p.set(2, 7);
    p.set(3, 7);
    p.setUpperBound(101);
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_EQ(result.coarseGraph.numberOfNodes(), 2u);
    // Ascending compaction: community 7 -> coarse 0, community 100 -> 1.
    EXPECT_EQ(result.fineToCoarse[0], 1u);
    EXPECT_EQ(result.fineToCoarse[2], 0u);
}

TEST(Coarsening, WeightedInputWeightsSummed) {
    Graph g(4, true);
    g.addEdge(0, 2, 1.5);
    g.addEdge(0, 3, 2.0);
    g.addEdge(1, 2, 0.5);
    Partition p(4);
    p.set(0, 0); p.set(1, 0); p.set(2, 1); p.set(3, 1);
    p.setUpperBound(2);
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);
    EXPECT_DOUBLE_EQ(result.coarseGraph.toGraph().weight(0, 1), 4.0);
}

TEST(Projector, ProjectBackBasic) {
    Partition coarse(2);
    coarse.set(0, 5);
    coarse.set(1, 9);
    coarse.setUpperBound(10);
    const std::vector<node> fineToCoarse = {0, 0, 1, 1, 0};
    const Partition fine =
        ClusteringProjector::projectBack(coarse, fineToCoarse);
    EXPECT_EQ(fine.numberOfElements(), 5u);
    EXPECT_EQ(fine[0], 5u);
    EXPECT_EQ(fine[1], 5u);
    EXPECT_EQ(fine[2], 9u);
    EXPECT_EQ(fine[4], 5u);
}

TEST(Projector, NoneEntriesStayUnassigned) {
    Partition coarse(1);
    coarse.set(0, 3);
    coarse.setUpperBound(4);
    const std::vector<node> fineToCoarse = {0, none, 0};
    const Partition fine =
        ClusteringProjector::projectBack(coarse, fineToCoarse);
    EXPECT_EQ(fine[1], none);
}

TEST(Projector, HierarchyComposition) {
    // Two levels: 6 fine -> 3 mid -> 2 coarse.
    const std::vector<node> level0 = {0, 0, 1, 1, 2, 2};
    const std::vector<node> level1 = {0, 0, 1};
    Partition coarsest(2);
    coarsest.set(0, 0);
    coarsest.set(1, 1);
    coarsest.setUpperBound(2);
    const Partition fine = ClusteringProjector::projectThroughHierarchy(
        coarsest, {level0, level1});
    EXPECT_EQ(fine.numberOfElements(), 6u);
    for (node v = 0; v < 4; ++v) EXPECT_EQ(fine[v], 0u);
    EXPECT_EQ(fine[4], 1u);
    EXPECT_EQ(fine[5], 1u);
}

TEST(Projector, ModularityInvariantUnderProjection) {
    // Modularity of a coarse solution on the coarse graph equals the
    // modularity of its projection on the fine graph — the identity that
    // makes the multilevel scheme sound.
    Random::setSeed(74);
    Graph g = PlantedPartitionGenerator(400, 8, 0.25, 0.01).generate();
    Partition p(g.upperNodeIdBound());
    for (node v = 0; v < p.numberOfElements(); ++v) {
        p.set(v, static_cast<node>(Random::integer(20)));
    }
    p.setUpperBound(20);
    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), p);

    // Any coarse solution: group coarse nodes by parity.
    Partition coarseSolution(result.coarseGraph.upperNodeIdBound());
    for (node c = 0; c < coarseSolution.numberOfElements(); ++c) {
        coarseSolution.set(c, c % 2);
    }
    coarseSolution.setUpperBound(2);

    const Partition fineSolution = ClusteringProjector::projectBack(
        coarseSolution, result.fineToCoarse);
    const double coarseQ =
        Modularity().getQuality(coarseSolution, result.coarseGraph);
    const double fineQ = Modularity().getQuality(fineSolution, g);
    EXPECT_NEAR(coarseQ, fineQ, 1e-9);
}

// --- CSR coarsening against a sequential oracle ------------------------------

namespace {

std::uint64_t bits(double x) {
    std::uint64_t b = 0;
    std::memcpy(&b, &x, sizeof b);
    return b;
}

/// Index of the first entry whose bits differ, or the size when equal.
std::size_t firstBitDifference(const std::vector<edgeweight>& a,
                               const std::vector<edgeweight>& b) {
    const auto [ia, ib] = std::mismatch(
        a.begin(), a.end(), b.begin(), b.end(),
        [](double x, double y) { return bits(x) == bits(y); });
    return static_cast<std::size_t>(ia - a.begin());
}

void expectMatchesOracle(const CsrCoarseningResult& got,
                         const OracleCoarsening& want,
                         const std::vector<edgeweight>& wantVolumes,
                         const std::string& where) {
    SCOPED_TRACE(where);
    const CsrGraph& coarse = got.coarseGraph;
    EXPECT_EQ(got.fineToCoarse, want.fineToCoarse);
    ASSERT_EQ(coarse.offsets(), want.offsets);
    EXPECT_EQ(coarse.neighborArray(), want.neighbors);
    ASSERT_EQ(coarse.weightArray().size(), want.weights.size());
    EXPECT_EQ(firstBitDifference(coarse.weightArray(), want.weights),
              want.weights.size());
    EXPECT_TRUE(coarse.isWeighted());
    EXPECT_EQ(coarse.numberOfSelfLoops(), want.selfLoops);
    EXPECT_EQ(coarse.numberOfEdges(), want.edges);
    EXPECT_EQ(bits(coarse.totalEdgeWeight()), bits(want.totalWeight));
    std::vector<edgeweight> volumes(coarse.upperNodeIdBound());
    for (node c = 0; c < volumes.size(); ++c) volumes[c] = coarse.volume(c);
    EXPECT_EQ(firstBitDifference(volumes, wantVolumes), wantVolumes.size());
}

/// Every CSR coarsening configuration (1, 2 and 4 threads, parallel on
/// and off) against the oracle.
void checkAgainstOracle(const CsrGraph& g, const Partition& zeta,
                        const std::string& instance) {
    const OracleCoarsening want = oracleCoarsening(g, zeta);
    // Volumes come from the rows; a one-thread freeze of the oracle's
    // arrays fixes their bits.
    std::vector<edgeweight> wantVolumes;
    {
        SingleThreadScope once;
        const CsrGraph reference(want.offsets, want.neighbors, want.weights,
                                 /*weighted=*/true);
        for (node c = 0; c < reference.upperNodeIdBound(); ++c) {
            wantVolumes.push_back(reference.volume(c));
        }
    }
    for (const int threads : {1, 2, 4}) {
        ThreadCountScope scope(threads);
        for (const bool parallel : {true, false}) {
            const CsrCoarseningResult got =
                ParallelPartitionCoarsening(parallel).run(g, zeta);
            expectMatchesOracle(got, want, wantVolumes,
                                instance + " threads=" +
                                    std::to_string(threads) + " parallel=" +
                                    std::to_string(parallel));
        }
    }
}

/// A planted-partition graph with self-loops and isolated nodes; with
/// `realWeights`, every edge weighs 0.1 + U[0,1).
Graph oracleInstance(bool realWeights) {
    Random::setSeed(90);
    const Graph base = PlantedPartitionGenerator(700, 14, 0.2, 0.01).generate();
    Graph g(base.upperNodeIdBound() + 5, true); // five isolated nodes
    base.forEdges([&](node u, node v, edgeweight) {
        g.addEdge(u, v, realWeights ? 0.1 + Random::real() : 1.0);
    });
    for (node v = 0; v < base.upperNodeIdBound(); v += 9) {
        g.addEdge(v, v, realWeights ? 0.1 + Random::real() : 2.0);
    }
    return g;
}

/// Random labels drawn from a sparse id range: unused ids and an upper
/// bound far above the label count.
Partition scatteredLabels(const Graph& g, count labels) {
    Partition p(g.upperNodeIdBound());
    g.forNodes([&](node v) {
        p.set(v, static_cast<node>(3 * Random::integer(labels) + 5));
    });
    p.setUpperBound(static_cast<node>(3 * labels + 11));
    return p;
}

} // namespace

TEST(CsrCoarseningOracle, IntegerWeights) {
    const Graph g = oracleInstance(/*realWeights=*/false);
    Random::setSeed(91);
    checkAgainstOracle(CsrGraph(g), scatteredLabels(g, 60), "integer");
}

TEST(CsrCoarseningOracle, RealWeightsOnFrozenGraphWithHole) {
    Graph g = oracleInstance(/*realWeights=*/true);
    g.removeNode(17);
    g.removeNode(400);
    const CsrGraph csr(g);
    ASSERT_FALSE(csr.hasNode(17));
    Random::setSeed(92);
    const Partition zeta = scatteredLabels(g, 25);
    checkAgainstOracle(csr, zeta, "real, hole");
    const CsrCoarseningResult got =
        ParallelPartitionCoarsening().run(csr, zeta);
    EXPECT_EQ(got.fineToCoarse[17], none);
}

TEST(CsrCoarseningOracle, SingletonsAndAllInOne) {
    const Graph g = oracleInstance(/*realWeights=*/true);
    const CsrGraph csr(g);
    Partition singletons(g.upperNodeIdBound());
    singletons.allToSingletons();
    checkAgainstOracle(csr, singletons, "singletons");
    Partition one(g.upperNodeIdBound());
    one.allToOne();
    checkAgainstOracle(csr, one, "all in one");
}

TEST(CsrCoarseningOracle, PlmLevelZeroOnRmat) {
    CsrGraph csr;
    Partition zeta;
    {
        // The input is built on one thread: the thread-count matrix below
        // is about the coarsening, and the generator is slow under TSan
        // with several threads.
        SingleThreadScope once;
        Random::setSeed(93);
        csr = CsrGraph(RmatGenerator(13, 8).generate());
        zeta = Partition(csr.upperNodeIdBound());
        zeta.allToSingletons();
        ASSERT_GT(Plm::movePhase(csr, zeta, 1.0, 64, nullptr), 0u);
    }
    checkAgainstOracle(csr, zeta, "rmat13 level 0");
}
