// CSR "frozen graph" equivalence: the flat layout must be an exact,
// drop-in replacement for the adjacency-list layout — same structure, same
// quality scores, and bit-identical algorithm results in single-threaded
// runs (the freezing constructor preserves adjacency order, and the move
// phase breaks ties by community id, so layout must not leak into
// results). PLM and PLMR are pinned against a multilevel reference built
// here from the reference move phase and the sequential coarsening oracle
// of tests/support, which shares no code with the production coarsening.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "coarsening/parallel_coarsening.hpp"
#include "coarsening/projector.hpp"
#include "community/plm.hpp"
#include "community/plp.hpp"
#include "generators/barabasi_albert.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/planted_partition.hpp"
#include "graph/csr_graph.hpp"
#include "quality/coverage.hpp"
#include "quality/modularity.hpp"
#include "support/coarsening_oracle.hpp"
#include "support/random.hpp"
#include "support/single_thread_scope.hpp"

using namespace grapr;
using grapr::testing::OracleCoarsening;
using grapr::testing::oracleCoarsening;
using grapr::testing::SingleThreadScope;

namespace {

Graph makeInstance(const std::string& family, std::uint64_t seed) {
    Random::setSeed(seed);
    if (family == "erdos") return ErdosRenyiGenerator(500, 0.02).generate();
    if (family == "ba") return BarabasiAlbertGenerator(500, 5).generate();
    if (family == "planted") {
        return PlantedPartitionGenerator(500, 10, 0.15, 0.01).generate();
    }
    fail("unknown instance " + family);
}

std::string familyLabel(
    const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
        info) {
    return std::get<0>(info.param) + "_seed" +
           std::to_string(std::get<1>(info.param));
}

/// One level of the multilevel reference: Plm::runRecursive's composition
/// rebuilt from the untuned parts — the reference move phase, the
/// coarsening oracle, projection back and, for PLMR, one reference sweep
/// after the prolongation.
Partition referenceLevel(const CsrGraph& g, const PlmConfig& config) {
    Partition zeta(g.upperNodeIdBound());
    zeta.allToSingletons();
    const count moves = Plm::movePhaseReference(
        g, zeta, config.gamma, config.maxMoveIterations, nullptr);
    if (moves == 0) return zeta;

    OracleCoarsening coarse = oracleCoarsening(g, zeta);
    const CsrGraph coarseGraph(std::move(coarse.offsets),
                               std::move(coarse.neighbors),
                               std::move(coarse.weights), /*weighted=*/true);
    if (coarseGraph.numberOfNodes() >= g.numberOfNodes()) return zeta;

    zeta = ClusteringProjector::projectBack(referenceLevel(coarseGraph, config),
                                            coarse.fineToCoarse);
    if (config.refine) {
        zeta.setUpperBound(static_cast<node>(
            std::max<count>(zeta.upperBound(), g.upperNodeIdBound())));
        Plm::movePhaseReference(g, zeta, config.gamma,
                                config.maxMoveIterations, nullptr);
    }
    return zeta;
}

Partition referencePlm(const Graph& g, const PlmConfig& config) {
    Partition zeta = referenceLevel(CsrGraph(g), config);
    zeta.setUpperBound(static_cast<node>(g.upperNodeIdBound()));
    zeta.compact();
    return zeta;
}

} // namespace

class CsrEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(CsrEquivalence, StructureAndVolumesMatch) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);

    EXPECT_EQ(csr.numberOfNodes(), g.numberOfNodes());
    EXPECT_EQ(csr.numberOfEdges(), g.numberOfEdges());
    EXPECT_EQ(csr.numberOfSelfLoops(), g.numberOfSelfLoops());
    EXPECT_EQ(csr.upperNodeIdBound(), g.upperNodeIdBound());
    EXPECT_EQ(csr.isWeighted(), g.isWeighted());
    EXPECT_EQ(csr.totalEdgeWeight(), g.totalEdgeWeight()); // bit-exact

    for (node v = 0; v < g.upperNodeIdBound(); ++v) {
        ASSERT_EQ(csr.hasNode(v), g.hasNode(v));
        ASSERT_EQ(csr.degree(v), g.degree(v)) << v;
        ASSERT_EQ(csr.volume(v), g.volume(v)) << v;            // bit-exact
        ASSERT_EQ(csr.weightedDegree(v), g.weightedDegree(v)) << v;
        // The freeze preserves adjacency order entry for entry.
        std::vector<std::pair<node, edgeweight>> a, b;
        g.forNeighborsOf(v, [&](node u, edgeweight w) { a.emplace_back(u, w); });
        csr.forNeighborsOf(v,
                           [&](node u, edgeweight w) { b.emplace_back(u, w); });
        ASSERT_EQ(a, b) << v;
    }
}

TEST_P(CsrEquivalence, RoundTripIsStructurallyEqual) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const Graph back = CsrGraph(g).toGraph();
    back.checkConsistency();
    EXPECT_TRUE(g.structurallyEquals(back));
    // Re-freezing the thawed graph is an identity: the positional writes
    // preserve order, so even the arrays match.
    const CsrGraph refrozen(back);
    EXPECT_EQ(refrozen.offsets(), CsrGraph(g).offsets());
    EXPECT_EQ(refrozen.neighborArray(), CsrGraph(g).neighborArray());
}

TEST_P(CsrEquivalence, QualityKernelsMatch) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);

    Random::setSeed(seed + 10);
    const Partition zeta = Plp().run(g);

    {
        SingleThreadScope once;
        EXPECT_EQ(Modularity().getQuality(zeta, g),
                  Modularity().getQuality(zeta, csr)); // bit-exact, 1 thread
        EXPECT_EQ(Coverage().getQuality(zeta, g),
                  Coverage().getQuality(zeta, csr));
    }
    // Multi-threaded: same value up to summation order.
    EXPECT_NEAR(Modularity().getQuality(zeta, g),
                Modularity().getQuality(zeta, csr), 1e-9);
}

TEST_P(CsrEquivalence, CoarseningMatchesOracle) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    Random::setSeed(seed + 20);
    const Partition zeta = Plp().run(g);

    const CsrCoarseningResult got =
        ParallelPartitionCoarsening().run(CsrGraph(g), zeta);
    const OracleCoarsening want = oracleCoarsening(CsrGraph(g), zeta);

    EXPECT_EQ(got.fineToCoarse, want.fineToCoarse);
    EXPECT_EQ(got.coarseGraph.offsets(), want.offsets);
    EXPECT_EQ(got.coarseGraph.neighborArray(), want.neighbors);
    // Unweighted input: every coarse weight is an exact integer sum.
    EXPECT_EQ(got.coarseGraph.weightArray(), want.weights);
    EXPECT_EQ(got.coarseGraph.totalEdgeWeight(), want.totalWeight);
    const Graph coarseBack = got.coarseGraph.toGraph();
    coarseBack.checkConsistency();
}

TEST_P(CsrEquivalence, PlmAndPlmrPartitionsBitIdenticalSingleThreaded) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    SingleThreadScope once;

    for (const bool refine : {false, true}) {
        PlmConfig config;
        config.refine = refine;

        Random::setSeed(seed + 40);
        const Partition a = Plm(config).run(g);
        Random::setSeed(seed + 40);
        const Partition b = referencePlm(g, config);
        EXPECT_EQ(a.vector(), b.vector()) << "refine=" << refine;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Families, CsrEquivalence,
    ::testing::Combine(::testing::Values("erdos", "ba", "planted"),
                       ::testing::Values(1u, 2u, 3u)),
    familyLabel);

// --- non-parameterized corner cases ----------------------------------------

TEST(CsrGraph, EmptyGraph) {
    const CsrGraph csr((Graph(0, false)));
    EXPECT_TRUE(csr.isEmpty());
    EXPECT_EQ(csr.numberOfEdges(), 0u);
    EXPECT_EQ(csr.upperNodeIdBound(), 0u);
    EXPECT_TRUE(csr.toGraph().isEmpty());
}

TEST(CsrGraph, WeightedGraphWithSelfLoopAndHole) {
    Graph g(5, true);
    g.addEdge(0, 1, 2.5);
    g.addEdge(1, 2, 0.5);
    g.addEdge(2, 2, 3.0); // self-loop
    g.addEdge(3, 4, 1.0);
    g.removeNode(3); // leaves a hole in the id space
    const CsrGraph csr(g);

    EXPECT_EQ(csr.numberOfNodes(), 4u);
    EXPECT_EQ(csr.upperNodeIdBound(), 5u);
    EXPECT_FALSE(csr.hasNode(3));
    EXPECT_EQ(csr.numberOfSelfLoops(), 1u);
    EXPECT_DOUBLE_EQ(csr.totalEdgeWeight(), 6.0);
    EXPECT_DOUBLE_EQ(csr.volume(2), 0.5 + 3.0 + 3.0); // loop counts twice
    EXPECT_DOUBLE_EQ(csr.weightedDegree(2), 3.5);
    EXPECT_EQ(csr.degree(3), 0u);

    const Graph back = csr.toGraph();
    back.checkConsistency();
    EXPECT_TRUE(g.structurallyEquals(back));
}

TEST(CsrGraph, FromArraysDerivesTotals) {
    // Path 0-1-2 with weights 2 and 3, plus a self-loop of weight 1 at 2.
    std::vector<grapr::index> offsets{0, 1, 3, 5};
    std::vector<node> neighbors{1, 0, 2, 1, 2};
    std::vector<edgeweight> weights{2.0, 2.0, 3.0, 3.0, 1.0};
    const CsrGraph csr(std::move(offsets), std::move(neighbors),
                       std::move(weights), true);
    EXPECT_EQ(csr.numberOfNodes(), 3u);
    EXPECT_EQ(csr.numberOfEdges(), 3u);
    EXPECT_EQ(csr.numberOfSelfLoops(), 1u);
    EXPECT_DOUBLE_EQ(csr.totalEdgeWeight(), 6.0);
    EXPECT_DOUBLE_EQ(csr.volume(2), 3.0 + 1.0 + 1.0);
    EXPECT_DOUBLE_EQ(csr.volume(1), 5.0);
}

TEST(CsrGraph, RejectsInconsistentArrays) {
    EXPECT_THROW(CsrGraph({0, 2}, {1}, {}, false), std::runtime_error);
    EXPECT_THROW(CsrGraph({0, 1}, {0}, {}, true), std::runtime_error);
    // Asymmetric adjacency: 0 lists 1, but 1 does not list 0.
    EXPECT_THROW(CsrGraph({0, 1, 1}, {1}, {1.0}, true), std::runtime_error);
}
