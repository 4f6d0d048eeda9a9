// Competitor stand-ins: sequential Louvain, sequential label propagation,
// RG, CGGC(i), matching agglomeration (CLU_TBB / CEL), and the registry.

#include <gtest/gtest.h>

#include "baselines/cggc.hpp"
#include "baselines/clu_matching.hpp"
#include "baselines/label_prop_seq.hpp"
#include "baselines/louvain_seq.hpp"
#include "baselines/registry.hpp"
#include "baselines/rg.hpp"
#include "community/plm.hpp"
#include "generators/lfr.hpp"
#include "generators/planted_partition.hpp"
#include "generators/simple_graphs.hpp"
#include "quality/modularity.hpp"
#include "quality/partition_similarity.hpp"
#include "support/random.hpp"
#include "support/single_thread_scope.hpp"

using namespace grapr;
using grapr::testing::SingleThreadScope;

TEST(LouvainSeq, RecoversCliqueChain) {
    Random::setSeed(110);
    Graph g = SimpleGraphs::cliqueChain(10, 8);
    const Partition zeta = LouvainSeq().run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 10u);
    EXPECT_DOUBLE_EQ(
        jaccardIndex(zeta, SimpleGraphs::cliqueChainTruth(10, 8)), 1.0);
}

TEST(LouvainSeq, KarateQuality) {
    Random::setSeed(111);
    Graph g = SimpleGraphs::karateClub();
    double best = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        best = std::max(best, Modularity().getQuality(LouvainSeq().run(g), g));
    }
    EXPECT_GE(best, 0.40);
}

TEST(LouvainSeq, ComparableToPlm) {
    Random::setSeed(112);
    double louvainQ = 0.0, plmQ = 0.0;
    for (int trial = 0; trial < 3; ++trial) {
        LfrParameters params;
        params.n = 1500;
        params.mu = 0.4;
        LfrGenerator gen(params);
        Graph g = gen.generate();
        louvainQ += Modularity().getQuality(LouvainSeq().run(g), g);
        plmQ += Modularity().getQuality(Plm().run(g), g);
    }
    // The paper: Louvain's quality is marginally better or equal; both
    // should be in the same band.
    EXPECT_NEAR(louvainQ, plmQ, 0.05 * 3);
}

TEST(LabelPropSeq, RecoversCliqueChain) {
    Random::setSeed(113);
    Graph g = SimpleGraphs::cliqueChain(8, 8);
    LabelPropSeq lp;
    const Partition zeta = lp.run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 8u);
    EXPECT_GT(lp.iterations(), 0u);
}

TEST(LabelPropSeq, ConvergesOnBipartiteStructure) {
    // Asynchronous updating must not oscillate on a star (a bipartite
    // structure where synchronous LPA flip-flops forever).
    Random::setSeed(114);
    Graph g = SimpleGraphs::star(50);
    LabelPropSeq lp(/*maxIterations=*/500);
    (void)lp.run(g);
    EXPECT_LT(lp.iterations(), 500u);
}

TEST(RandomizedGreedy, RecoversCliqueChain) {
    Random::setSeed(115);
    Graph g = SimpleGraphs::cliqueChain(8, 8);
    const Partition zeta = RandomizedGreedy().run(g);
    EXPECT_DOUBLE_EQ(
        jaccardIndex(zeta, SimpleGraphs::cliqueChainTruth(8, 8)), 1.0);
}

TEST(RandomizedGreedy, HighQualityOnPlanted) {
    Random::setSeed(116);
    PlantedPartitionGenerator gen(600, 10, 0.25, 0.005);
    Graph g = gen.generate();
    const Partition zeta = RandomizedGreedy().run(g);
    EXPECT_GT(jaccardIndex(zeta, gen.groundTruth()), 0.85);
}

TEST(RandomizedGreedy, EdgelessGraph) {
    Graph g(10, false);
    const Partition zeta = RandomizedGreedy().run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 10u);
}

TEST(RandomizedGreedy, WeightedGraph) {
    Graph g(4, true);
    g.addEdge(0, 1, 10.0);
    g.addEdge(2, 3, 10.0);
    g.addEdge(1, 2, 0.1);
    Random::setSeed(117);
    const Partition zeta = RandomizedGreedy().run(g);
    EXPECT_EQ(zeta[0], zeta[1]);
    EXPECT_EQ(zeta[2], zeta[3]);
    EXPECT_NE(zeta[0], zeta[2]);
}

TEST(Cggc, RecoversPlantedPartition) {
    Random::setSeed(118);
    PlantedPartitionGenerator gen(400, 8, 0.3, 0.01);
    Graph g = gen.generate();
    const Partition zeta = Cggc(4).run(g);
    EXPECT_GT(jaccardIndex(zeta, gen.groundTruth()), 0.9);
}

TEST(CggcIterated, TerminatesWithGoodQuality) {
    Random::setSeed(119);
    PlantedPartitionGenerator gen(400, 8, 0.3, 0.01);
    Graph g = gen.generate();
    const Partition zeta = CggcIterated(4).run(g);
    EXPECT_GT(jaccardIndex(zeta, gen.groundTruth()), 0.9);
}

TEST(MatchingAgglomeration, CluTbbRecoversCliqueChain) {
    Random::setSeed(120);
    Graph g = SimpleGraphs::cliqueChain(8, 8);
    const Partition zeta =
        MatchingAgglomeration(/*starAdaptation=*/true).run(g);
    EXPECT_DOUBLE_EQ(
        jaccardIndex(zeta, SimpleGraphs::cliqueChainTruth(8, 8)), 1.0);
}

TEST(MatchingAgglomeration, CelRecoversCliqueChain) {
    Random::setSeed(121);
    Graph g = SimpleGraphs::cliqueChain(8, 8);
    const Partition zeta =
        MatchingAgglomeration(/*starAdaptation=*/false).run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 8u);
}

TEST(MatchingAgglomeration, StarAdaptationHelpsOnStars) {
    // A star graph: pure matching can contract only one leaf per round;
    // the adaptation pulls all satellites into the hub's group at once.
    // Both must terminate; the adapted variant should use fewer levels —
    // observable as: it produces one community on a star, quickly.
    Random::setSeed(122);
    Graph g = SimpleGraphs::star(1000);
    const Partition adapted =
        MatchingAgglomeration(true).run(g);
    EXPECT_LE(adapted.numberOfSubsets(), 2u);
}

TEST(MatchingAgglomeration, EdgelessGraph) {
    Graph g(5, false);
    const Partition zeta = MatchingAgglomeration(true).run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 5u);
}

TEST(Registry, AllNamesConstructible) {
    for (const auto& name : detectorNames()) {
        auto detector = makeDetector(name);
        ASSERT_NE(detector, nullptr) << name;
    }
}

TEST(Registry, UnknownNameThrows) {
    EXPECT_THROW(makeDetector("NoSuchAlgorithm"), std::runtime_error);
}

TEST(Registry, OursPlusCompetitorsCoverAll) {
    const auto all = detectorNames();
    const auto ours = ourDetectorNames();
    const auto theirs = competitorDetectorNames();
    for (const auto& name : ours) {
        EXPECT_NE(std::find(all.begin(), all.end(), name), all.end());
    }
    for (const auto& name : theirs) {
        EXPECT_NE(std::find(all.begin(), all.end(), name), all.end());
    }
}

TEST(Registry, EveryDetectorSolvesSmokeGraph) {
    // One thread: the floor holds for the deterministic sequential runs,
    // not for every multi-threaded interleaving.
    const SingleThreadScope pinned;
    Graph g = SimpleGraphs::cliqueChain(4, 6);
    const Partition truth = SimpleGraphs::cliqueChainTruth(4, 6);
    for (const auto& name : detectorNames()) {
        Random::setSeed(123);
        auto detector = makeDetector(name);
        const Partition zeta = detector->run(g);
        EXPECT_TRUE(zeta.isComplete()) << name;
        EXPECT_GT(jaccardIndex(zeta, truth), 0.5) << name;
    }
}

TEST(Registry, FrozenRunMatchesGraphRun) {
    // run(const Graph&) freezes its argument once and runs the detector's
    // run(const CsrGraph&), so both return the same partition. One thread,
    // so both runs follow the same order.
    const SingleThreadScope pinned;
    Random::setSeed(311);
    const Graph g = PlantedPartitionGenerator(240, 6, 0.3, 0.02).generate();
    const CsrGraph frozen(g);
    for (const auto& name : detectorNames()) {
        Random::setSeed(97);
        const Partition viaGraph = makeDetector(name)->run(g);
        Random::setSeed(97);
        const Partition viaCsr = makeDetector(name)->run(frozen);
        ASSERT_EQ(viaCsr.numberOfElements(), viaGraph.numberOfElements())
            << name;
        EXPECT_EQ(viaCsr.upperBound(), viaGraph.upperBound()) << name;
        for (node v = 0; v < viaGraph.numberOfElements(); ++v) {
            ASSERT_EQ(viaCsr[v], viaGraph[v]) << name << " node " << v;
        }
    }
}
