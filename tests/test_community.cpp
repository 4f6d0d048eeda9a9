// Core algorithms: PLP, PLM, PLMR, EPP, combiners.

#include <gtest/gtest.h>

#include "baselines/registry.hpp"
#include "coarsening/parallel_coarsening.hpp"
#include "community/combiner.hpp"
#include "community/epp.hpp"
#include "community/plm.hpp"
#include "community/plmr.hpp"
#include "community/plp.hpp"
#include "generators/lfr.hpp"
#include "generators/planted_partition.hpp"
#include "generators/simple_graphs.hpp"
#include "quality/modularity.hpp"
#include "quality/partition_similarity.hpp"
#include "structures/union_find.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

DetectorMaker plpMaker() {
    return [] { return std::unique_ptr<CommunityDetector>(new Plp()); };
}

DetectorMaker plmMaker() {
    return [] { return std::unique_ptr<CommunityDetector>(new Plm()); };
}

} // namespace

TEST(Plp, RecoversCliqueChain) {
    Random::setSeed(80);
    Graph g = SimpleGraphs::cliqueChain(8, 10);
    Plp plp;
    const Partition zeta = plp.run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 8u);
    EXPECT_DOUBLE_EQ(jaccardIndex(zeta, SimpleGraphs::cliqueChainTruth(8, 10)),
                     1.0);
}

TEST(Plp, CompleteSolution) {
    Random::setSeed(81);
    Graph g = PlantedPartitionGenerator(500, 10, 0.2, 0.01).generate();
    const Partition zeta = Plp().run(g);
    EXPECT_TRUE(zeta.isComplete());
    EXPECT_EQ(zeta.numberOfElements(), g.upperNodeIdBound());
}

TEST(Plp, IsolatedNodesKeepOwnLabel) {
    Graph g(5, false);
    g.addEdge(0, 1);
    // 2, 3, 4 isolated.
    Random::setSeed(82);
    const Partition zeta = Plp().run(g);
    EXPECT_EQ(zeta[2], 2u);
    EXPECT_EQ(zeta[3], 3u);
    EXPECT_NE(zeta[2], zeta[3]);
}

TEST(Plp, RespectsWeights) {
    // Path 0-1-2 where edge 0-1 is heavy: 1 must group with 0, not 2.
    Graph g(3, true);
    g.addEdge(0, 1, 10.0);
    g.addEdge(1, 2, 0.1);
    Random::setSeed(83);
    const Partition zeta = Plp().run(g);
    EXPECT_EQ(zeta[0], zeta[1]);
}

TEST(Plp, TracerRecordsDecreasingActivity) {
    Random::setSeed(84);
    Graph g = PlantedPartitionGenerator(2000, 20, 0.1, 0.005).generate();
    Plp plp;
    IterationTracer tracer;
    plp.setTracer(&tracer);
    (void)plp.run(g);
    ASSERT_GE(tracer.records().size(), 2u);
    // First iteration touches everything.
    EXPECT_EQ(tracer.records().front().active, g.numberOfNodes());
    // Updates shrink over time (compare first and last).
    EXPECT_LT(tracer.records().back().updated,
              tracer.records().front().updated);
    EXPECT_EQ(plp.iterations(), tracer.records().size());
}

TEST(Plp, ThetaZeroRunsToStability) {
    Random::setSeed(85);
    PlpConfig config;
    config.thetaFraction = 0.0;
    Graph g = SimpleGraphs::cliqueChain(5, 6);
    Plp plp(config);
    const Partition zeta = plp.run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 5u);
}

TEST(Plp, ExplicitRandomizationStillCorrect) {
    Random::setSeed(86);
    PlpConfig config;
    config.explicitRandomization = true;
    Graph g = SimpleGraphs::cliqueChain(6, 8);
    const Partition zeta = Plp(config).run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 6u);
}

TEST(Plp, StaticScheduleStillCorrect) {
    Random::setSeed(87);
    PlpConfig config;
    config.guidedSchedule = false;
    Graph g = SimpleGraphs::cliqueChain(6, 8);
    const Partition zeta = Plp(config).run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 6u);
}

TEST(Plp, EmptyGraph) {
    Graph g(0, false);
    const Partition zeta = Plp().run(g);
    EXPECT_EQ(zeta.numberOfElements(), 0u);
}

TEST(Plm, RecoversCliqueChain) {
    Random::setSeed(88);
    Graph g = SimpleGraphs::cliqueChain(10, 8);
    const Partition zeta = Plm().run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 10u);
    EXPECT_DOUBLE_EQ(
        jaccardIndex(zeta, SimpleGraphs::cliqueChainTruth(10, 8)), 1.0);
}

TEST(Plm, KarateClubQuality) {
    Random::setSeed(89);
    Graph g = SimpleGraphs::karateClub();
    const Partition zeta = Plm().run(g);
    const double q = Modularity().getQuality(zeta, g);
    // Known optimum is ~0.4198; a healthy Louvain lands >= 0.40.
    EXPECT_GE(q, 0.40);
    EXPECT_LE(q, 0.42);
}

TEST(Plm, SingleThreadModularityNeverNegativeOnMove) {
    // With one thread there is no stale data, so each level's move phase
    // increases modularity monotonically; final quality must be >= 0 on a
    // graph with communities.
    Parallel::setThreads(1);
    Random::setSeed(90);
    Graph g = PlantedPartitionGenerator(400, 8, 0.3, 0.01).generate();
    const Partition zeta = Plm().run(g);
    EXPECT_GT(Modularity().getQuality(zeta, g), 0.5);
}

TEST(Plm, GammaControlsResolution) {
    Random::setSeed(91);
    Graph g = SimpleGraphs::cliqueChain(12, 6);
    const Partition fine = Plm(PlmConfig{.gamma = 5.0}).run(g);
    const Partition standard = Plm(PlmConfig{.gamma = 1.0}).run(g);
    const Partition coarse = Plm(PlmConfig{.gamma = 0.05}).run(g);
    EXPECT_GE(fine.numberOfSubsets(), standard.numberOfSubsets());
    EXPECT_LE(coarse.numberOfSubsets(), standard.numberOfSubsets());
}

TEST(Plm, LevelsRecorded) {
    Random::setSeed(92);
    Graph g = PlantedPartitionGenerator(1000, 10, 0.1, 0.005).generate();
    Plm plm;
    (void)plm.run(g);
    ASSERT_GE(plm.levels().size(), 2u);
    EXPECT_EQ(plm.levels().front().nodes, g.numberOfNodes());
    // Strictly shrinking hierarchy.
    for (std::size_t i = 1; i < plm.levels().size(); ++i) {
        EXPECT_LT(plm.levels()[i].nodes, plm.levels()[i - 1].nodes);
    }
}

TEST(Plm, WeightedGraphSupport) {
    Graph g(6, true);
    // Two heavy triangles, light bridge.
    g.addEdge(0, 1, 5.0);
    g.addEdge(1, 2, 5.0);
    g.addEdge(0, 2, 5.0);
    g.addEdge(3, 4, 5.0);
    g.addEdge(4, 5, 5.0);
    g.addEdge(3, 5, 5.0);
    g.addEdge(2, 3, 0.2);
    Random::setSeed(93);
    const Partition zeta = Plm().run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 2u);
    EXPECT_EQ(zeta[0], zeta[2]);
    EXPECT_EQ(zeta[3], zeta[5]);
}

TEST(Plm, EdgelessGraph) {
    Graph g(5, false);
    Random::setSeed(94);
    const Partition zeta = Plm().run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 5u); // all singletons
}

TEST(Plm, MovePhaseImprovesModularity) {
    Random::setSeed(95);
    Graph g = PlantedPartitionGenerator(300, 6, 0.3, 0.01).generate();
    Partition zeta(g.upperNodeIdBound());
    zeta.allToSingletons();
    const double before = Modularity().getQuality(zeta, g);
    Plm::movePhase(CsrGraph(g), zeta, 1.0, 64, nullptr);
    const double after = Modularity().getQuality(zeta, g);
    EXPECT_GT(after, before);
}

TEST(Plmr, AtLeastPlmQualityOnAverage) {
    Random::setSeed(96);
    double plmTotal = 0.0, plmrTotal = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
        LfrParameters params;
        params.n = 1500;
        params.mu = 0.4;
        LfrGenerator gen(params);
        Graph g = gen.generate();
        plmTotal += Modularity().getQuality(Plm().run(g), g);
        plmrTotal += Modularity().getQuality(Plmr().run(g), g);
    }
    // Refinement may tie but should not lose measurably (paper Fig. 6c).
    EXPECT_GE(plmrTotal, plmTotal - 0.01);
}

TEST(Plmr, ToStringDistinguishes) {
    EXPECT_EQ(Plmr().toString(), "PLMR");
    EXPECT_EQ(Plm().toString(), "PLM");
    EXPECT_EQ(Plp().toString(), "PLP");
}

TEST(HashingCombiner, MatchesEquationIII2) {
    // Core communities: same core iff same community in EVERY base solution.
    Random::setSeed(97);
    const count n = 200;
    std::vector<Partition> bases;
    for (int b = 0; b < 3; ++b) {
        Partition p(n);
        for (node v = 0; v < n; ++v) {
            p.set(v, static_cast<node>(Random::integer(6)));
        }
        p.setUpperBound(6);
        bases.push_back(std::move(p));
    }
    const Partition cores = HashingCombiner::combine(bases);
    for (node u = 0; u < n; ++u) {
        for (node v = u + 1; v < n; ++v) {
            bool togetherEverywhere = true;
            for (const auto& base : bases) {
                if (base[u] != base[v]) {
                    togetherEverywhere = false;
                    break;
                }
            }
            ASSERT_EQ(cores[u] == cores[v], togetherEverywhere)
                << "pair (" << u << "," << v << ")";
        }
    }
}

TEST(HashingCombiner, MatchesSortingCombiner) {
    Random::setSeed(98);
    const count n = 500;
    std::vector<Partition> bases;
    for (int b = 0; b < 4; ++b) {
        Partition p(n);
        for (node v = 0; v < n; ++v) {
            p.set(v, static_cast<node>(Random::integer(10)));
        }
        p.setUpperBound(10);
        bases.push_back(std::move(p));
    }
    const Partition viaHash = HashingCombiner::combine(bases);
    const Partition viaSort = SortingCombiner::combine(bases);
    EXPECT_DOUBLE_EQ(jaccardIndex(viaHash, viaSort), 1.0);
    EXPECT_EQ(viaHash.numberOfSubsets(), viaSort.numberOfSubsets());
}

TEST(HashingCombiner, SingleBaseIsIdentityGrouping) {
    Partition p(6);
    for (node v = 0; v < 6; ++v) p.set(v, v / 2);
    p.setUpperBound(3);
    const Partition cores = HashingCombiner::combine({p});
    EXPECT_DOUBLE_EQ(jaccardIndex(cores, p), 1.0);
}

TEST(Combiner, RejectsMismatchedSizes) {
    Partition a(3), b(4);
    a.allToSingletons();
    b.allToSingletons();
    EXPECT_THROW(HashingCombiner::combine({a, b}), std::runtime_error);
    EXPECT_THROW(HashingCombiner::combine({}), std::runtime_error);
}

TEST(Epp, RecoversPlantedPartition) {
    Random::setSeed(99);
    PlantedPartitionGenerator gen(800, 8, 0.2, 0.005);
    Graph g = gen.generate();
    Epp epp(4, plpMaker(), plmMaker(), "EPP(4,PLP,PLM)");
    const Partition zeta = epp.run(g);
    EXPECT_GT(jaccardIndex(zeta, gen.groundTruth()), 0.9);
}

TEST(Epp, QualityBetweenPlpAndPlm) {
    // The paper's headline EPP result (Fig. 4 / Fig. 6d): better than a
    // single PLP, at most about PLM. Averaged over trials to damp noise.
    Random::setSeed(100);
    double plpQ = 0.0, eppQ = 0.0, plmQ = 0.0;
    for (int trial = 0; trial < 5; ++trial) {
        LfrParameters params;
        params.n = 2000;
        params.mu = 0.5;
        LfrGenerator gen(params);
        Graph g = gen.generate();
        plpQ += Modularity().getQuality(Plp().run(g), g);
        Epp epp(4, plpMaker(), plmMaker(), "EPP");
        eppQ += Modularity().getQuality(epp.run(g), g);
        plmQ += Modularity().getQuality(Plm().run(g), g);
    }
    EXPECT_GE(eppQ, plpQ - 0.02);
    EXPECT_LE(eppQ, plmQ + 0.05);
}

TEST(Epp, EnsembleSizeOneWorks) {
    Random::setSeed(101);
    Graph g = SimpleGraphs::cliqueChain(6, 6);
    Epp epp(1, plpMaker(), plmMaker(), "EPP(1)");
    const Partition zeta = epp.run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 6u);
}

TEST(Epp, RejectsZeroEnsemble) {
    EXPECT_THROW(Epp(0, plpMaker(), plmMaker()), std::runtime_error);
}

TEST(EppIterated, TerminatesAndFindsStructure) {
    Random::setSeed(102);
    PlantedPartitionGenerator gen(600, 6, 0.2, 0.01);
    Graph g = gen.generate();
    EppIterated scheme(4, plpMaker(), plmMaker());
    const Partition zeta = scheme.run(g);
    EXPECT_GT(jaccardIndex(zeta, gen.groundTruth()), 0.8);
}

TEST(Detectors, RunIsRepeatable) {
    // Each call to run() is an independent, complete run.
    Random::setSeed(103);
    Graph g = SimpleGraphs::cliqueChain(5, 6);
    Plm plm;
    const Partition first = plm.run(g);
    const Partition second = plm.run(g);
    EXPECT_EQ(first.numberOfSubsets(), second.numberOfSubsets());
}

TEST(Plm, CachedMapStrategyMatchesQuality) {
    // The paper's abandoned first implementation (per-node maps + locks)
    // must agree with the shipped recompute strategy on quality — the
    // difference the paper reports is running time, not solutions.
    Random::setSeed(170);
    Graph g = PlantedPartitionGenerator(500, 10, 0.2, 0.01).generate();
    Random::setSeed(171);
    const Partition viaRecompute = Plm().run(g);
    Random::setSeed(171);
    const Partition viaMaps =
        Plm(PlmConfig{.strategy = PlmWeightStrategy::CachedMaps}).run(g);
    const double qRecompute = Modularity().getQuality(viaRecompute, g);
    const double qMaps = Modularity().getQuality(viaMaps, g);
    EXPECT_NEAR(qRecompute, qMaps, 0.02);
    EXPECT_TRUE(viaMaps.isComplete());
}

TEST(Plm, CachedMapMovePhaseImprovesModularity) {
    Random::setSeed(172);
    Graph g = PlantedPartitionGenerator(300, 6, 0.3, 0.01).generate();
    Partition zeta(g.upperNodeIdBound());
    zeta.allToSingletons();
    const double before = Modularity().getQuality(zeta, g);
    Plm::movePhaseCachedMaps(CsrGraph(g), zeta, 1.0, 64);
    EXPECT_GT(Modularity().getQuality(zeta, g), before);
}

TEST(Registry, GenericEppSpelling) {
    Random::setSeed(173);
    Graph g = SimpleGraphs::cliqueChain(5, 6);
    auto detector = makeDetector("EPP(2,PLP,PLMR)");
    EXPECT_EQ(detector->toString(), "EPP(2,PLP,PLMR)");
    const Partition zeta = detector->run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 5u);
    EXPECT_THROW(makeDetector("EPP(2,PLP)"), std::runtime_error);
    EXPECT_THROW(makeDetector("EPP(2,PLP,NoSuch)"), std::runtime_error);
}

TEST(Plp, NoActivityTrackingStillCorrect) {
    Random::setSeed(174);
    PlpConfig config;
    config.trackActiveNodes = false;
    Graph g = SimpleGraphs::cliqueChain(6, 8);
    Plp plp(config);
    const Partition zeta = plp.run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 6u);
    EXPECT_EQ(plp.toString(), "PLP+noactivity");
}

TEST(Plp, ModularityInvariantUnderWeightScaling) {
    // Modularity is scale-free in the edge weights; PLP's dominant-label
    // rule and PLM's delta-mod are too, so solutions on a uniformly
    // rescaled graph must score identically.
    Random::setSeed(175);
    Graph g = PlantedPartitionGenerator(300, 6, 0.25, 0.01).generate();
    Graph scaled(g.upperNodeIdBound(), true);
    g.forEdges([&](node u, node v, edgeweight w) {
        scaled.addEdge(u, v, 7.5 * w);
    });
    Random::setSeed(176);
    const Partition zeta = Plm().run(g);
    const double qOriginal = Modularity().getQuality(zeta, g);
    const double qScaled = Modularity().getQuality(zeta, scaled);
    EXPECT_NEAR(qOriginal, qScaled, 1e-9);
}

TEST(Plm, SelfLoopsInInputHandled) {
    // Coarse levels always carry self-loops; the input may too. The volume
    // definition (loops count twice) must hold through the hierarchy.
    Graph g(6, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 2.0);
    g.addEdge(0, 2, 2.0);
    g.addEdge(3, 4, 2.0);
    g.addEdge(4, 5, 2.0);
    g.addEdge(3, 5, 2.0);
    g.addEdge(2, 3, 0.1);
    g.addEdge(0, 0, 5.0); // heavy self-loop must not distort grouping
    Random::setSeed(177);
    const Partition zeta = Plm().run(g);
    EXPECT_EQ(zeta[0], zeta[1]);
    EXPECT_EQ(zeta[0], zeta[2]);
    EXPECT_EQ(zeta[3], zeta[5]);
    EXPECT_NE(zeta[0], zeta[3]);
}

TEST(Plm, RunOnCoarseGraphDirectly) {
    // Users can feed PLM an already-coarsened weighted graph (the EPP
    // final phase does exactly this); loops and weights must round-trip.
    Random::setSeed(178);
    Graph g = SimpleGraphs::cliqueChain(6, 6);
    Partition first = Plp().run(g);
    first.compact();
    const CsrCoarseningResult coarse =
        ParallelPartitionCoarsening().run(CsrGraph(g), first);
    const Partition refined = Plm().run(coarse.coarseGraph);
    EXPECT_TRUE(refined.isComplete());
    const double q =
        Modularity().getQuality(refined, coarse.coarseGraph);
    EXPECT_GE(q, -0.5);
    EXPECT_LE(q, 1.0);
}

TEST(Plp, SingleNodeGraph) {
    Graph g(1, false);
    Random::setSeed(179);
    const Partition zeta = Plp().run(g);
    EXPECT_EQ(zeta.numberOfSubsets(), 1u);
}

TEST(Plp, SelfLoopOnlyGraph) {
    Graph g(2, true);
    g.addEdge(0, 0, 3.0);
    Random::setSeed(190);
    const Partition zeta = Plp().run(g);
    // A self-loop gives node 0 its own dominant label: stays singleton.
    EXPECT_NE(zeta[0], zeta[1]);
}

// --- move-phase tie-breaking and single-threaded determinism ---------------

TEST(Plm, MovePhaseTieBreaksToLowestCommunityId) {
    // Star: center 0 with leaves 1 and 2. From the singleton clustering,
    // moving 0 into {1} or {2} yields the exact same positive Δmod; the
    // tie must resolve to the lower community id regardless of neighbor
    // order — also when the order is reversed.
    const int restoreThreads = Parallel::maxThreads();
    Parallel::setThreads(1);
    for (const bool reversed : {false, true}) {
        Graph g(3, false);
        if (reversed) {
            g.addEdge(0, 2);
            g.addEdge(0, 1);
        } else {
            g.addEdge(0, 1);
            g.addEdge(0, 2);
        }
        Partition zeta(g.upperNodeIdBound());
        zeta.allToSingletons();
        // Freezing preserves adjacency order, so the reversal reaches the
        // kernel.
        Plm::movePhase(CsrGraph(g), zeta, 1.0, 1, nullptr);
        EXPECT_EQ(zeta[0], 1u) << "reversed=" << reversed;
    }
    Parallel::setThreads(restoreThreads);
}

TEST(Plm, SingleThreadedRunsAreDeterministic) {
    const int restoreThreads = Parallel::maxThreads();
    Parallel::setThreads(1);
    Random::setSeed(777);
    const Graph g = PlantedPartitionGenerator(400, 8, 0.2, 0.01).generate();
    for (const bool refine : {false, true}) {
        PlmConfig config;
        config.refine = refine;
        Random::setSeed(778);
        const Partition first = Plm(config).run(g);
        Random::setSeed(778);
        const Partition second = Plm(config).run(g);
        EXPECT_EQ(first.vector(), second.vector()) << "refine=" << refine;
    }
    Parallel::setThreads(restoreThreads);
}
