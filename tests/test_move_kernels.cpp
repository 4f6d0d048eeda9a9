// Move-phase kernel engineering (PR 6): every schedule of the tuned PLM
// kernel must make bit-identical decisions to the generic reference kernel
// in single-threaded runs, at three resolutions, on the unweighted input,
// on a real-weighted copy and on its integer-weighted level-1 coarse graph;
// the full sweep's skip of nodes that cannot move must keep that identity,
// end every converged phase on a certified sweep, and actually skip. The
// semantic opt-ins (active-set frontier, vertex following) are pinned by
// their own property tests, and the multi-thread bucketed sweep is run on
// an input large enough to reach it. Plus unit coverage for the building
// blocks: ThreadLocalPool, VertexFollowing::reduce.

#include <gtest/gtest.h>

#include <omp.h>

#include <string>
#include <tuple>
#include <vector>

#include "coarsening/parallel_coarsening.hpp"
#include "community/plm.hpp"
#include "community/vertex_following.hpp"
#include "generators/barabasi_albert.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "quality/modularity.hpp"
#include "support/random.hpp"
#include "support/single_thread_scope.hpp"

using namespace grapr;
using grapr::testing::SingleThreadScope;
using grapr::testing::ThreadCountScope;

namespace {

Graph makeInstance(const std::string& family, std::uint64_t seed) {
    Random::setSeed(seed);
    if (family == "erdos") return ErdosRenyiGenerator(400, 0.02).generate();
    // m = 1 grows a tree: the densest possible pendant/chain structure,
    // exactly what vertex following exists for.
    if (family == "ba") return BarabasiAlbertGenerator(400, 1).generate();
    if (family == "rmat") return RmatGenerator(9, 8).generate();
    fail("unknown instance " + family);
}

std::string familyLabel(
    const ::testing::TestParamInfo<std::tuple<std::string, std::uint64_t>>&
        info) {
    return std::get<0>(info.param) + "_seed" +
           std::to_string(std::get<1>(info.param));
}

/// The kernel-config grid every bit-identity test sweeps: both schedules
/// (the bucketed default must not matter single-threaded, where bucketing
/// degenerates to the flat sweep).
std::vector<std::pair<std::string, PlmKernelConfig>> kernelGrid() {
    PlmKernelConfig flat;
    flat.schedule = PlmSweepSchedule::Flat;
    return {{"flat", flat}, {"default", PlmKernelConfig{}}};
}

/// A copy of g with every edge weighted 0.1 + U[0,1): on real weights the
/// scores round, so the skip test runs with its margin.
Graph realWeightedCopy(const Graph& g, std::uint64_t seed) {
    Random::setSeed(seed);
    Graph weighted(g.upperNodeIdBound(), true);
    g.forEdges([&](node u, node v, edgeweight) {
        weighted.addEdge(u, v, 0.1 + Random::real());
    });
    return weighted;
}

/// Runs the reference kernel and every grid config on `csr` from the
/// singleton clustering at γ = 1, 0.7 and 1.3; each must reproduce the
/// reference's moves and labels exactly. Returns the γ = 1 reference
/// partition.
Partition expectGridMatchesReference(const CsrGraph& csr,
                                     const std::string& level) {
    Partition result;
    for (const double gamma : {1.0, 0.7, 1.3}) {
        Partition reference(csr.upperNodeIdBound());
        reference.allToSingletons();
        const count referenceMoves =
            Plm::movePhaseReference(csr, reference, gamma, 64, nullptr);

        for (const auto& [label, kernel] : kernelGrid()) {
            Partition zeta(csr.upperNodeIdBound());
            zeta.allToSingletons();
            const count moves =
                Plm::movePhase(csr, zeta, gamma, 64, nullptr, kernel);
            EXPECT_EQ(moves, referenceMoves)
                << level << " gamma=" << gamma << " " << label;
            EXPECT_EQ(zeta.vector(), reference.vector())
                << level << " gamma=" << gamma << " " << label;
        }
        if (gamma == 1.0) result = reference;
    }
    return result;
}

/// ROADMAP item 2's convergence certificate, applied to the default
/// kernel: when movePhase ends on a sweep that moved nothing (below its
/// cap), one reference sweep from its result moves nothing either.
/// Returns whether the phase converged, i.e. whether anything was checked.
bool expectCertified(const CsrGraph& csr, double gamma,
                     const std::string& label) {
    Partition zeta(csr.upperNodeIdBound());
    zeta.allToSingletons();
    IterationTracer tracer;
    Plm::movePhase(csr, zeta, gamma, 64, &tracer);
    if (tracer.records().empty() || tracer.records().back().updated != 0) {
        return false;
    }
    EXPECT_EQ(Plm::movePhaseReference(csr, zeta, gamma, 1, nullptr), 0u)
        << label << " gamma=" << gamma;
    return true;
}

} // namespace

class MoveKernelEquivalence
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(MoveKernelEquivalence, AllVariantsBitIdenticalSingleThreaded) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);
    SingleThreadScope once;

    // Level 0 is the unweighted generator output (count cells). Level 1,
    // its coarse graph under the reference partition, has integer weights
    // and self-loops, so it pins the weighted cells directly.
    const Partition level0 = expectGridMatchesReference(csr, "level0");
    expectGridMatchesReference(CsrGraph(realWeightedCopy(g, seed + 80)),
                               "real-weighted");
    const CsrCoarseningResult coarse =
        ParallelPartitionCoarsening(true).run(csr, level0);
    ASSERT_TRUE(coarse.coarseGraph.isWeighted());
    ASSERT_GT(coarse.coarseGraph.numberOfSelfLoops(), 0u);
    expectGridMatchesReference(coarse.coarseGraph, "level1");
}

TEST_P(MoveKernelEquivalence, DefaultKernelEndsOnCertifiedSweep) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);
    const CsrGraph weighted(realWeightedCopy(g, seed + 80));
    Partition level0(csr.upperNodeIdBound());
    level0.allToSingletons();
    {
        SingleThreadScope once;
        Plm::movePhaseReference(csr, level0, 1.0, 64, nullptr);
    }
    const CsrGraph coarse =
        ParallelPartitionCoarsening(true).run(csr, level0).coarseGraph;
    const std::pair<const CsrGraph*, std::string> graphs[] = {
        {&csr, "level0"}, {&weighted, "real-weighted"}, {&coarse, "level1"}};

    // One pinned thread, then four unpinned threads, whose sweeps race and
    // so are repeated: a phase that converges must still end on a sweep in
    // which no node could move.
    for (const int threads : {1, 4}) {
        ThreadCountScope scope(threads);
        const int repetitions = threads == 1 ? 1 : 10;
        count checked = 0;
        for (const auto& [graph, level] : graphs) {
            for (const double gamma : {1.0, 0.7}) {
                for (int r = 0; r < repetitions; ++r) {
                    checked += expectCertified(
                        *graph, gamma,
                        level + " threads=" + std::to_string(threads));
                }
            }
        }
        if (threads == 1) {
            EXPECT_EQ(checked, 6u);
        } else {
            EXPECT_GT(checked, 0u);
        }
    }
}

TEST_P(MoveKernelEquivalence, FullPlmBitIdenticalAcrossKernelsSingleThreaded) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    SingleThreadScope once;

    Random::setSeed(seed + 50);
    const Partition reference = Plm().run(g);
    for (const auto& [label, kernel] : kernelGrid()) {
        PlmConfig config;
        config.kernel = kernel;
        Random::setSeed(seed + 50);
        const Partition zeta = Plm(config).run(g);
        EXPECT_EQ(zeta.vector(), reference.vector()) << label;
    }
}

TEST_P(MoveKernelEquivalence, VariantsProduceValidPartitionsMultiThreaded) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);

    // Multi-threaded results are nondeterministic by design (asynchronous
    // contract); what must hold for every variant is a complete partition
    // and a sane quality.
    for (const auto& [label, kernel] : kernelGrid()) {
        Partition zeta(csr.upperNodeIdBound());
        zeta.allToSingletons();
        Plm::movePhase(csr, zeta, 1.0, 64, nullptr, kernel);
        for (node u = 0; u < csr.upperNodeIdBound(); ++u) {
            ASSERT_LT(zeta[u], zeta.upperBound()) << label;
        }
        EXPECT_GT(Modularity().getQuality(zeta, csr), 0.0) << label;
    }
}

TEST_P(MoveKernelEquivalence, ActiveSetDeterministicAndComparable) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);
    SingleThreadScope once;

    PlmKernelConfig active;
    active.activeNodes = true;

    Partition a(csr.upperNodeIdBound());
    a.allToSingletons();
    Plm::movePhase(csr, a, 1.0, 64, nullptr, active);
    Partition b(csr.upperNodeIdBound());
    b.allToSingletons();
    Plm::movePhase(csr, b, 1.0, 64, nullptr, active);
    // Deterministic: the frontier rebuild sorts, so a fixed seed and one
    // thread reproduce exactly.
    EXPECT_EQ(a.vector(), b.vector());

    // Comparable quality: deferred activation may change individual labels
    // vs the full sweep, but not the quality class of the result.
    Partition full(csr.upperNodeIdBound());
    full.allToSingletons();
    Plm::movePhase(csr, full, 1.0, 64, nullptr, PlmKernelConfig{});
    const double qActive = Modularity().getQuality(a, csr);
    const double qFull = Modularity().getQuality(full, csr);
    EXPECT_GT(qActive, 0.0);
    EXPECT_GE(qActive, qFull - 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Families, MoveKernelEquivalence,
    ::testing::Combine(::testing::Values("erdos", "ba", "rmat"),
                       ::testing::Values(1u, 2u, 3u)),
    familyLabel);

// --- skipping nodes that cannot move ---------------------------------------

TEST(MoveKernelSkip, SkipsConvergedNodesOnRmatS13) {
    // The anchor instance of bench/micro_plm_kernels, one thread: the
    // default full sweep must match the reference bit for bit while
    // evaluating at most 80% of the nodes its later sweeps cover.
    SingleThreadScope once;
    Random::setSeed(6013);
    const CsrGraph csr(RmatGenerator(13, 8).generate());

    Partition reference(csr.upperNodeIdBound());
    reference.allToSingletons();
    const count referenceMoves =
        Plm::movePhaseReference(csr, reference, 1.0, 64, nullptr);

    Partition zeta(csr.upperNodeIdBound());
    zeta.allToSingletons();
    IterationTracer tracer;
    const count moves = Plm::movePhase(csr, zeta, 1.0, 64, &tracer);
    EXPECT_EQ(moves, referenceMoves);
    EXPECT_EQ(zeta.vector(), reference.vector());

    const std::vector<IterationRecord>& sweeps = tracer.records();
    ASSERT_GE(sweeps.size(), 3u);
    count laterEvaluations = 0;
    for (std::size_t i = 1; i < sweeps.size(); ++i) {
        laterEvaluations += sweeps[i].active;
    }
    const auto laterSwept =
        static_cast<double>((sweeps.size() - 1) * csr.numberOfNodes());
    EXPECT_LE(static_cast<double>(laterEvaluations), 0.8 * laterSwept)
        << laterEvaluations << " of " << laterSwept << " over "
        << sweeps.size() << " sweeps";
}

// --- the bucketed sweep -----------------------------------------------------

TEST(MoveKernelBuckets, BucketedSweepRunsOnRmatS16) {
    // The default schedule buckets a multi-thread sweep of at least 2^15
    // work items (nodes with non-empty rows; kBucketedMinWork in plm.cpp)
    // by degree: below PlmKernelConfig::lowDegreeMax (32) static, from
    // hubDegreeMin (256) dynamic, guided in between. The input is built
    // on one thread: the generator is slow under TSan with several
    // threads.
    CsrGraph csr;
    {
        SingleThreadScope once;
        Random::setSeed(5);
        csr = CsrGraph(RmatGenerator(16, 8).generate());
    }
    count work = 0;
    count low = 0;
    count hub = 0;
    csr.forNodes([&](node u) {
        const count deg = csr.degree(u);
        if (deg == 0) return;
        ++work;
        if (deg < 32) ++low;
        if (deg >= 256) ++hub;
    });
    ASSERT_GE(work, count{1} << 15);
    ASSERT_GT(low, 0u);
    ASSERT_GT(work - low - hub, 0u);
    ASSERT_GT(hub, 0u);

    Partition zeta(csr.upperNodeIdBound());
    zeta.allToSingletons();
    IterationTracer tracer;
    count moves = 0;
    {
        ThreadCountScope scope(4);
        moves = Plm::movePhase(csr, zeta, 1.0, 64, &tracer);
    }
    ASSERT_TRUE(zeta.isComplete());
    for (node u = 0; u < csr.upperNodeIdBound(); ++u) {
        ASSERT_LT(zeta[u], zeta.upperBound()) << u;
    }
    const std::vector<IterationRecord>& sweeps = tracer.records();
    ASSERT_FALSE(sweeps.empty());
    count traced = 0;
    for (const IterationRecord& sweep : sweeps) traced += sweep.updated;
    EXPECT_EQ(moves, traced);
    if (sweeps.back().updated == 0) {
        SingleThreadScope once;
        EXPECT_EQ(Plm::movePhaseReference(csr, zeta, 1.0, 1, nullptr), 0u);
    }
}

// --- vertex following -------------------------------------------------------

class VertexFollowingProperty
    : public ::testing::TestWithParam<std::tuple<std::string, std::uint64_t>> {
};

TEST_P(VertexFollowingProperty, ReductionPreservesVolumeAndAnchorsPendants) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);

    const VertexFollowingReduction reduction = VertexFollowing::reduce(csr);
    ASSERT_EQ(reduction.anchor.size(), csr.upperNodeIdBound());

    // Anchors are live (never collapsed themselves) and chains resolve
    // fully: an anchor's anchor is itself.
    for (node u = 0; u < csr.upperNodeIdBound(); ++u) {
        const node a = reduction.anchor[u];
        EXPECT_EQ(reduction.anchor[a], a) << u;
    }

    if (reduction.collapsed == 0) return;
    // Contraction preserves the modularity arithmetic: total weight
    // exactly, volumes blockwise (collapsed edges became self-loops).
    EXPECT_DOUBLE_EQ(reduction.reduced.totalEdgeWeight(),
                     csr.totalEdgeWeight());
    std::vector<double> blockVolume(reduction.reduced.upperNodeIdBound(), 0.0);
    for (node u = 0; u < csr.upperNodeIdBound(); ++u) {
        if (!csr.hasNode(u)) continue;
        blockVolume[reduction.fineToCoarse[u]] += csr.volume(u);
    }
    for (node c = 0; c < reduction.reduced.upperNodeIdBound(); ++c) {
        EXPECT_NEAR(reduction.reduced.volume(c), blockVolume[c], 1e-9) << c;
    }
}

TEST_P(VertexFollowingProperty, PendantsLandInAnchorsCommunity) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    const CsrGraph csr(g);
    const VertexFollowingReduction reduction = VertexFollowing::reduce(csr);

    PlmConfig config;
    config.vertexFollowing = true;
    Random::setSeed(seed + 60);
    Plm plm(config);
    const Partition zeta = plm.run(csr);

    // Every collapsed node (pendants AND inner chain nodes) shares its
    // resolved anchor's community — the defining guarantee of the
    // projection. Degree-1 nodes are a subset of the collapsed set.
    for (node u = 0; u < csr.upperNodeIdBound(); ++u) {
        const node a = reduction.anchor[u];
        if (a == u) continue;
        EXPECT_EQ(zeta[u], zeta[a]) << u;
    }
    for (node u = 0; u < csr.upperNodeIdBound(); ++u) {
        if (!csr.hasNode(u) || csr.degree(u) != 1) continue;
        if (reduction.anchor[u] == u) continue; // e.g. multi-edge pendant
        EXPECT_EQ(zeta[u], zeta[reduction.anchor[u]]) << u;
    }
}

TEST_P(VertexFollowingProperty, CollapsedModularityNotWorse) {
    const auto& [family, seed] = GetParam();
    const Graph g = makeInstance(family, seed);
    SingleThreadScope once;

    PlmConfig plain;
    PlmConfig vf;
    vf.vertexFollowing = true;

    Random::setSeed(seed + 70);
    const Partition base = Plm(plain).run(g);
    Random::setSeed(seed + 70);
    const Partition followed = Plm(vf).run(g);

    const double qBase = Modularity().getQuality(base, g);
    const double qVf = Modularity().getQuality(followed, g);
    // Pendant-with-anchor is modularity-optimal for the PENDANTS (pinned
    // exactly by PendantsLandInAnchorsCommunity); end-to-end the two runs
    // are different greedy trajectories ending in different local optima,
    // so the comparison carries a small noise band. The post-prolongation
    // refinement sweep keeps the VF path inside half a percent even on the
    // pendant-dense BA tree, the hardest family here.
    EXPECT_GE(qVf + 5e-3, qBase);
}

INSTANTIATE_TEST_SUITE_P(
    Families, VertexFollowingProperty,
    ::testing::Combine(::testing::Values("erdos", "ba", "rmat"),
                       ::testing::Values(1u, 2u, 3u)),
    familyLabel);

TEST(VertexFollowing, PathTipsFoldOneStepOnly) {
    // Path 0-1-2-3-4: only the ORIGINAL pendants (the two tips) collapse —
    // the reduction is a single pass, not an iterated peel, so the chain
    // interior survives (see vertex_following.hpp for why iterating would
    // crater quality on tree-like inputs).
    Graph g(5, false);
    for (node u = 0; u + 1 < 5; ++u) g.addEdge(u, u + 1);
    const CsrGraph csr(g);
    const VertexFollowingReduction reduction = VertexFollowing::reduce(csr);

    EXPECT_EQ(reduction.collapsed, 2u);
    EXPECT_EQ(reduction.anchor[0], 1u);
    EXPECT_EQ(reduction.anchor[4], 3u);
    for (node u = 1; u < 4; ++u) EXPECT_EQ(reduction.anchor[u], u) << u;
    // Blocks {0,1} {2} {3,4}: the two tip edges fold into self-loops, the
    // two interior edges survive — weight conserved either way.
    EXPECT_EQ(reduction.reduced.numberOfNodes(), 3u);
    EXPECT_DOUBLE_EQ(reduction.reduced.totalEdgeWeight(), 4.0);
}

TEST(VertexFollowing, StarPendantsFollowTheHub) {
    Graph g(6, false);
    for (node u = 1; u < 6; ++u) g.addEdge(0, u);
    const CsrGraph csr(g);
    const VertexFollowingReduction reduction = VertexFollowing::reduce(csr);
    EXPECT_EQ(reduction.collapsed, 5u);
    for (node u = 1; u < 6; ++u) EXPECT_EQ(reduction.anchor[u], 0u) << u;
}

TEST(VertexFollowing, NoPendantsIsANoOp) {
    // A triangle has no degree-1 nodes; reduce must report collapsed == 0
    // so callers skip the contraction.
    Graph g(3, false);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(2, 0);
    const VertexFollowingReduction reduction =
        VertexFollowing::reduce(CsrGraph(g));
    EXPECT_EQ(reduction.collapsed, 0u);
    for (node u = 0; u < 3; ++u) EXPECT_EQ(reduction.anchor[u], u);
}

// --- ThreadLocalPool --------------------------------------------------------

TEST(ThreadLocalPool, OneSlotPerPotentialThread) {
    ThreadLocalPool<std::vector<int>> pool;
    EXPECT_EQ(pool.size(),
              static_cast<std::size_t>(omp_get_max_threads()));

#pragma omp parallel default(none) shared(pool)
    { pool.local().push_back(omp_get_thread_num()); }

    // Every thread that ran wrote only its own slot.
    for (std::size_t t = 0; t < pool.size(); ++t) {
        for (const int v : pool.slot(t)) {
            EXPECT_EQ(v, static_cast<int>(t));
        }
    }
}

TEST(ThreadLocalPool, SafeWhenTeamIsSmallerThanRequested) {
    // OpenMP may deliver fewer threads than omp_get_max_threads(); slots of
    // threads that never ran simply stay in their constructed state.
    ThreadLocalPool<SparseAccumulator> pool(count{8});
#pragma omp parallel num_threads(1) default(none) shared(pool)
    {
        // grapr:analyze-allow(shared-write-safety): local() resolves to
        // the calling thread's own slot — disjoint by construction, which
        // the textual effect pass cannot see through the member call.
        pool.local().add(3, 1.0);
    }
    EXPECT_EQ(pool.slot(0).touched().size(), 1u);
    for (std::size_t t = 1; t < pool.size(); ++t) {
        EXPECT_TRUE(pool.slot(t).touched().empty());
    }
}

TEST(ThreadLocalPool, ForwardsConstructorArguments) {
    ThreadLocalPool<SparseAccumulator> pool(count{16});
    for (std::size_t t = 0; t < pool.size(); ++t) {
        EXPECT_EQ(pool.slot(t).capacity(), 16u);
    }
}
