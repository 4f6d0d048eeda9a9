// Integration tests: full pipelines across modules — generate → detect →
// score → coarsen → visualize → persist, exactly the workflows the
// examples and benches run.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "baselines/registry.hpp"
#include "coarsening/parallel_coarsening.hpp"
#include "community/plm.hpp"
#include "community/plp.hpp"
#include "generators/lfr.hpp"
#include "generators/rmat.hpp"
#include "io/binary_csr.hpp"
#include "io/dot_writer.hpp"
#include "io/metis_io.hpp"
#include "io/partition_io.hpp"
#include "quality/coverage.hpp"
#include "quality/graph_stats.hpp"
#include "quality/modularity.hpp"
#include "quality/partition_similarity.hpp"
#include "support/parallel.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

std::filesystem::path tempDir() {
    const auto stamp =
        std::chrono::steady_clock::now().time_since_epoch().count();
    auto dir = std::filesystem::temp_directory_path() /
               ("grapr_integration_" + std::to_string(stamp));
    std::filesystem::create_directories(dir);
    return dir;
}

} // namespace

TEST(Integration, LfrDetectScoreRoundTrip) {
    Random::setSeed(130);
    LfrParameters params;
    params.n = 3000;
    params.mu = 0.3;
    LfrGenerator gen(params);
    Graph g = gen.generate();

    Plm plm;
    const Partition zeta = plm.run(g);
    const double q = Modularity().getQuality(zeta, g);
    const double cov = Coverage().getQuality(zeta, g);
    EXPECT_GT(q, 0.3);
    EXPECT_GT(cov, q); // coverage upper-bounds modularity's first term
    EXPECT_GT(jaccardIndex(zeta, gen.groundTruth()), 0.6);
}

TEST(Integration, PersistGraphAndPartitionThenRevalidate) {
    Random::setSeed(131);
    const auto dir = tempDir();
    Graph g = RmatGenerator(11, 8).generate();
    const Partition zeta = Plm().run(g);
    const double q = Modularity().getQuality(zeta, g);

    io::writeBinaryCsr(CsrGraph(g), 0, (dir / "g.gcsr").string());
    io::writePartition(zeta, (dir / "z.part").string());

    Graph g2 = io::readBinaryCsr((dir / "g.gcsr").string()).graph.toGraph();
    Partition z2 = io::readPartition((dir / "z.part").string());
    EXPECT_TRUE(g2.structurallyEquals(g));
    EXPECT_NEAR(Modularity().getQuality(z2, g2), q, 1e-12);
    std::filesystem::remove_all(dir);
}

TEST(Integration, CommunityGraphVisualizationPipeline) {
    // The Figure-11 pipeline: detect, coarsen by communities, emit DOT.
    Random::setSeed(132);
    const auto dir = tempDir();
    LfrParameters params;
    params.n = 1000;
    LfrGenerator gen(params);
    Graph g = gen.generate();
    Partition zeta = Plm().run(g);
    zeta.compact();

    const CsrCoarseningResult result =
        ParallelPartitionCoarsening().run(CsrGraph(g), zeta);
    const auto sizes = zeta.subsetSizes();
    io::writeCommunityGraphDot(result.coarseGraph, sizes,
                               (dir / "communities.dot").string());
    std::ifstream in(dir / "communities.dot");
    EXPECT_TRUE(in.good());
    std::string firstLine;
    std::getline(in, firstLine);
    EXPECT_EQ(firstLine, "graph communities {");
    std::filesystem::remove_all(dir);
}

TEST(Integration, MetisExportImportAcrossAlgorithms) {
    Random::setSeed(133);
    const auto dir = tempDir();
    LfrParameters params;
    params.n = 800;
    LfrGenerator gen(params);
    Graph g = gen.generate();
    io::writeMetis(g, (dir / "g.metis").string());
    Graph loaded = io::readMetis((dir / "g.metis").string());

    // Same graph -> the deterministic profile must agree.
    const GraphProfile a = profileGraph(g);
    const GraphProfile b = profileGraph(loaded);
    EXPECT_EQ(a.n, b.n);
    EXPECT_EQ(a.m, b.m);
    EXPECT_EQ(a.maxDegree, b.maxDegree);
    EXPECT_EQ(a.components, b.components);
    EXPECT_NEAR(a.averageLcc, b.averageLcc, 1e-12);
    std::filesystem::remove_all(dir);
}

TEST(Integration, ThreadCountSweepGivesValidSolutions) {
    // The strong-scaling harness shape: same instance, threads 1..4, every
    // run must produce a complete partition with sane modularity. (On this
    // container >1 threads oversubscribes a single core; correctness — not
    // speedup — is what this test pins.)
    Random::setSeed(134);
    LfrParameters params;
    params.n = 2000;
    params.mu = 0.4;
    LfrGenerator gen(params);
    Graph g = gen.generate();

    const int original = Parallel::maxThreads();
    for (int threads : {1, 2, 4}) {
        Parallel::setThreads(threads);
        Random::setSeed(134);
        const Partition viaPlp = Plp().run(g);
        const Partition viaPlm = Plm().run(g);
        EXPECT_TRUE(viaPlp.isComplete());
        EXPECT_TRUE(viaPlm.isComplete());
        const double qPlm = Modularity().getQuality(viaPlm, g);
        EXPECT_GT(qPlm, 0.25) << "threads=" << threads;
    }
    Parallel::setThreads(original);
}

TEST(Integration, FullComparisonSweepOnOneInstance) {
    // Miniature of the Fig. 5 Pareto harness: every registered algorithm on
    // one planted instance; all must return complete partitions and the
    // quality ordering PLM >= PLP - eps must hold.
    Random::setSeed(135);
    LfrParameters params;
    params.n = 1000;
    params.mu = 0.35;
    LfrGenerator gen(params);
    Graph g = gen.generate();

    double plpQ = 0.0, plmQ = 0.0;
    for (const auto& name : detectorNames()) {
        auto detector = makeDetector(name);
        const Partition zeta = detector->run(g);
        ASSERT_TRUE(zeta.isComplete()) << name;
        const double q = Modularity().getQuality(zeta, g);
        EXPECT_GT(q, -0.5) << name;
        EXPECT_LT(q, 1.0) << name;
        if (name == "PLP") plpQ = q;
        if (name == "PLM") plmQ = q;
    }
    EXPECT_GE(plmQ, plpQ - 0.05);
}
