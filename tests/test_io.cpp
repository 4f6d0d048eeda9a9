// I/O round-trip tests: edge list, METIS, binary, partition, DOT; GML input
// validation.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "generators/erdos_renyi.hpp"
#include "generators/simple_graphs.hpp"
#include "io/binary_csr.hpp"
#include "io/dot_writer.hpp"
#include "io/edgelist_io.hpp"
#include "io/gml_io.hpp"
#include "io/io_error.hpp"
#include "io/metis_io.hpp"
#include "io/partition_io.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

class IoTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto stamp =
            std::chrono::steady_clock::now().time_since_epoch().count();
        dir_ = std::filesystem::temp_directory_path() /
               ("grapr_io_test_" + std::to_string(stamp));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

    std::filesystem::path dir_;
};

} // namespace

TEST_F(IoTest, EdgeListRoundTrip) {
    Random::setSeed(20);
    Graph g = ErdosRenyiGenerator(100, 0.05).generate();
    io::writeEdgeList(g, path("g.tsv"));
    Graph loaded = io::readEdgeList(path("g.tsv"));
    EXPECT_TRUE(loaded.structurallyEquals(g));
    loaded.checkConsistency();
}

TEST_F(IoTest, EdgeListWeightedRoundTrip) {
    Graph g(3, true);
    g.addEdge(0, 1, 2.5);
    g.addEdge(1, 2, 0.25);
    io::writeEdgeList(g, path("w.tsv"), /*withWeights=*/true);
    io::ParseOptions options;
    options.weighted = true;
    Graph loaded = io::readEdgeList(path("w.tsv"), options);
    EXPECT_TRUE(loaded.structurallyEquals(g));
}

TEST_F(IoTest, EdgeListRemapsSparseIds) {
    {
        std::ofstream out(path("sparse.tsv"));
        out << "# comment line\n";
        out << "1000 2000\n2000 3000\n";
    }
    std::vector<std::uint64_t> original;
    Graph g = io::readEdgeList(path("sparse.tsv"), {}, &original);
    EXPECT_EQ(g.numberOfNodes(), 3u);
    EXPECT_EQ(g.numberOfEdges(), 2u);
    EXPECT_EQ(original, (std::vector<std::uint64_t>{1000, 2000, 3000}));
}

TEST_F(IoTest, EdgeListDirectedInputDedups) {
    {
        std::ofstream out(path("dir.tsv"));
        out << "0 1\n1 0\n1 2\n";
    }
    io::ParseOptions options;
    options.directedInput = true;
    Graph g = io::readEdgeList(path("dir.tsv"), options);
    EXPECT_EQ(g.numberOfEdges(), 2u);
}

TEST_F(IoTest, EdgeListMalformedThrows) {
    {
        std::ofstream out(path("bad.tsv"));
        out << "0 not_a_number\n";
    }
    EXPECT_THROW(io::readEdgeList(path("bad.tsv")), std::runtime_error);
}

TEST_F(IoTest, EdgeListMissingFileThrows) {
    EXPECT_THROW(io::readEdgeList(path("does_not_exist.tsv")),
                 std::runtime_error);
}

TEST_F(IoTest, MetisRoundTrip) {
    Random::setSeed(21);
    Graph g = ErdosRenyiGenerator(80, 0.08).generate();
    io::writeMetis(g, path("g.metis"));
    Graph loaded = io::readMetis(path("g.metis"));
    EXPECT_TRUE(loaded.structurallyEquals(g));
}

TEST_F(IoTest, MetisWeightedRoundTrip) {
    Graph g(4, true);
    g.addEdge(0, 1, 2.0);
    g.addEdge(1, 2, 3.0);
    g.addEdge(2, 3, 4.0);
    io::writeMetis(g, path("w.metis"));
    Graph loaded = io::readMetis(path("w.metis"));
    EXPECT_TRUE(loaded.isWeighted());
    EXPECT_TRUE(loaded.structurallyEquals(g));
}

TEST_F(IoTest, MetisParsesHandWrittenFile) {
    {
        std::ofstream out(path("hand.metis"));
        out << "% a comment\n";
        out << "3 2\n";
        // A triangle: row i lists the 1-based neighbors of node i. The
        // header understates the edge count; the reader tolerates that
        // with a warning and parses all 3 edges.
        out << "2 3\n1 3\n1 2\n";
    }
    Graph g = io::readMetis(path("hand.metis"));
    EXPECT_EQ(g.numberOfNodes(), 3u);
    EXPECT_EQ(g.numberOfEdges(), 3u);
}

TEST_F(IoTest, MetisIsolatedNodes) {
    Graph g(4, false);
    g.addEdge(1, 2);
    io::writeMetis(g, path("iso.metis"));
    Graph loaded = io::readMetis(path("iso.metis"));
    EXPECT_EQ(loaded.numberOfNodes(), 4u);
    EXPECT_EQ(loaded.numberOfEdges(), 1u);
    EXPECT_EQ(loaded.degree(0), 0u);
}

TEST_F(IoTest, BinaryRoundTripUnweighted) {
    Random::setSeed(22);
    Graph g = ErdosRenyiGenerator(500, 0.02).generate();
    io::writeBinaryCsr(CsrGraph(g), 0, path("g.gcsr"));
    Graph loaded = io::readBinaryCsr(path("g.gcsr")).graph.toGraph();
    EXPECT_TRUE(loaded.structurallyEquals(g));
    loaded.checkConsistency();
}

TEST_F(IoTest, BinaryRoundTripWeightedWithLoops) {
    Graph g(5, true);
    g.addEdge(0, 1, 0.5);
    g.addEdge(2, 2, 7.0);
    g.addEdge(3, 4, 1.25);
    io::writeBinaryCsr(CsrGraph(g), 0, path("w.gcsr"));
    Graph loaded = io::readBinaryCsr(path("w.gcsr")).graph.toGraph();
    EXPECT_TRUE(loaded.structurallyEquals(g));
    EXPECT_EQ(loaded.numberOfSelfLoops(), 1u);
}

TEST_F(IoTest, BinaryRejectsGarbage) {
    {
        std::ofstream out(path("garbage.gcsr"), std::ios::binary);
        out << "not a grapr file at all";
    }
    EXPECT_THROW(io::readBinaryCsr(path("garbage.gcsr")), std::runtime_error);
}

TEST_F(IoTest, PartitionRoundTrip) {
    Partition p(5);
    p.set(0, 2);
    p.set(1, 0);
    // p[2] stays unassigned
    p.set(3, 2);
    p.set(4, 1);
    p.setUpperBound(3);
    io::writePartition(p, path("p.txt"));
    Partition loaded = io::readPartition(path("p.txt"));
    EXPECT_EQ(loaded.numberOfElements(), 5u);
    for (node v = 0; v < 5; ++v) EXPECT_EQ(loaded[v], p[v]);
}

TEST_F(IoTest, DotWriterProducesParsableOutput) {
    Graph g = SimpleGraphs::cliqueChain(2, 3);
    io::writeDot(g, path("g.dot"));
    std::ifstream in(path("g.dot"));
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("graph G {"), std::string::npos);
    EXPECT_NE(content.find("--"), std::string::npos);
}

TEST_F(IoTest, CommunityGraphDot) {
    Graph cg(2, true);
    cg.addEdge(0, 1, 3.0);
    cg.addEdge(0, 0, 10.0);
    io::writeCommunityGraphDot(CsrGraph(cg), {50, 20}, path("cg.dot"));
    std::ifstream in(path("cg.dot"));
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_NE(content.find("label=\"50\""), std::string::npos);
    EXPECT_NE(content.find("0 -- 1"), std::string::npos);
    // Intra-community loop must not be drawn.
    EXPECT_EQ(content.find("0 -- 0"), std::string::npos);
}

TEST_F(IoTest, MetisCommentLinesBetweenRows) {
    {
        std::ofstream out(path("cmt.metis"));
        out << "% header comment\n3 2\n% mid comment\n2\n1 3\n2\n";
    }
    Graph g = io::readMetis(path("cmt.metis"));
    EXPECT_EQ(g.numberOfNodes(), 3u);
    EXPECT_EQ(g.numberOfEdges(), 2u);
}

TEST_F(IoTest, EdgeListHeaderPreservesIsolatedNodes) {
    Graph g(5, false);
    g.addEdge(1, 3); // nodes 0, 2, 4 isolated
    io::writeEdgeList(g, path("iso.tsv"));
    Graph loaded = io::readEdgeList(path("iso.tsv"));
    EXPECT_EQ(loaded.numberOfNodes(), 5u);
    EXPECT_EQ(loaded.degree(0), 0u);
    EXPECT_TRUE(loaded.hasEdge(1, 3));
}

TEST_F(IoTest, BinarySurvivesEmptyGraph) {
    Graph g(7, false);
    io::writeBinaryCsr(CsrGraph(g), 0, path("empty.gcsr"));
    Graph loaded = io::readBinaryCsr(path("empty.gcsr")).graph.toGraph();
    EXPECT_EQ(loaded.numberOfNodes(), 7u);
    EXPECT_EQ(loaded.numberOfEdges(), 0u);
}

TEST_F(IoTest, MetisStrictRejectsHeaderEdgeCountMismatch) {
    // Regression: readMetis used to accept a header edge count that
    // disagrees with the edges actually present in every mode. Now the
    // one-arg (permissive) overload still tolerates it with a warning,
    // but strict mode reports the header line as malformed.
    {
        std::ofstream out(path("mismatch.metis"));
        out << "3 2\n2 3\n1 3\n1 2\n"; // a triangle: 3 edges, header says 2
    }
    Graph tolerant = io::readMetis(path("mismatch.metis"));
    EXPECT_EQ(tolerant.numberOfEdges(), 3u);

    io::ParseOptions strict; // strict = true by default
    try {
        io::readMetis(path("mismatch.metis"), strict);
        FAIL() << "expected IoError for header/body edge-count mismatch";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.line(), 1u); // the lying header is the malformed line
        EXPECT_NE(std::string(e.what()).find("edges but"),
                  std::string::npos);
    }
}

TEST_F(IoTest, EdgeListWeightedRoundTripPreservesNonIntegerWeights) {
    Graph g(5, true);
    g.addEdge(0, 1, 0.1);
    g.addEdge(1, 2, 2.5e-3);
    g.addEdge(2, 3, 1.0 / 3.0);
    g.addEdge(3, 4, 12345.678901234567);
    g.addEdge(4, 0, 1e-12);
    io::writeEdgeList(g, path("wrt.tsv"), /*withWeights=*/true);

    io::ParseOptions options;
    options.weighted = true;
    Graph loaded = io::readEdgeList(path("wrt.tsv"), options);
    ASSERT_EQ(loaded.numberOfEdges(), g.numberOfEdges());
    g.forEdges([&](node u, node v, edgeweight w) {
        EXPECT_NEAR(loaded.weight(u, v), w, 1e-9 * (1.0 + std::abs(w)))
            << u << "-" << v;
        // The writer emits shortest round-trip decimals, so the weights
        // are in fact bit-exact, not merely within tolerance.
        EXPECT_EQ(loaded.weight(u, v), w) << u << "-" << v;
    });
}

TEST_F(IoTest, MetisWeightedRoundTripPreservesNonIntegerWeights) {
    Graph g(4, true);
    g.addEdge(0, 1, 0.1);
    g.addEdge(1, 2, 2.5e-3);
    g.addEdge(2, 3, 0.7071067811865476);
    g.addEdge(0, 3, 9876.54321);
    io::writeMetis(g, path("wrt.metis"));

    Graph loaded = io::readMetis(path("wrt.metis"));
    ASSERT_EQ(loaded.numberOfEdges(), g.numberOfEdges());
    g.forEdges([&](node u, node v, edgeweight w) {
        EXPECT_NEAR(loaded.weight(u, v), w, 1e-9 * (1.0 + std::abs(w)))
            << u << "-" << v;
        EXPECT_EQ(loaded.weight(u, v), w) << u << "-" << v;
    });
}

TEST_F(IoTest, GmlRejectsNonFiniteWeight) {
    for (const char* weight : {"nan", "inf", "-inf"}) {
        {
            std::ofstream out(path("nonfinite.gml"));
            out << "graph [ node [ id 0 ] node [ id 1 ] "
                   "edge [ source 0 target 1 weight "
                << weight << " ] ]\n";
        }
        EXPECT_THROW(io::readGml(path("nonfinite.gml")), std::runtime_error)
            << weight;
    }
}
