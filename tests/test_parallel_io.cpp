// Property tests for the parallel mmap ingestion pipeline
// (parallel_edgelist / parallel_metis): the parallel parser must produce a
// CsrGraph that is bit-identical — offsets, neighbor order, weights — to
// the sequential (threads=1) parse, across graph families (ER/BA/RMAT),
// every ParseOptions combination, and thread counts 1/2/4; plus the chunk
// boundary cases (file not ending in a newline, CRLF line endings, empty
// lines, comment-only files, tokens adjacent to chunk split points), the
// mmap read() fallback, and the IoError location contract. Every id path
// (remapped ids past 32 bits, direct ids, a declared count), weighted and
// directed input are pinned to exact arrays and errors at 1-4 threads,
// through both the mapping and the heap fallback.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "generators/barabasi_albert.hpp"
#include "generators/erdos_renyi.hpp"
#include "generators/rmat.hpp"
#include "graph/csr_graph.hpp"
#include "io/edgelist_io.hpp"
#include "io/io_error.hpp"
#include "io/mapped_file.hpp"
#include "io/metis_io.hpp"
#include "io/parallel_edgelist.hpp"
#include "io/parallel_metis.hpp"
#include "support/random.hpp"

using namespace grapr;

namespace {

class ParallelIoTest : public ::testing::Test {
protected:
    void SetUp() override {
        const auto stamp =
            std::chrono::steady_clock::now().time_since_epoch().count();
        dir_ = std::filesystem::temp_directory_path() /
               ("grapr_pio_test_" + std::to_string(stamp));
        std::filesystem::create_directories(dir_);
    }
    void TearDown() override { std::filesystem::remove_all(dir_); }

    std::string path(const std::string& name) const {
        return (dir_ / name).string();
    }

    std::string write(const std::string& name, const std::string& content) {
        const std::string p = path(name);
        std::ofstream out(p, std::ios::binary);
        out << content;
        return p;
    }

    std::filesystem::path dir_;
};

/// Bit-identical CSR comparison: the property the parallel build claims.
void expectSameCsr(const CsrGraph& a, const CsrGraph& b,
                   const std::string& what) {
    ASSERT_EQ(a.offsets(), b.offsets()) << what;
    ASSERT_EQ(a.neighborArray(), b.neighborArray()) << what;
    ASSERT_EQ(a.weightArray(), b.weightArray()) << what;
    EXPECT_EQ(a.numberOfNodes(), b.numberOfNodes()) << what;
    EXPECT_EQ(a.numberOfEdges(), b.numberOfEdges()) << what;
    EXPECT_EQ(a.numberOfSelfLoops(), b.numberOfSelfLoops()) << what;
    EXPECT_EQ(a.isWeighted(), b.isWeighted()) << what;
    EXPECT_NEAR(a.totalEdgeWeight(), b.totalEdgeWeight(),
                1e-9 * (1.0 + std::abs(a.totalEdgeWeight())))
        << what;
}

/// Weighted clone of g with deterministic, binary-exact weights.
Graph withWeights(const Graph& g) {
    Graph weighted(g.upperNodeIdBound(), true);
    g.forEdges([&](node u, node v, edgeweight) {
        weighted.addEdge(u, v, 0.25 + static_cast<double>((u * 31 + v) % 17) *
                                          0.125);
    });
    return weighted;
}

struct Family {
    std::string name;
    Graph graph;
};

std::vector<Family> families() {
    std::vector<Family> out;
    Random::setSeed(501);
    out.push_back({"er", ErdosRenyiGenerator(220, 0.04).generate()});
    Random::setSeed(502);
    out.push_back({"ba", BarabasiAlbertGenerator(400, 3).generate()});
    Random::setSeed(503);
    out.push_back({"rmat", RmatGenerator(9, 4).generate()});
    return out;
}

constexpr int kThreadCounts[] = {1, 2, 4};

} // namespace

// --- edge list: parallel == sequential across families and options -------

TEST_F(ParallelIoTest, EdgeListParallelMatchesSequentialAcrossFamilies) {
    for (const Family& family : families()) {
        for (const bool weighted : {false, true}) {
            const Graph g =
                weighted ? withWeights(family.graph) : family.graph;
            const std::string file = path(family.name + ".tsv");
            io::writeEdgeList(g, file, weighted);

            io::ParseOptions options;
            options.weighted = weighted;
            options.threads = 1;
            const CsrGraph reference = io::readEdgeListCsr(file, options);

            // The round trip preserves the graph (the file has a header,
            // so ids and isolated nodes are pinned). Adjacency *order*
            // legitimately differs from the generator's insertion order,
            // so this check is structural.
            EXPECT_TRUE(reference.toGraph().structurallyEquals(g))
                << family.name;

            for (const int threads : kThreadCounts) {
                options.threads = threads;
                std::vector<std::uint64_t> ids;
                const CsrGraph parsed =
                    io::readEdgeListCsr(file, options, &ids);
                expectSameCsr(parsed, reference,
                              family.name + " threads=" +
                                  std::to_string(threads));
                EXPECT_EQ(ids.size(), parsed.numberOfNodes());
            }
        }
    }
}

TEST_F(ParallelIoTest, EdgeListRemapFirstAppearanceIndependentOfThreads) {
    // Headerless file with sparse, shuffled raw ids: the remap must be
    // first-appearance in file order no matter how the file is chunked.
    Random::setSeed(77);
    std::string content;
    for (int i = 0; i < 400; ++i) {
        const std::uint64_t u = 1000 + static_cast<std::uint64_t>(
                                           Random::integer(0, 120)) *
                                           977;
        const std::uint64_t v = 1000 + static_cast<std::uint64_t>(
                                           Random::integer(0, 120)) *
                                           977;
        content += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
    const std::string file = write("sparse.tsv", content);

    io::ParseOptions options;
    options.threads = 1;
    std::vector<std::uint64_t> referenceIds;
    const CsrGraph reference =
        io::readEdgeListCsr(file, options, &referenceIds);
    for (const int threads : {2, 4, 8}) {
        options.threads = threads;
        std::vector<std::uint64_t> ids;
        const CsrGraph parsed = io::readEdgeListCsr(file, options, &ids);
        expectSameCsr(parsed, reference,
                      "remap threads=" + std::to_string(threads));
        EXPECT_EQ(ids, referenceIds);
    }
}

TEST_F(ParallelIoTest, EdgeListDirectedDedupAcrossThreads) {
    // Directed dump: every edge twice plus genuine duplicates.
    std::string content;
    for (node u = 0; u < 60; ++u) {
        const node v = (u * 7 + 3) % 60;
        content += std::to_string(u) + " " + std::to_string(v) + "\n";
        content += std::to_string(v) + " " + std::to_string(u) + "\n";
        content += std::to_string(u) + " " + std::to_string(v) + "\n";
    }
    const std::string file = write("directed.tsv", content);

    io::ParseOptions options;
    options.directedInput = true;
    options.threads = 1;
    const CsrGraph reference = io::readEdgeListCsr(file, options);
    for (const int threads : {2, 4}) {
        options.threads = threads;
        expectSameCsr(io::readEdgeListCsr(file, options), reference,
                      "dedup threads=" + std::to_string(threads));
    }
    // Dedup agrees with the legacy adjacency-list route.
    io::ParseOptions legacy;
    legacy.directedInput = true;
    EXPECT_TRUE(
        io::readEdgeList(file, legacy).structurallyEquals(reference.toGraph()));
}

TEST_F(ParallelIoTest, EdgeListIndexBaseShiftsIds) {
    const std::string file = write("onebased.tsv", "1 2\n2 3\n3 1\n");
    io::ParseOptions options;
    options.indexBase = 1;
    options.remapIds = false;
    const CsrGraph g = io::readEdgeListCsr(file, options);
    EXPECT_EQ(g.numberOfNodes(), 3u);
    EXPECT_EQ(g.numberOfEdges(), 3u);
    Graph thawed = g.toGraph();
    EXPECT_TRUE(thawed.hasEdge(0, 1));
    EXPECT_TRUE(thawed.hasEdge(1, 2));
    EXPECT_TRUE(thawed.hasEdge(2, 0));

    // An id below the base is a parse error with a location.
    const std::string bad = write("zero.tsv", "1 2\n0 2\n");
    try {
        io::readEdgeListCsr(bad, options);
        FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.line(), 2u);
    }
}

// --- chunk-boundary and byte-level cases ---------------------------------

TEST_F(ParallelIoTest, EdgeListNoTrailingNewline) {
    const std::string file = write("notrail.tsv", "0 1\n1 2\n2 3");
    io::ParseOptions options;
    for (const int threads : kThreadCounts) {
        options.threads = threads;
        const CsrGraph g = io::readEdgeListCsr(file, options);
        EXPECT_EQ(g.numberOfNodes(), 4u);
        EXPECT_EQ(g.numberOfEdges(), 3u);
    }
}

TEST_F(ParallelIoTest, EdgeListCrlfAndEmptyLines) {
    const std::string file = write(
        "crlf.tsv", "# header\r\n0 1\r\n\r\n   \r\n1 2\r\n\n2 0\r\n");
    io::ParseOptions options;
    options.threads = 1;
    const CsrGraph reference = io::readEdgeListCsr(file, options);
    EXPECT_EQ(reference.numberOfNodes(), 3u);
    EXPECT_EQ(reference.numberOfEdges(), 3u);
    for (const int threads : {2, 4}) {
        options.threads = threads;
        expectSameCsr(io::readEdgeListCsr(file, options), reference, "crlf");
    }
}

TEST_F(ParallelIoTest, EdgeListCommentOnlyAndEmptyFiles) {
    const std::vector<std::string> contents = {
        "", "# nothing\n% here\n\n", "#"};
    for (const std::string& content : contents) {
        const std::string file = write("empty.tsv", content);
        for (const int threads : kThreadCounts) {
            io::ParseOptions options;
            options.threads = threads;
            const CsrGraph g = io::readEdgeListCsr(file, options);
            EXPECT_EQ(g.numberOfNodes(), 0u);
            EXPECT_EQ(g.numberOfEdges(), 0u);
        }
    }
}

TEST_F(ParallelIoTest, EdgeListLongTokensNearChunkBoundaries) {
    // Wide ids make it likely that a naive byte split would land inside a
    // token; newline alignment must keep every parse identical.
    std::string content;
    for (int i = 0; i < 97; ++i) {
        content += std::to_string(1000000000000ull + static_cast<unsigned long long>(i) * 7919) +
                   "\t" +
                   std::to_string(1000000000000ull + static_cast<unsigned long long>(i + 1) * 7919) +
                   "\n";
    }
    const std::string file = write("wide.tsv", content);
    io::ParseOptions options;
    options.threads = 1;
    std::vector<std::uint64_t> referenceIds;
    const CsrGraph reference =
        io::readEdgeListCsr(file, options, &referenceIds);
    for (const int threads : {2, 3, 4, 5, 8, 13}) {
        options.threads = threads;
        std::vector<std::uint64_t> ids;
        expectSameCsr(io::readEdgeListCsr(file, options, &ids), reference,
                      "wide threads=" + std::to_string(threads));
        EXPECT_EQ(ids, referenceIds);
    }
}

TEST_F(ParallelIoTest, MoreThreadsThanLines) {
    const std::string file = write("tiny.tsv", "0 1\n");
    io::ParseOptions options;
    options.threads = 16;
    const CsrGraph g = io::readEdgeListCsr(file, options);
    EXPECT_EQ(g.numberOfNodes(), 2u);
    EXPECT_EQ(g.numberOfEdges(), 1u);
}

// --- mmap fallback -------------------------------------------------------

TEST_F(ParallelIoTest, ReadFallbackMatchesMmap) {
    Random::setSeed(91);
    const Graph g = ErdosRenyiGenerator(150, 0.06).generate();
    const std::string file = path("fallback.tsv");
    io::writeEdgeList(g, file);

    io::ParseOptions options;
    options.threads = 4;
    const CsrGraph viaMmap = io::readEdgeListCsr(file, options);
    {
        io::MappedFile mapped(file);
        EXPECT_TRUE(mapped.usedMmap());
    }

    ::setenv("GRAPR_IO_NO_MMAP", "1", 1);
    const CsrGraph viaRead = io::readEdgeListCsr(file, options);
    {
        io::MappedFile heap(file);
        EXPECT_FALSE(heap.usedMmap());
    }
    ::unsetenv("GRAPR_IO_NO_MMAP");
    expectSameCsr(viaRead, viaMmap, "read() fallback");
}

// --- strict vs permissive and error locations ----------------------------

TEST_F(ParallelIoTest, StrictReportsExactLineAndOffset) {
    const std::string file = write("bad.tsv", "0 1\nx y\n2 3\n");
    try {
        io::readEdgeListCsr(file);
        FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), file);
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.byteOffset(), 4u);
    }
}

TEST_F(ParallelIoTest, FirstErrorWinsRegardlessOfThreads) {
    std::string content;
    for (int i = 0; i < 200; ++i) content += "0 1\n";
    content += "broken!\n";
    for (int i = 0; i < 200; ++i) content += "oops\n";
    const std::string file = write("manybad.tsv", content);
    for (const int threads : kThreadCounts) {
        io::ParseOptions options;
        options.threads = threads;
        try {
            io::readEdgeListCsr(file, options);
            FAIL() << "expected IoError";
        } catch (const io::IoError& e) {
            EXPECT_EQ(e.line(), 201u)
                << "threads=" << threads << ": " << e.what();
        }
    }
}

TEST_F(ParallelIoTest, PermissiveSkipsMalformedLines) {
    const std::string file =
        write("mixed.tsv", "0 1\nnot numbers\n1 2\n3\n2 0\n");
    io::ParseOptions options;
    options.strict = false;
    for (const int threads : kThreadCounts) {
        options.threads = threads;
        const CsrGraph g = io::readEdgeListCsr(file, options);
        EXPECT_EQ(g.numberOfNodes(), 3u);
        EXPECT_EQ(g.numberOfEdges(), 3u);
    }
}

TEST_F(ParallelIoTest, MissingFileThrowsIoErrorWithPath) {
    try {
        io::readEdgeListCsr(path("nope.tsv"));
        FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), path("nope.tsv"));
        EXPECT_EQ(e.line(), 0u);
    }
}

TEST_F(ParallelIoTest, DeclaredHeaderBoundsIds) {
    const std::string file =
        write("over.tsv", "# grapr edge list: n=3 m=1\n0 7\n");
    EXPECT_THROW(io::readEdgeListCsr(file), io::IoError);
    io::ParseOptions permissive;
    permissive.strict = false;
    const CsrGraph g = io::readEdgeListCsr(file, permissive);
    EXPECT_EQ(g.numberOfNodes(), 3u);
    EXPECT_EQ(g.numberOfEdges(), 0u);
}

TEST_F(ParallelIoTest, EdgeListRejectsNonFiniteWeights) {
    // from_chars accepts "nan" and "inf"; the weight contract does not.
    const std::string content = "0 1 1.5\n0 2 nan\n1 2 -inf\n2 3 2\n";
    const std::string file = write("nonfinite.tsv", content);
    io::ParseOptions strict;
    strict.weighted = true;
    try {
        io::readEdgeListCsr(file, strict);
        FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.path(), file);
        EXPECT_EQ(e.line(), 2u);
        EXPECT_EQ(e.byteOffset(), content.find("nan"));
    }
    io::ParseOptions permissive = strict;
    permissive.strict = false;
    for (const int threads : kThreadCounts) {
        permissive.threads = threads;
        const CsrGraph g = io::readEdgeListCsr(file, permissive);
        EXPECT_EQ(g.numberOfEdges(), 2u) << "threads=" << threads;
        EXPECT_EQ(g.totalEdgeWeight(), 3.5) << "threads=" << threads;
    }
}

// --- every ingestion path, pinned at 1-4 threads -------------------------

/// Read through the mapping and through the heap fallback
/// (GRAPR_IO_NO_MMAP=1), at 1, 2, 3 and 4 threads; `check` gets each
/// combination's options and a label.
template <typename Check>
void forEveryIngestionPath(io::ParseOptions options, Check&& check) {
    for (const bool heap : {false, true}) {
        if (heap) ::setenv("GRAPR_IO_NO_MMAP", "1", 1);
        for (const int threads : {1, 2, 3, 4}) {
            options.threads = threads;
            check(options, std::string(heap ? "heap" : "mmap") +
                               " threads=" + std::to_string(threads));
        }
        if (heap) ::unsetenv("GRAPR_IO_NO_MMAP");
    }
}

TEST_F(ParallelIoTest, RemapNumbersIdsAbove32BitsInFirstAppearanceOrder) {
    const std::string file = write("wide.tsv",
                                   "# raw ids past the 32-bit space\n"
                                   "8589934592 5000000000\n"
                                   "5000000000 7\n"
                                   "7 8589934592\n"
                                   "18446744073709551615 "
                                   "18446744073709551615\n");
    forEveryIngestionPath({}, [&](const io::ParseOptions& options,
                                  const std::string& what) {
        std::vector<std::uint64_t> ids;
        const CsrGraph g = io::readEdgeListCsr(file, options, &ids);
        EXPECT_EQ(ids, (std::vector<std::uint64_t>{
                           8589934592ull, 5000000000ull, 7ull,
                           18446744073709551615ull}))
            << what;
        EXPECT_EQ(g.offsets(), (std::vector<grapr::index>{0, 2, 4, 6, 7})) << what;
        EXPECT_EQ(g.neighborArray(), (std::vector<node>{1, 2, 0, 2, 1, 0, 3}))
            << what;
        EXPECT_EQ(g.numberOfEdges(), 4u) << what;
        EXPECT_EQ(g.numberOfSelfLoops(), 1u) << what;
    });

    // Many lines, so every chunk holds ids the earlier chunks also hold:
    // numbering and rows match one sequential pass over the file.
    Random::setSeed(4242);
    std::string content;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> raw;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t u =
            (std::uint64_t{1} << 32) +
            static_cast<std::uint64_t>(Random::integer(0, 700)) * 1048573;
        const std::uint64_t v =
            (std::uint64_t{5} << 33) +
            static_cast<std::uint64_t>(Random::integer(0, 700)) * 7919;
        raw.emplace_back(u, i % 5 == 0 ? u : v);
        content += std::to_string(raw.back().first) + " " +
                   std::to_string(raw.back().second) + "\n";
    }
    const std::string many = write("wide_many.tsv", content);
    std::vector<std::uint64_t> expectedIds;
    std::unordered_map<std::uint64_t, node> number;
    std::vector<std::vector<node>> rows;
    auto idOf = [&](std::uint64_t id) {
        const auto [it, inserted] =
            number.emplace(id, static_cast<node>(expectedIds.size()));
        if (inserted) {
            expectedIds.push_back(id);
            rows.emplace_back();
        }
        return it->second;
    };
    for (const auto& [ru, rv] : raw) {
        const node u = idOf(ru);
        const node v = idOf(rv);
        rows[u].push_back(v);
        if (u != v) rows[v].push_back(u);
    }
    std::vector<grapr::index> expectedOffsets{0};
    std::vector<node> expectedNeighbors;
    for (const std::vector<node>& row : rows) {
        expectedNeighbors.insert(expectedNeighbors.end(), row.begin(),
                                 row.end());
        expectedOffsets.push_back(expectedNeighbors.size());
    }
    forEveryIngestionPath({}, [&](const io::ParseOptions& options,
                                  const std::string& what) {
        std::vector<std::uint64_t> ids;
        const CsrGraph g = io::readEdgeListCsr(many, options, &ids);
        EXPECT_EQ(ids, expectedIds) << what;
        EXPECT_EQ(g.offsets(), expectedOffsets) << what;
        EXPECT_EQ(g.neighborArray(), expectedNeighbors) << what;
    });
}

TEST_F(ParallelIoTest, DirectIdPast32BitsThrowsInBothModes) {
    const std::string content = "0 1\n1 2\n4294967296 3\n3 0\n";
    const std::string file = write("past32.tsv", content);
    for (const bool strict : {true, false}) {
        io::ParseOptions direct;
        direct.remapIds = false;
        direct.strict = strict;
        forEveryIngestionPath(direct, [&](const io::ParseOptions& options,
                                          const std::string& what) {
            try {
                io::readEdgeListCsr(file, options);
                ADD_FAILURE() << "expected IoError, " << what;
            } catch (const io::IoError& e) {
                EXPECT_EQ(std::string(e.what()),
                          file + ": node id exceeds the 32-bit id space "
                                 "(byte " +
                              std::to_string(content.size()) + ")")
                    << what;
                EXPECT_EQ(e.line(), 0u) << what;
                EXPECT_FALSE(e.recoverable()) << what;
            }
        });
    }

    // Raised after parsing: a malformed line further on still wins in
    // strict mode, and permissive mode skips it, then throws.
    const std::string later = "0 1\n4294967296 2\nbroken\n3 0\n";
    const std::string laterFile = write("past32_later.tsv", later);
    for (const bool strict : {true, false}) {
        io::ParseOptions direct;
        direct.remapIds = false;
        direct.strict = strict;
        forEveryIngestionPath(direct, [&](const io::ParseOptions& options,
                                          const std::string& what) {
            try {
                io::readEdgeListCsr(laterFile, options);
                ADD_FAILURE() << "expected IoError, " << what;
            } catch (const io::IoError& e) {
                if (strict) {
                    EXPECT_EQ(std::string(e.what()),
                              laterFile + ":3: malformed node id (expected "
                                          "unsigned integer) (byte 17)")
                        << what;
                    EXPECT_TRUE(e.recoverable()) << what;
                } else {
                    EXPECT_EQ(e.line(), 0u) << what;
                    EXPECT_EQ(e.byteOffset(), later.size()) << what;
                    EXPECT_FALSE(e.recoverable()) << what;
                }
            }
        });
    }
}

TEST_F(ParallelIoTest, DeclaredCountPast32BitsThrowsInBothModes) {
    const std::string file =
        write("declared_huge.tsv", "# grapr edge list: n=4294967296 m=1\n0 1\n");
    for (const bool strict : {true, false}) {
        io::ParseOptions options;
        options.strict = strict;
        forEveryIngestionPath(options, [&](const io::ParseOptions& o,
                                           const std::string& what) {
            try {
                io::readEdgeListCsr(file, o);
                ADD_FAILURE() << "expected IoError, " << what;
            } catch (const io::IoError& e) {
                EXPECT_EQ(std::string(e.what()),
                          file + ":1: declared node count exceeds the 32-bit "
                                 "id space (byte 0)")
                    << what;
                EXPECT_FALSE(e.recoverable()) << what;
            }
        });
    }
}

TEST_F(ParallelIoTest, WeightedAndDirectedInputPinned) {
    const std::string file = write("weighted_directed.tsv",
                                   "0 1 0.5\n"
                                   "1 0 2.0\n"
                                   "1 2 1.5\n"
                                   "0 1 3.0\n"
                                   "2 2 4.0\n");
    io::ParseOptions weighted;
    weighted.weighted = true;
    // Every entry in file order of its edge.
    forEveryIngestionPath(weighted, [&](const io::ParseOptions& options,
                                        const std::string& what) {
        const CsrGraph g = io::readEdgeListCsr(file, options);
        EXPECT_EQ(g.offsets(), (std::vector<grapr::index>{0, 3, 7, 9})) << what;
        EXPECT_EQ(g.neighborArray(),
                  (std::vector<node>{1, 1, 1, 0, 0, 2, 0, 1, 2}))
            << what;
        EXPECT_EQ(g.weightArray(),
                  (std::vector<edgeweight>{0.5, 2.0, 3.0, 0.5, 2.0, 1.5, 3.0,
                                           1.5, 4.0}))
            << what;
        EXPECT_EQ(g.numberOfEdges(), 5u) << what;
        EXPECT_EQ(g.totalEdgeWeight(), 11.0) << what;
    });
    // Directed: the first instance of each pair keeps its weight.
    io::ParseOptions directed = weighted;
    directed.directedInput = true;
    forEveryIngestionPath(directed, [&](const io::ParseOptions& options,
                                        const std::string& what) {
        const CsrGraph g = io::readEdgeListCsr(file, options);
        EXPECT_EQ(g.offsets(), (std::vector<grapr::index>{0, 1, 3, 5})) << what;
        EXPECT_EQ(g.neighborArray(), (std::vector<node>{1, 0, 2, 1, 2}))
            << what;
        EXPECT_EQ(g.weightArray(),
                  (std::vector<edgeweight>{0.5, 0.5, 1.5, 1.5, 4.0}))
            << what;
        EXPECT_EQ(g.numberOfEdges(), 3u) << what;
        EXPECT_EQ(g.numberOfSelfLoops(), 1u) << what;
        EXPECT_EQ(g.totalEdgeWeight(), 6.0) << what;
    });
}

TEST_F(ParallelIoTest, RecoverableMarksWhatPermissiveModeSkips) {
    auto errorOf = [](const std::string& file, const io::ParseOptions& o,
                      bool metis) {
        try {
            if (metis) {
                io::readMetisCsr(file, o);
            } else {
                io::readEdgeListCsr(file, o);
            }
        } catch (const io::IoError& e) {
            return e;
        }
        return io::IoError("", 0, 0, "no error");
    };
    const io::ParseOptions strict;
    // Skipped by permissive mode: a malformed edge line, a junk METIS
    // token, a METIS edge count that disagrees with its header.
    EXPECT_TRUE(errorOf(write("a.tsv", "0 1\nx y\n"), strict, false)
                    .recoverable());
    EXPECT_TRUE(errorOf(write("a.metis", "2 1\n2 x\n1\n"), strict, true)
                    .recoverable());
    EXPECT_TRUE(errorOf(write("b.metis", "2 2\n2\n1\n"), strict, true)
                    .recoverable());
    // Thrown in both modes: a METIS neighbor out of range.
    const io::IoError range = errorOf(write("c.metis", "2 1\n3\n1\n"),
                                      strict, true);
    EXPECT_EQ(range.line(), 2u);
    EXPECT_FALSE(range.recoverable());
}

// --- METIS ---------------------------------------------------------------

TEST_F(ParallelIoTest, MetisParallelMatchesSequentialAcrossFamilies) {
    for (const Family& family : families()) {
        for (const bool weighted : {false, true}) {
            const Graph g =
                weighted ? withWeights(family.graph) : family.graph;
            const std::string file = path(family.name + ".metis");
            io::writeMetis(g, file);

            io::ParseOptions options;
            options.threads = 1;
            const CsrGraph reference = io::readMetisCsr(file, options);
            EXPECT_TRUE(reference.toGraph().structurallyEquals(g))
                << family.name;
            for (const int threads : kThreadCounts) {
                options.threads = threads;
                expectSameCsr(io::readMetisCsr(file, options), reference,
                              family.name + " metis threads=" +
                                  std::to_string(threads));
            }
        }
    }
}

TEST_F(ParallelIoTest, MetisIsolatedNodesAndCommentsAcrossThreads) {
    const std::string file = write(
        "iso.metis", "% top comment\n6 2\n2\n1\n\n% middle comment\n5\n4\n\n");
    io::ParseOptions options;
    options.threads = 1;
    options.strict = true;
    const CsrGraph reference = io::readMetisCsr(file, options);
    EXPECT_EQ(reference.numberOfNodes(), 6u);
    EXPECT_EQ(reference.numberOfEdges(), 2u);
    EXPECT_EQ(reference.degree(2), 0u);
    for (const int threads : {2, 4, 8}) {
        options.threads = threads;
        expectSameCsr(io::readMetisCsr(file, options), reference,
                      "metis iso threads=" + std::to_string(threads));
    }
}

TEST_F(ParallelIoTest, MetisOutOfRangeNeighborThrowsInBothModes) {
    const std::string file = write("range.metis", "2 1\n2\n9\n");
    io::ParseOptions strict;
    EXPECT_THROW(io::readMetisCsr(file, strict), io::IoError);
    io::ParseOptions permissive;
    permissive.strict = false;
    EXPECT_THROW(io::readMetisCsr(file, permissive), io::IoError);
}

TEST_F(ParallelIoTest, MetisMissingRowsThrows) {
    const std::string file = write("short.metis", "4 1\n2\n1\n");
    EXPECT_THROW(io::readMetisCsr(file), io::IoError);
}

TEST_F(ParallelIoTest, MetisErrorLocationPointsAtBadToken) {
    // Dropping the junk token must not desymmetrise the adjacency, so the
    // permissive parse below can still freeze the graph.
    const std::string file =
        write("badtok.metis", "3 3\n2 3\n1 3 zzz\n1 2\n");
    try {
        io::readMetisCsr(file); // strict default
        FAIL() << "expected IoError";
    } catch (const io::IoError& e) {
        EXPECT_EQ(e.line(), 3u);
    }
    io::ParseOptions permissive;
    permissive.strict = false;
    const CsrGraph g = io::readMetisCsr(file, permissive);
    EXPECT_EQ(g.numberOfNodes(), 3u); // junk token dropped with a warning
}

TEST_F(ParallelIoTest, MetisRejectsNonFiniteWeights) {
    // A METIS weight cannot be skipped: the entry mirroring it in the other
    // endpoint's row would stay. So both modes throw, whether the bad
    // weight is in both rows of edge {1,3} or only in row 1 (one-sided).
    for (const std::string bad : {"nan", "inf"}) {
        for (const bool oneSided : {false, true}) {
            const std::string content = "3 2 1\n2 1.5 3 " + bad +
                                        "\n1 1.5\n1 " +
                                        (oneSided ? "2" : bad) + "\n";
            const std::string file = write("nonfinite.metis", content);
            for (const bool strict : {true, false}) {
                io::ParseOptions options;
                options.strict = strict;
                for (const int threads : kThreadCounts) {
                    options.threads = threads;
                    try {
                        io::readMetisCsr(file, options);
                        ADD_FAILURE() << "expected IoError: " << content;
                    } catch (const io::IoError& e) {
                        EXPECT_EQ(e.path(), file);
                        EXPECT_EQ(e.line(), 2u);
                        EXPECT_EQ(e.byteOffset(), content.find(bad));
                    }
                }
            }
        }
    }
}

// --- buffer-level API ----------------------------------------------------

TEST_F(ParallelIoTest, BufferParseMatchesFileParse) {
    Random::setSeed(92);
    const Graph g = ErdosRenyiGenerator(120, 0.05).generate();
    const std::string file = path("buf.tsv");
    io::writeEdgeList(g, file);
    std::ifstream in(file, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    io::ParseOptions options;
    options.threads = 4;
    expectSameCsr(
        io::parseEdgeListCsr(bytes.data(), bytes.size(), "buf", options),
        io::readEdgeListCsr(file, options), "buffer vs file");
}
