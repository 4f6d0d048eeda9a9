// Unit tests for Partition and UnionFind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <random>
#include <utility>
#include <vector>

#include "structures/partition.hpp"
#include "structures/union_find.hpp"

using namespace grapr;

TEST(Partition, SingletonsAndAllToOne) {
    Partition p(5);
    p.allToSingletons();
    EXPECT_EQ(p.upperBound(), 5u);
    EXPECT_EQ(p.numberOfSubsets(), 5u);
    for (node v = 0; v < 5; ++v) EXPECT_EQ(p[v], v);
    p.allToOne();
    EXPECT_EQ(p.numberOfSubsets(), 1u);
    EXPECT_EQ(p.upperBound(), 1u);
}

TEST(Partition, UnassignedByDefault) {
    Partition p(3);
    EXPECT_EQ(p[0], none);
    EXPECT_FALSE(p.isComplete());
    p.set(0, 1);
    p.set(1, 1);
    p.set(2, 0);
    EXPECT_TRUE(p.isComplete());
}

TEST(Partition, MergeSubsets) {
    Partition p(4);
    p.allToSingletons();
    const node survivor = p.mergeSubsets(1, 3);
    EXPECT_EQ(survivor, 1u);
    EXPECT_TRUE(p.inSameSubset(1, 3));
    EXPECT_FALSE(p.inSameSubset(0, 1));
    EXPECT_EQ(p.numberOfSubsets(), 3u);
    EXPECT_EQ(p.mergeSubsets(2, 2), 2u); // self-merge is a no-op
}

namespace {

// Independent reference for Partition::compact: sort and unique the used
// ids, then give each label the position of its id in that list. Returns
// the relabelled array and the number of distinct ids.
std::pair<std::vector<node>, count> referenceCompact(
    const std::vector<node>& labels) {
    std::vector<node> ids;
    for (const node c : labels) {
        if (c != none) ids.push_back(c);
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<node> out(labels.size(), none);
    for (std::size_t v = 0; v < labels.size(); ++v) {
        if (labels[v] == none) continue;
        out[v] = static_cast<node>(
            std::lower_bound(ids.begin(), ids.end(), labels[v]) -
            ids.begin());
    }
    return {std::move(out), ids.size()};
}

void expectCompactMatchesReference(Partition p) {
    const auto [expected, k] = referenceCompact(p.vector());
    EXPECT_EQ(p.compact(), k);
    EXPECT_EQ(p.vector(), expected);
    EXPECT_EQ(p.upperBound(), k);
}

} // namespace

TEST(Partition, CompactAscendingOrder) {
    Partition p(4);
    p.set(0, 100);
    p.set(1, 7);
    p.set(2, 100);
    p.set(3, 42);
    p.setUpperBound(101);
    EXPECT_EQ(p.compact(), 3u);
    EXPECT_EQ(p.upperBound(), 3u);
    EXPECT_EQ(p[1], 0u);  // old 7 -> 0
    EXPECT_EQ(p[3], 1u);  // old 42 -> 1
    EXPECT_EQ(p[0], 2u);  // old 100 -> 2
    EXPECT_EQ(p[2], 2u);

    // Randomized partitions against the sort/unique reference: `none`
    // entries, dense and sparse id ranges, and ids at and above
    // upperBound() (set() allows them until compact()).
    std::mt19937_64 rng(1501);
    const std::uint64_t idRanges[] = {1, 3, 64, 1000, std::uint64_t{1} << 16};
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE(trial);
        const count n = rng() % 200;
        const std::uint64_t idRange = idRanges[rng() % std::size(idRanges)];
        const std::uint64_t nonePercent = rng() % 101;
        Partition q(n);
        for (node v = 0; v < n; ++v) {
            if (rng() % 100 >= nonePercent) {
                q.set(v, static_cast<node>(rng() % idRange));
            }
        }
        q.setUpperBound(static_cast<node>(rng() % (idRange + 1)));
        expectCompactMatchesReference(q);
    }

    // Ids exactly at and far above upperBound().
    Partition above(5);
    above.set(0, 7);
    above.set(1, 7);
    above.set(2, 3);
    above.set(4, 900000);
    above.setUpperBound(7);
    expectCompactMatchesReference(above);

    // All-none and empty partitions compact to k = 0.
    Partition allNone(6);
    allNone.setUpperBound(4);
    expectCompactMatchesReference(allNone);
    expectCompactMatchesReference(Partition(0));
    expectCompactMatchesReference(Partition());
}

TEST(Partition, CompactPreservesNone) {
    Partition p(3);
    p.set(0, 9);
    p.set(2, 9);
    p.setUpperBound(10);
    p.compact();
    EXPECT_EQ(p[1], none);
    EXPECT_EQ(p.upperBound(), 1u);
}

TEST(Partition, SubsetSizesAndSubsets) {
    Partition p(5);
    p.set(0, 1);
    p.set(1, 0);
    p.set(2, 1);
    p.set(3, 1);
    p.set(4, 0);
    p.setUpperBound(2);
    const auto sizes = p.subsetSizes();
    ASSERT_EQ(sizes.size(), 2u);
    EXPECT_EQ(sizes[0], 2u);
    EXPECT_EQ(sizes[1], 3u);
    const auto subsets = p.subsets();
    EXPECT_EQ(subsets.at(1), (std::vector<node>{0, 2, 3}));
}

TEST(Partition, SubsetSizesRejectsIdOverflow) {
    Partition p(2);
    p.set(0, 5);
    p.setUpperBound(2);
    EXPECT_THROW(p.subsetSizes(), std::runtime_error);
}

TEST(Partition, EqualityOperator) {
    Partition a(3), b(3);
    a.allToSingletons();
    b.allToSingletons();
    EXPECT_EQ(a, b);
    b.set(2, 0);
    EXPECT_NE(a, b);
}

TEST(UnionFind, BasicUnions) {
    UnionFind uf(6);
    EXPECT_EQ(uf.numberOfSets(), 6u);
    uf.unite(0, 1);
    uf.unite(2, 3);
    EXPECT_EQ(uf.numberOfSets(), 4u);
    EXPECT_TRUE(uf.connected(0, 1));
    EXPECT_FALSE(uf.connected(1, 2));
    uf.unite(1, 3);
    EXPECT_TRUE(uf.connected(0, 2));
    EXPECT_EQ(uf.numberOfSets(), 3u);
}

TEST(UnionFind, UniteIdempotent) {
    UnionFind uf(3);
    uf.unite(0, 1);
    const count sets = uf.numberOfSets();
    uf.unite(1, 0);
    EXPECT_EQ(uf.numberOfSets(), sets);
}

TEST(UnionFind, ToVectorGivesRepresentatives) {
    UnionFind uf(5);
    uf.unite(0, 4);
    uf.unite(1, 2);
    const auto reps = uf.toVector();
    EXPECT_EQ(reps[0], reps[4]);
    EXPECT_EQ(reps[1], reps[2]);
    EXPECT_NE(reps[0], reps[1]);
    EXPECT_EQ(reps[3], 3u);
}

TEST(UnionFind, LongChainPathCompression) {
    const count n = 10000;
    UnionFind uf(n);
    for (node v = 0; v + 1 < n; ++v) uf.unite(v, v + 1);
    EXPECT_EQ(uf.numberOfSets(), 1u);
    EXPECT_TRUE(uf.connected(0, n - 1));
}
