/**
 * @file
 * Unit and property tests for the two-level bit-tree format.
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "sparse/bittree.hpp"
#include "sparse/format_convert.hpp"

using capstan::Index;
using capstan::kNoIndex;
using capstan::sparse::AlignedLeafPair;
using capstan::sparse::alignUnion;
using capstan::sparse::BitTree;
using capstan::sparse::BitVector;
using capstan::sparse::forEachUnionLeaf;

TEST(BitTree, EmptyTreeHasNoLeaves)
{
    BitTree tree(262144, 512);
    EXPECT_EQ(tree.count(), 0);
    EXPECT_EQ(tree.leafCount(), 0);
    // The paper's headline: 262,144 zeros encoded in 512 bits (64 bytes).
    EXPECT_EQ(tree.storageBytes(), 64);
}

TEST(BitTree, SetMaterializesOnlyTouchedLeaves)
{
    BitTree tree(1024, 256);
    tree.set(0);
    tree.set(255);
    tree.set(900);
    EXPECT_EQ(tree.count(), 3);
    EXPECT_EQ(tree.leafCount(), 2); // leaves 0 and 3
    EXPECT_TRUE(tree.test(0));
    EXPECT_TRUE(tree.test(255));
    EXPECT_TRUE(tree.test(900));
    EXPECT_FALSE(tree.test(256));
    EXPECT_TRUE(tree.topLevel().test(0));
    EXPECT_FALSE(tree.topLevel().test(1));
    EXPECT_FALSE(tree.topLevel().test(2));
    EXPECT_TRUE(tree.topLevel().test(3));
}

TEST(BitTree, OutOfOrderInsertionKeepsLeavesSorted)
{
    BitTree tree(1024, 256);
    tree.set(900); // leaf 3 first
    tree.set(10);  // leaf 0 second: must insert *before* leaf 3
    EXPECT_EQ(tree.leafCount(), 2);
    EXPECT_TRUE(tree.leaf(0).test(10));
    EXPECT_TRUE(tree.leaf(1).test(900 - 768));
}

TEST(BitTree, RoundTripsThroughBitVector)
{
    const std::vector<Index> positions = {0, 1, 511, 512, 1000, 2047};
    BitVector bv = capstan::sparse::pointersToBitVector(positions, 2048);
    BitTree tree = BitTree::fromBitVector(bv, 256);
    BitVector back = tree.toBitVector();
    EXPECT_EQ(back.size(), 2048);
    EXPECT_EQ(back.toPositions(), positions);
    EXPECT_EQ(tree.toPositions(), positions);
}

TEST(BitTree, StorageShrinksForClusteredData)
{
    // Clustered non-zeros touch few leaves; the flat vector pays for all.
    Index space = 1 << 18;
    std::vector<Index> cluster;
    for (Index i = 0; i < 200; ++i)
        cluster.push_back(1000 + i);
    BitTree tree = BitTree::fromPositions(space, cluster, 256);
    BitVector flat = capstan::sparse::pointersToBitVector(cluster, space);
    EXPECT_LT(tree.storageBytes(), flat.storageBytes() / 100);
}

TEST(BitTreeAlign, UnionInsertsZeroSides)
{
    BitTree a = BitTree::fromPositions(1024, {10, 900}, 256);
    BitTree b = BitTree::fromPositions(1024, {310}, 256);
    auto pairs = alignUnion(a, b);
    ASSERT_EQ(pairs.size(), 3u);
    EXPECT_EQ(pairs[0].top_slot, 0);
    EXPECT_EQ(pairs[0].leaf_a, 0);
    EXPECT_EQ(pairs[0].leaf_b, kNoIndex); // zero-balanced side
    EXPECT_EQ(pairs[1].top_slot, 1);
    EXPECT_EQ(pairs[1].leaf_a, kNoIndex);
    EXPECT_EQ(pairs[1].leaf_b, 0);
    EXPECT_EQ(pairs[2].top_slot, 3);
    EXPECT_EQ(pairs[2].leaf_a, 1);
    EXPECT_EQ(pairs[2].leaf_b, kNoIndex);
}

/** Property: tree semantics equal a std::set model under random inserts. */
TEST(BitTreeProperty, MatchesSetModel)
{
    std::mt19937 rng(11);
    for (int trial = 0; trial < 10; ++trial) {
        Index leaf_bits = (trial % 2 == 0) ? 256 : 512;
        Index space = leaf_bits * (2 + static_cast<Index>(rng() % 30));
        std::uniform_int_distribution<Index> pos(0, space - 1);
        BitTree tree(space, leaf_bits);
        std::set<Index> model;
        for (int i = 0; i < 300; ++i) {
            Index p = pos(rng);
            tree.set(p);
            model.insert(p);
        }
        ASSERT_EQ(tree.count(), static_cast<Index>(model.size()));
        std::vector<Index> expect(model.begin(), model.end());
        ASSERT_EQ(tree.toPositions(), expect);
        for (Index p : expect)
            ASSERT_TRUE(tree.test(p));
    }
}

/** Property: union alignment covers exactly the right leaves. */
TEST(BitTreeProperty, AlignmentMatchesTopLevelSets)
{
    std::mt19937 rng(13);
    for (int trial = 0; trial < 10; ++trial) {
        Index space = 256 * 64;
        std::uniform_int_distribution<Index> pos(0, space - 1);
        BitTree a(space, 256);
        BitTree b(space, 256);
        for (int i = 0; i < 100; ++i) {
            a.set(pos(rng));
            b.set(pos(rng));
        }
        auto uni = alignUnion(a, b);
        EXPECT_EQ(static_cast<Index>(uni.size()),
                  (a.topLevel() | b.topLevel()).count());
        for (const AlignedLeafPair &p : uni) {
            EXPECT_TRUE(p.leaf_a != kNoIndex || p.leaf_b != kNoIndex);
            EXPECT_EQ(p.leaf_a != kNoIndex, a.topLevel().test(p.top_slot));
            EXPECT_EQ(p.leaf_b != kNoIndex, b.topLevel().test(p.top_slot));
        }
    }
}

namespace {

/** One visited leaf of a union scan: (top-level slot, population). */
using LeafPop = std::pair<Index, Index>;

/** forEachUnionLeaf's visits, in order. */
std::vector<LeafPop>
unionWalk(const std::vector<Index> &a, const std::vector<Index> &b)
{
    std::vector<LeafPop> out;
    forEachUnionLeaf(a, b, 256, [&](Index slot, Index pop) {
        out.emplace_back(slot, pop);
    });
    return out;
}

/** The same scan over built bit-trees: alignUnion, then leaf unions. */
std::vector<LeafPop>
treeUnionScan(const std::vector<Index> &a, const std::vector<Index> &b,
              Index cols)
{
    BitTree ta = capstan::sparse::pointersToBitTree(a, cols, 256);
    BitTree tb = capstan::sparse::pointersToBitTree(b, cols, 256);
    std::vector<LeafPop> out;
    for (const AlignedLeafPair &p : alignUnion(ta, tb)) {
        BitVector la = p.leaf_a != kNoIndex ? ta.leaf(p.leaf_a)
                                            : BitVector(256);
        BitVector lb = p.leaf_b != kNoIndex ? tb.leaf(p.leaf_b)
                                            : BitVector(256);
        out.emplace_back(p.top_slot, (la | lb).count());
    }
    return out;
}

} // namespace

/**
 * The pointer-list union walk M+M runs visits the same leaves with the
 * same populations as the bit-tree scan it stands for: leaf edges
 * (0, 255, 256, 511, 512, cols - 1) with a last leaf that is only
 * partly inside the space, one-sided and empty rows, and seeded rows.
 */
TEST(BitTreeAlign, UnionWalkMatchesTreeUnionScan)
{
    const Index cols = 1000; // Four leaves, the last one partial.
    const std::vector<std::vector<Index>> rows = {
        {},
        {0},
        {0, 255, 256, 511, 512, cols - 1},
        {255, 256},
        {511, 512, 998},
        {cols - 1},
        {1, 2, 3, 300, 700, 768, 999},
    };
    for (const auto &a : rows) {
        for (const auto &b : rows) {
            EXPECT_EQ(unionWalk(a, b), treeUnionScan(a, b, cols));
        }
    }

    std::mt19937 rng(29);
    for (int trial = 0; trial < 200; ++trial) {
        Index space = 1 + static_cast<Index>(rng() % 3000);
        std::uniform_int_distribution<Index> pos(0, space - 1);
        std::set<Index> sa;
        for (int i = static_cast<int>(rng() % 40); i > 0; --i)
            sa.insert(pos(rng));
        std::vector<Index> a(sa.begin(), sa.end());
        // Every fifth b is empty; about half of b's picks are in a.
        std::set<Index> sb;
        for (int i = trial % 5 == 0 ? 0 : static_cast<int>(rng() % 40);
             i > 0; --i)
            sb.insert(rng() % 2 && !a.empty() ? a[rng() % a.size()]
                                               : pos(rng));
        std::vector<Index> b(sb.begin(), sb.end());
        ASSERT_EQ(unionWalk(a, b), treeUnionScan(a, b, space))
            << "trial " << trial;
    }
}
