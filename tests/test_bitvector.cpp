/**
 * @file
 * Unit and property tests for sparse::BitVector. Vectors with given set
 * bits come from the program's pointer-list conversion
 * (sparse::pointersToBitVector).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <random>
#include <set>
#include <vector>

#include "sparse/bitvector.hpp"
#include "sparse/format_convert.hpp"

using capstan::Index;
using capstan::kNoIndex;
using capstan::sparse::BitVector;

namespace {

/** A @p size-bit vector with @p positions set. */
BitVector
bits(Index size, const std::vector<Index> &positions)
{
    return capstan::sparse::pointersToBitVector(positions, size);
}

} // namespace

TEST(BitVector, EmptyHasNoBits)
{
    BitVector bv(0);
    EXPECT_EQ(bv.size(), 0);
    EXPECT_EQ(bv.count(), 0);
    EXPECT_EQ(bv.nextSet(0), kNoIndex);
}

TEST(BitVector, SetAndTest)
{
    BitVector bv(130);
    EXPECT_FALSE(bv.test(0));
    bv.set(0);
    bv.set(63);
    bv.set(64);
    bv.set(129);
    EXPECT_TRUE(bv.test(0));
    EXPECT_TRUE(bv.test(63));
    EXPECT_TRUE(bv.test(64));
    EXPECT_TRUE(bv.test(129));
    EXPECT_FALSE(bv.test(1));
    EXPECT_EQ(bv.count(), 4);
    EXPECT_EQ(bv.toPositions(), (std::vector<Index>{0, 63, 64, 129}));
}

TEST(BitVector, RankCountsStrictPrefix)
{
    BitVector bv = bits(200, {0, 10, 63, 64, 65, 199});
    EXPECT_EQ(bv.rank(0), 0);
    EXPECT_EQ(bv.rank(1), 1);
    EXPECT_EQ(bv.rank(10), 1);
    EXPECT_EQ(bv.rank(11), 2);
    EXPECT_EQ(bv.rank(64), 3);
    EXPECT_EQ(bv.rank(66), 5);
    EXPECT_EQ(bv.rank(200), 6);
}

TEST(BitVector, NextSetWalksAllBits)
{
    BitVector bv = bits(256, {0, 1, 64, 255});
    EXPECT_EQ(bv.nextSet(0), 0);
    EXPECT_EQ(bv.nextSet(1), 1);
    EXPECT_EQ(bv.nextSet(2), 64);
    EXPECT_EQ(bv.nextSet(65), 255);
    EXPECT_EQ(bv.nextSet(256), kNoIndex);
}

TEST(BitVector, LogicalOps)
{
    BitVector a = bits(128, {1, 2, 3, 100});
    BitVector b = bits(128, {2, 3, 4, 101});
    EXPECT_EQ((a & b).toPositions(), (std::vector<Index>{2, 3}));
    EXPECT_EQ((a | b).toPositions(),
              (std::vector<Index>{1, 2, 3, 4, 100, 101}));
}

TEST(BitVector, Window64ReadsAcrossWordBoundary)
{
    BitVector bv = bits(200, {60, 61, 70});
    std::uint64_t w = bv.window64(60);
    EXPECT_TRUE(w & 1);         // bit 60 -> window bit 0
    EXPECT_TRUE(w & 2);         // bit 61 -> window bit 1
    EXPECT_TRUE(w & (1ULL << 10)); // bit 70 -> window bit 10
    EXPECT_EQ(bv.window64(500), 0u);
}

TEST(BitVector, StorageBytesRoundsUpToWords)
{
    EXPECT_EQ(BitVector(1).storageBytes(), 8);
    EXPECT_EQ(BitVector(64).storageBytes(), 8);
    EXPECT_EQ(BitVector(65).storageBytes(), 16);
}

/**
 * Property: count, rank and nextSet agree with a std::set model on
 * random data.
 */
TEST(BitVectorProperty, MatchesSetModelOnRandomData)
{
    std::mt19937 rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        Index size = 1 + static_cast<Index>(rng() % 1000);
        std::uniform_int_distribution<Index> pos(0, size - 1);
        BitVector bv(size);
        std::set<Index> model;
        for (int i = 0; i < 100; ++i) {
            Index p = pos(rng);
            bv.set(p);
            model.insert(p);
        }
        ASSERT_EQ(bv.count(), static_cast<Index>(model.size()));
        std::vector<Index> expect(model.begin(), model.end());
        ASSERT_EQ(bv.toPositions(), expect);
        // The k-th set bit has rank k, and nextSet() past it finds the
        // (k+1)-th.
        for (std::size_t k = 0; k < expect.size(); ++k) {
            ASSERT_EQ(bv.rank(expect[k]), static_cast<Index>(k));
            ASSERT_EQ(bv.nextSet(expect[k] + 1),
                      k + 1 < expect.size() ? expect[k + 1] : kNoIndex);
        }
    }
}

/**
 * Property: countRange(b, e) == rank(e) - rank(b), and both equal a
 * std::set model's count of [b, e), on seeded random vectors. The
 * ranges start and end on and off 64-bit word edges, include b == e,
 * and reach e == size().
 */
TEST(BitVectorProperty, CountRangeIsARankDifference)
{
    std::mt19937 rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        Index size = 1 + static_cast<Index>(rng() % 700);
        BitVector bv(size);
        std::set<Index> model;
        for (Index i = 0; i < size; ++i) {
            if (rng() % 3 == 0) {
                bv.set(i);
                model.insert(i);
            }
        }
        // Every word edge, its neighbours, the ends, and random points.
        std::vector<Index> points = {0, size};
        for (Index w = 0; w <= size; w += 64) {
            for (Index p : {w - 1, w, w + 1}) {
                if (p >= 0 && p <= size)
                    points.push_back(p);
            }
        }
        for (int i = 0; i < 8; ++i)
            points.push_back(static_cast<Index>(rng() % (size + 1)));
        for (Index b : points) {
            for (Index e : points) {
                if (b > e)
                    continue;
                auto in_model = static_cast<Index>(std::distance(
                    model.lower_bound(b), model.lower_bound(e)));
                ASSERT_EQ(bv.countRange(b, e), bv.rank(e) - bv.rank(b))
                    << "size " << size << " [" << b << ", " << e << ")";
                ASSERT_EQ(bv.countRange(b, e), in_model)
                    << "size " << size << " [" << b << ", " << e << ")";
            }
        }
    }
}

/** Property: De Morgan-ish identity count(a|b) + count(a&b) == |a| + |b|. */
TEST(BitVectorProperty, InclusionExclusion)
{
    std::mt19937 rng(7);
    for (int trial = 0; trial < 20; ++trial) {
        Index size = 64 + static_cast<Index>(rng() % 512);
        BitVector a(size);
        BitVector b(size);
        for (Index i = 0; i < size; ++i) {
            if (rng() % 3 == 0)
                a.set(i);
            if (rng() % 3 == 0)
                b.set(i);
        }
        EXPECT_EQ((a | b).count() + (a & b).count(), a.count() + b.count());
    }
}
