/**
 * @file
 * Tests for pointer <-> bit-vector format conversion.
 */

#include <gtest/gtest.h>

#include <vector>

#include "sparse/format_convert.hpp"

using capstan::Index;
using namespace capstan::sparse;

TEST(FormatConvert, PointersRoundTrip)
{
    std::vector<Index> ptrs = {0, 5, 63, 64, 200};
    BitVector bv = pointersToBitVector(ptrs, 256);
    EXPECT_EQ(bv.count(), 5);
    EXPECT_EQ(bv.toPositions(), ptrs);
}

TEST(FormatConvert, OutOfRangePointersDropped)
{
    std::vector<Index> ptrs = {-1, 3, 300};
    BitVector bv = pointersToBitVector(ptrs, 256);
    EXPECT_EQ(bv.count(), 1);
    EXPECT_TRUE(bv.test(3));
}

TEST(FormatConvert, BitTreeConversionMatchesBitVector)
{
    std::vector<Index> ptrs = {1, 300, 301, 5000};
    BitTree tree = pointersToBitTree(ptrs, 8192, 256);
    BitVector bv = pointersToBitVector(ptrs, 8192);
    BitVector back = tree.toBitVector();
    EXPECT_EQ(back.size(), bv.size());
    EXPECT_EQ(back.toPositions(), bv.toPositions());
}
