/**
 * @file
 * Unit and property tests for the compressed matrix formats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "sparse/matrix.hpp"

using capstan::Index;
using capstan::Value;
using capstan::sparse::CooMatrix;
using capstan::sparse::CsrMatrix;
using capstan::sparse::Triplet;

namespace {

std::vector<Triplet>
randomTriplets(std::mt19937 &rng, Index rows, Index cols, int n)
{
    std::uniform_int_distribution<Index> rd(0, rows - 1);
    std::uniform_int_distribution<Index> cd(0, cols - 1);
    std::uniform_real_distribution<float> vd(-1.0f, 1.0f);
    std::vector<Triplet> out;
    out.reserve(n);
    for (int i = 0; i < n; ++i)
        out.push_back({rd(rng), cd(rng), vd(rng)});
    return out;
}

} // namespace

TEST(CooMatrix, FromTripletsSortsAndSumsDuplicates)
{
    auto coo = CooMatrix::fromTriplets(
        3, 3, {{2, 1, 1.0f}, {0, 0, 2.0f}, {2, 1, 3.0f}, {1, 2, 5.0f}});
    ASSERT_EQ(coo.nnz(), 3);
    EXPECT_EQ(coo.entries()[0], (Triplet{0, 0, 2.0f}));
    EXPECT_EQ(coo.entries()[1], (Triplet{1, 2, 5.0f}));
    EXPECT_EQ(coo.entries()[2], (Triplet{2, 1, 4.0f}));
}

TEST(CooMatrix, NearlySortedInputStillSortsAndSums)
{
    // Strictly increasing (row, col) is kept as it is; row-major input
    // with a repeated coordinate, or with columns out of order inside a
    // row, still takes the sort and the merge.
    auto kept = CooMatrix::fromTriplets(
        3, 3, {{0, 1, 1.0f}, {0, 2, 2.0f}, {2, 0, 3.0f}});
    EXPECT_EQ(kept.entries(),
              (std::vector<Triplet>{
                  {0, 1, 1.0f}, {0, 2, 2.0f}, {2, 0, 3.0f}}));
    auto repeated = CooMatrix::fromTriplets(
        3, 3, {{0, 1, 1.0f}, {1, 2, 5.0f}, {1, 2, 3.0f}, {2, 0, 1.0f}});
    EXPECT_EQ(repeated.entries(),
              (std::vector<Triplet>{
                  {0, 1, 1.0f}, {1, 2, 8.0f}, {2, 0, 1.0f}}));
    auto swapped = CooMatrix::fromTriplets(
        3, 3, {{0, 2, 1.0f}, {0, 1, 2.0f}, {1, 0, 3.0f}});
    EXPECT_EQ(swapped.entries(),
              (std::vector<Triplet>{
                  {0, 1, 2.0f}, {0, 2, 1.0f}, {1, 0, 3.0f}}));
}

TEST(CooMatrix, SumsDuplicatesInInputOrder)
{
    // In float, 1e8 + 1 rounds back to 1e8, so these three values sum
    // to 0 or 1 depending on the order they are added in. They sit
    // among 40 other entries in descending order, so the sort has work
    // to do around them.
    const std::vector<std::vector<float>> orders = {
        {1e8f, 1.0f, -1e8f}, // (1e8 + 1) - 1e8 = 0
        {1e8f, -1e8f, 1.0f}, // (1e8 - 1e8) + 1 = 1
        {1.0f, 1e8f, -1e8f}, // (1 + 1e8) - 1e8 = 0
        {-1e8f, 1e8f, 1.0f}, // (-1e8 + 1e8) + 1 = 1
    };
    for (const auto &vals : orders) {
        std::vector<Triplet> trip;
        for (Index i = 39; i >= 0; --i)
            trip.push_back({i, 0, 1.0f});
        // Inserted back to front, so they land in input order.
        trip.insert(trip.begin() + 31, {20, 5, vals[2]});
        trip.insert(trip.begin() + 18, {20, 5, vals[1]});
        trip.insert(trip.begin() + 5, {20, 5, vals[0]});
        auto coo = CooMatrix::fromTriplets(40, 6, trip);
        ASSERT_EQ(coo.nnz(), 41);
        EXPECT_EQ(coo.entries()[21],
                  (Triplet{20, 5, (vals[0] + vals[1]) + vals[2]}));
    }
}

/**
 * Property: fromTriplets equals std::stable_sort by (row, col)
 * followed by a left-to-right sum of each run of one coordinate, bit
 * for bit, on seeded duplicate-heavy triplets of mixed magnitudes.
 */
TEST(CooMatrix, MatchesStableSortAndMerge)
{
    std::mt19937 rng(61);
    auto bits = [](const std::vector<Triplet> &v) {
        std::vector<std::uint32_t> out;
        for (const Triplet &t : v) {
            out.push_back(static_cast<std::uint32_t>(t.row));
            out.push_back(static_cast<std::uint32_t>(t.col));
            out.push_back(std::bit_cast<std::uint32_t>(t.value));
        }
        return out;
    };
    for (int trial = 0; trial < 50; ++trial) {
        Index rows = 1 + static_cast<Index>(rng() % 20);
        Index cols = 1 + static_cast<Index>(rng() % 20);
        auto trip = randomTriplets(rng, rows, cols,
                                   static_cast<int>(rng() % 400));
        for (Triplet &t : trip)
            t.value *= (rng() % 3 == 0) ? 1e7f : 1.0f;
        std::vector<Triplet> want = trip;
        std::stable_sort(want.begin(), want.end(),
                         [](const Triplet &a, const Triplet &b) {
                             return a.row != b.row ? a.row < b.row
                                                   : a.col < b.col;
                         });
        std::size_t out = 0;
        for (std::size_t i = 0; i < want.size(); ++i) {
            if (out > 0 && want[out - 1].row == want[i].row &&
                want[out - 1].col == want[i].col)
                want[out - 1].value += want[i].value;
            else
                want[out++] = want[i];
        }
        want.resize(out);
        auto coo = CooMatrix::fromTriplets(rows, cols, trip);
        ASSERT_EQ(bits(coo.entries()), bits(want)) << "trial " << trial;
    }
}

TEST(CooMatrix, RejectsOutOfRangeTriplets)
{
    // Sorted and unsorted inputs alike, every bound.
    const std::vector<std::vector<Triplet>> bad = {
        {{2, 0, 1.0f}},
        {{0, 2, 1.0f}},
        {{-1, 0, 1.0f}},
        {{0, -1, 1.0f}},
        {{0, 0, 1.0f}, {1, 5, 1.0f}},
        {{1, 1, 1.0f}, {0, 0, 1.0f}, {7, 0, 1.0f}},
    };
    for (const auto &trip : bad) {
        EXPECT_THROW(CooMatrix::fromTriplets(2, 2, trip),
                     std::out_of_range);
        EXPECT_THROW(CsrMatrix::fromTriplets(2, 2, trip),
                     std::out_of_range);
    }
}

TEST(CsrMatrix, BuildsRowPointers)
{
    auto csr = CsrMatrix::fromTriplets(
        4, 5, {{0, 1, 1.0f}, {0, 4, 2.0f}, {2, 0, 3.0f}, {3, 3, 4.0f}});
    EXPECT_EQ(csr.rows(), 4);
    EXPECT_EQ(csr.cols(), 5);
    EXPECT_EQ(csr.nnz(), 4);
    EXPECT_EQ(csr.rowPtr(), (std::vector<Index>{0, 2, 2, 3, 4}));
    EXPECT_EQ(csr.rowLength(0), 2);
    EXPECT_EQ(csr.rowLength(1), 0);
    auto r0 = csr.rowIndices(0);
    EXPECT_EQ(r0[0], 1);
    EXPECT_EQ(r0[1], 4);
}

TEST(CsrMatrix, AtReturnsStoredOrZero)
{
    auto csr = CsrMatrix::fromTriplets(2, 2, {{0, 1, 7.0f}});
    EXPECT_FLOAT_EQ(csr.at(0, 1), 7.0f);
    EXPECT_FLOAT_EQ(csr.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(csr.at(1, 1), 0.0f);
}

TEST(CsrMatrix, TransposeTwiceIsIdentity)
{
    std::mt19937 rng(3);
    auto csr = CsrMatrix::fromTriplets(20, 30, randomTriplets(rng, 20, 30, 97));
    auto back = csr.transpose().transpose();
    EXPECT_EQ(back.rowPtr(), csr.rowPtr());
    EXPECT_EQ(back.colIdx(), csr.colIdx());
    EXPECT_EQ(back.values(), csr.values());
}

TEST(CsrMatrix, FromCooRejectsOutOfRangeTriplets)
{
    // Hard validation even in release builds (a silent overflow here
    // once corrupted the heap; see matrix.cpp).
    EXPECT_THROW(CsrMatrix::fromTriplets(2, 2, {{5, 0, 1.0f}}),
                 std::out_of_range);
    EXPECT_THROW(CsrMatrix::fromTriplets(2, 2, {{0, -1, 1.0f}}),
                 std::out_of_range);
}

/** Property: CSR -> COO -> CSR round-trips on random matrices. */
TEST(MatrixProperty, CsrCooRoundTrip)
{
    std::mt19937 rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        Index rows = 1 + static_cast<Index>(rng() % 50);
        Index cols = 1 + static_cast<Index>(rng() % 50);
        auto csr = CsrMatrix::fromTriplets(
            rows, cols, randomTriplets(rng, rows, cols, 200));
        auto back = CsrMatrix::fromCoo(csr.toCoo());
        ASSERT_EQ(back.rowPtr(), csr.rowPtr());
        ASSERT_EQ(back.colIdx(), csr.colIdx());
        ASSERT_EQ(back.values(), csr.values());
    }
}

/**
 * Property: the transpose (the CSC a column-major consumer reads) swaps
 * every coordinate of a random rectangular matrix.
 */
TEST(MatrixProperty, TransposeSwapsCoordinates)
{
    std::mt19937 rng(23);
    auto csr = CsrMatrix::fromTriplets(30, 50,
                                       randomTriplets(rng, 30, 50, 300));
    auto t = csr.transpose();
    ASSERT_EQ(t.rows(), 50);
    ASSERT_EQ(t.cols(), 30);
    ASSERT_EQ(t.nnz(), csr.nnz());
    for (Index r = 0; r < 30; ++r) {
        for (Index c = 0; c < 50; ++c)
            ASSERT_FLOAT_EQ(t.at(c, r), csr.at(r, c));
    }
}

/** Property: per-row nnz sums to total nnz. */
TEST(MatrixProperty, RowLengthsSumToNnz)
{
    std::mt19937 rng(31);
    auto csr = CsrMatrix::fromTriplets(64, 64,
                                       randomTriplets(rng, 64, 64, 500));
    Index total = 0;
    for (Index r = 0; r < csr.rows(); ++r)
        total += csr.rowLength(r);
    EXPECT_EQ(total, csr.nnz());
}
