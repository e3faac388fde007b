/**
 * @file
 * The delta + group-varint codec (sparse/compressed.hpp), the
 * MatrixStore that holds every dataset, and the MatrixView read seam,
 * which must serve a CSR matrix and its compressed form identically.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"
#include "workloads/datasets.hpp"

namespace {

using namespace capstan;
using namespace capstan::driver;
using sparse::CompressedCsrMatrix;
using sparse::CsrMatrix;
using sparse::MatrixStore;
using sparse::MatrixView;
using sparse::Triplet;

/** Random matrix with a mix of empty, short, and long rows. */
CsrMatrix
randomMatrix(std::uint32_t seed, Index rows, Index cols, int per_row)
{
    std::mt19937 rng(seed);
    std::vector<Triplet> t;
    for (Index r = 0; r < rows; ++r) {
        if (rng() % 5 == 0)
            continue; // Empty row.
        int n = 1 + static_cast<int>(rng() % static_cast<unsigned>(per_row));
        for (int i = 0; i < n; ++i) {
            t.push_back({r, static_cast<Index>(rng() % static_cast<unsigned>(cols)),
                         static_cast<Value>(rng() % 64) - 31.5f});
        }
    }
    return CsrMatrix::fromTriplets(rows, cols, std::move(t));
}

void
expectSameMatrix(const CsrMatrix &a, const CsrMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    EXPECT_EQ(a.values(), b.values());
}

// ---------------------------------------------------------------------------
// Codec: round trips, skip points, byte accounting.
// ---------------------------------------------------------------------------

TEST(CompressedCodec, RoundTripsStructuredMatrices)
{
    for (std::uint32_t seed : {1u, 7u, 42u}) {
        CsrMatrix m = randomMatrix(seed, 40, 200, 12);
        CompressedCsrMatrix c = CompressedCsrMatrix::fromCsr(m);
        EXPECT_EQ(c.rows(), m.rows());
        EXPECT_EQ(c.cols(), m.cols());
        EXPECT_EQ(c.nnz(), m.nnz());
        expectSameMatrix(c.toCsr(), m);
    }
}

TEST(CompressedCodec, LongRowsCrossSkipPoints)
{
    // Rows longer than kSkipInterval (and than 2x it) exercise the
    // skip-table path in at(); the codec must agree with the plain
    // binary search at every stored and absent column.
    for (Index len : {CompressedCsrMatrix::kSkipInterval + 9,
                      2 * CompressedCsrMatrix::kSkipInterval + 17}) {
        std::vector<Triplet> t;
        for (Index i = 0; i < len; ++i)
            t.push_back({0, 3 * i + (i % 2), static_cast<Value>(i)});
        t.push_back({2, 5, 1.0f}); // A short row after the long one.
        CsrMatrix m = CsrMatrix::fromTriplets(3, 3 * len + 2,
                                              std::move(t));
        CompressedCsrMatrix c = CompressedCsrMatrix::fromCsr(m);
        ASSERT_GT(c.entryCount(0), CompressedCsrMatrix::kSkipInterval);
        for (Index col = 0; col < m.cols(); ++col) {
            EXPECT_EQ(c.at(0, col), m.at(0, col)) << "col " << col;
        }
        EXPECT_EQ(c.at(2, 5), 1.0f);
        EXPECT_EQ(c.at(1, 0), 0.0f);
        expectSameMatrix(c.toCsr(), m);
    }
}

TEST(CompressedCodec, MeasuredBytesMatchTheBuiltEncoding)
{
    // measureEncodedBytes is the single definition behind the
    // dataset.encoded_bytes stat; it must equal what an actual build
    // reports.
    for (std::uint32_t seed : {3u, 11u, 99u}) {
        CsrMatrix m = randomMatrix(seed, 30, 4000, 90);
        CompressedCsrMatrix c = CompressedCsrMatrix::fromCsr(m);
        EXPECT_EQ(c.encodedBytes(),
                  CompressedCsrMatrix::measureEncodedBytes(m));
    }
    EXPECT_EQ(CompressedCsrMatrix::fromCsr({}).encodedBytes(),
              CompressedCsrMatrix::measureEncodedBytes({}));
}

TEST(CompressedCodec, BeatsCsrOnTheCheckedInFixture)
{
    // The documented claim: on tiny.mtx the compressed form is
    // smaller than plain CSR (delta + varint wins on local structure).
    std::string path;
    for (const char *prefix : {"data/fixtures/", "../data/fixtures/"}) {
        std::string p = std::string(prefix) + "tiny.mtx";
        if (std::filesystem::exists(p))
            path = p;
    }
    if (path.empty())
        GTEST_SKIP() << "fixture tiny.mtx not found";
    MatrixStore s = workloads::loadRealStore(path, workloads::CacheMode::Off);
    EXPECT_LT(s.encodedBytes(), s.csrBytes());
}

// ---------------------------------------------------------------------------
// MatrixStore: CSR plus its measured sizes.
// ---------------------------------------------------------------------------

TEST(MatrixStore, ForwardsToItsCsrAndMeasuresBothForms)
{
    CsrMatrix m = randomMatrix(5, 24, 96, 10);
    MatrixStore s(m);

    EXPECT_EQ(s.rows(), m.rows());
    EXPECT_EQ(s.cols(), m.cols());
    EXPECT_EQ(s.nnz(), m.nnz());
    expectSameMatrix(s.csr(), m);
    expectSameMatrix(s.transpose(), m.transpose());
    for (Index r = 0; r < m.rows(); r += 3)
        EXPECT_EQ(s.at(r, r % m.cols()), m.at(r, r % m.cols()));

    EXPECT_EQ(s.csrBytes(), 4u * (static_cast<std::uint64_t>(m.rows()) + 1) +
                                8u * static_cast<std::uint64_t>(m.nnz()));
    EXPECT_EQ(s.encodedBytes(),
              CompressedCsrMatrix::fromCsr(m).encodedBytes());
    EXPECT_EQ(MatrixStore().encodedBytes(),
              CompressedCsrMatrix::fromCsr({}).encodedBytes());
}

TEST(MatrixStore, RunStatsReportTheDatasetSizes)
{
    // dataset.csr_bytes / encoded_bytes are measured properties of the
    // dataset a run used.
    DriverOptions opts;
    opts.app = "spmv";
    opts.scale = 0.05;
    opts.tiles = 4;
    const RunResult r = runDriver(opts);
    auto d = workloads::resolveMatrixDataset(r.dataset, r.scale);
    EXPECT_EQ(r.info.csr_bytes, d.matrix.csrBytes());
    EXPECT_EQ(r.info.encoded_bytes,
              CompressedCsrMatrix::fromCsr(d.matrix.csr()).encodedBytes());
    EXPECT_LT(r.info.encoded_bytes, r.info.csr_bytes);
}

// ---------------------------------------------------------------------------
// MatrixView: accessor equivalence over both backings.
// ---------------------------------------------------------------------------

TEST(MatrixViewSeam, AccessorsAgreeAcrossBackings)
{
    for (std::uint32_t seed : {2u, 13u, 0xC0FFEEu}) {
        CsrMatrix m = randomMatrix(seed, 48, 300, 20);
        CompressedCsrMatrix c = CompressedCsrMatrix::fromCsr(m);
        MatrixView a(m);
        MatrixView b(c);

        ASSERT_EQ(a.rows(), b.rows());
        ASSERT_EQ(a.cols(), b.cols());
        ASSERT_EQ(a.nnz(), b.nnz());
        for (Index r = 0; r < a.rows(); ++r) {
            ASSERT_EQ(a.length(r), b.length(r)) << "row " << r;
            auto ai = a.indices(r);
            auto bi = b.indices(r);
            ASSERT_TRUE(std::equal(ai.begin(), ai.end(), bi.begin(),
                                   bi.end()))
                << "seed " << seed << " row " << r;
            auto av = a.values(r);
            auto bv = b.values(r);
            EXPECT_TRUE(std::equal(av.begin(), av.end(), bv.begin(),
                                   bv.end()));
        }
        EXPECT_EQ(a.columnStream(), b.columnStream());
        EXPECT_EQ(a.toCoo().entries(), b.toCoo().entries());
        expectSameMatrix(a.transposed(), b.transposed());
        for (Index probe = 0; probe < 50; ++probe) {
            Index r = static_cast<Index>(probe * 7 % a.rows());
            Index col = static_cast<Index>(probe * 13 % a.cols());
            EXPECT_EQ(a.at(r, col), b.at(r, col));
        }
    }
}

TEST(MatrixViewSeam, TwoViewsHoldTwoRowsAtOnce)
{
    // The documented scratch contract: one view's indices() span is
    // invalidated by its next indices() call, so two-matrix apps read
    // through two views. Prove the two-view pattern is sound.
    CsrMatrix m = randomMatrix(21, 32, 128, 12);
    CompressedCsrMatrix c = CompressedCsrMatrix::fromCsr(m);
    MatrixView left(c);
    MatrixView right(c);
    for (Index r = 0; r + 1 < m.rows(); ++r) {
        auto a = left.indices(r);
        auto b = right.indices(r + 1);
        auto ea = m.rowIndices(r);
        auto eb = m.rowIndices(r + 1);
        ASSERT_TRUE(std::equal(a.begin(), a.end(), ea.begin(), ea.end()));
        ASSERT_TRUE(std::equal(b.begin(), b.end(), eb.begin(), eb.end()));
    }
}

} // namespace
