/**
 * @file
 * The compressed-store equivalence layer: the delta + group-varint
 * codec (sparse/compressed.hpp), the MatrixStore/MatrixView seam, and
 * the differential contract that --matrix-store only changes host
 * memory layout. A 12-point app x config matrix runs through the real
 * driver dispatch under both backings — including under the
 * CAPSTAN_NO_FF kill switch — and every JSON stats document must match
 * byte for byte.
 */

#include <gtest/gtest.h>

#include <cstdlib>
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
using sparse::StoreKind;
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
    // reports, or the stat would depend on the backing in use.
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
    MatrixStore s = workloads::loadRealStore(path, workloads::CacheMode::Off,
                                             StoreKind::Compressed);
    EXPECT_LT(s.encodedBytes(), s.csrBytes());
}

// ---------------------------------------------------------------------------
// MatrixStore: the owning seam.
// ---------------------------------------------------------------------------

TEST(MatrixStoreSeam, BuildWithKindAndAccessorsAgree)
{
    CsrMatrix m = randomMatrix(5, 24, 96, 10);
    MatrixStore plain = MatrixStore::build(StoreKind::Csr, m);
    MatrixStore packed = MatrixStore::build(StoreKind::Compressed, m);

    EXPECT_EQ(plain.kind(), StoreKind::Csr);
    EXPECT_EQ(packed.kind(), StoreKind::Compressed);
    EXPECT_EQ(plain.rows(), packed.rows());
    EXPECT_EQ(plain.nnz(), packed.nnz());
    EXPECT_EQ(plain.csrBytes(), packed.csrBytes());
    EXPECT_EQ(plain.encodedBytes(), packed.encodedBytes());
    expectSameMatrix(plain.toCsr(), packed.toCsr());
    expectSameMatrix(plain.transpose(), packed.transpose());
    for (Index r = 0; r < m.rows(); r += 3)
        EXPECT_EQ(plain.at(r, r % m.cols()), packed.at(r, r % m.cols()));

    // Round trips through withKind land on the original bytes.
    expectSameMatrix(packed.withKind(StoreKind::Csr).toCsr(), m);
    expectSameMatrix(plain.withKind(StoreKind::Compressed).toCsr(), m);

    // Kind-mismatched backing accessors are hard logic errors.
    EXPECT_NO_THROW(plain.csr());
    EXPECT_NO_THROW(packed.compressed());
    EXPECT_THROW(plain.compressed(), std::logic_error);
    EXPECT_THROW(packed.csr(), std::logic_error);
}

TEST(MatrixStoreSeam, KindNamesParseBothWays)
{
    StoreKind k = StoreKind::Csr;
    EXPECT_TRUE(sparse::parseStoreKind("compressed", k));
    EXPECT_EQ(k, StoreKind::Compressed);
    EXPECT_EQ(sparse::storeKindName(k), "compressed");
    EXPECT_TRUE(sparse::parseStoreKind("csr", k));
    EXPECT_EQ(k, StoreKind::Csr);
    EXPECT_EQ(sparse::storeKindName(k), "csr");
    EXPECT_FALSE(sparse::parseStoreKind("", k));
    EXPECT_FALSE(sparse::parseStoreKind("dcsr", k));
    EXPECT_EQ(k, StoreKind::Csr); // Unparsed input leaves out alone.
}

TEST(MatrixStoreSeam, DatasetResolutionCarriesTheKind)
{
    using namespace capstan::workloads;
    auto plain = resolveMatrixDataset("Trefethen_20000", 0.05, "",
                                      CacheMode::Auto, StoreKind::Csr);
    auto packed = resolveMatrixDataset("Trefethen_20000", 0.05, "",
                                       CacheMode::Auto,
                                       StoreKind::Compressed);
    EXPECT_EQ(plain.matrix.kind(), StoreKind::Csr);
    EXPECT_EQ(packed.matrix.kind(), StoreKind::Compressed);
    expectSameMatrix(plain.matrix.toCsr(), packed.matrix.toCsr());
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

// ---------------------------------------------------------------------------
// The differential matrix: byte-identical stats under either backing.
// ---------------------------------------------------------------------------

struct MatrixPoint
{
    const char *app;
    ConfigPoint config;
};

/**
 * 6 apps x 2 design points = 12 points: every iteration structure
 * that reads the dataset matrix goes through MatrixView, so every one
 * must be bit-invariant to the backing.
 */
const MatrixPoint kMatrix[] = {
    {"spmv", ConfigPoint::Capstan},
    {"spmv", ConfigPoint::Plasticine},
    {"spmv-csc", ConfigPoint::Capstan},
    {"spmv-csc", ConfigPoint::Plasticine},
    {"pagerank", ConfigPoint::Capstan},
    {"pagerank", ConfigPoint::Plasticine},
    {"bfs", ConfigPoint::Capstan},
    {"bfs", ConfigPoint::Plasticine},
    {"matadd", ConfigPoint::Capstan},
    {"matadd", ConfigPoint::Plasticine},
    {"spmspm", ConfigPoint::Capstan},
    {"spmspm", ConfigPoint::Plasticine},
};

std::string
runPoint(const MatrixPoint &p, StoreKind store)
{
    DriverOptions opts;
    opts.app = p.app;
    opts.config = p.config;
    opts.scale = 0.02; // The report's quick-preset scale.
    opts.tiles = 4;
    opts.iterations = 1;
    opts.matrix_store = store;
    return statsToJson(runDriver(opts)).dump(2);
}

TEST(StoreDifferential, TwelvePointMatrixIsByteIdenticalAcrossStores)
{
    for (const MatrixPoint &p : kMatrix) {
        std::string plain = runPoint(p, StoreKind::Csr);
        EXPECT_FALSE(plain.empty());
        EXPECT_EQ(plain, runPoint(p, StoreKind::Compressed))
            << p.app << "/" << configPointName(p.config)
            << " diverged under --matrix-store compressed";
    }
}

TEST(StoreDifferential, HoldsUnderTheFastForwardKillSwitch)
{
    // The backing must stay invisible when dense stepping replaces the
    // fast-forward engine too.
    for (const MatrixPoint &p : {kMatrix[0], kMatrix[6], kMatrix[10]}) {
        ::setenv("CAPSTAN_NO_FF", "1", 1);
        std::string plain_noff = runPoint(p, StoreKind::Csr);
        std::string packed_noff = runPoint(p, StoreKind::Compressed);
        ::unsetenv("CAPSTAN_NO_FF");
        EXPECT_EQ(plain_noff, packed_noff)
            << p.app << " diverged under CAPSTAN_NO_FF=1";
    }
}

TEST(StoreDifferential, StatsReportTheSameSizesUnderEitherStore)
{
    // dataset.csr_bytes / encoded_bytes / compression_ratio describe
    // the dataset, not the backing in use — they are part of the
    // byte-identity contract, so both runs must report them equal.
    DriverOptions opts;
    opts.app = "spmv";
    opts.scale = 0.05;
    opts.tiles = 4;
    const RunResult plain = runDriver(opts);
    opts.matrix_store = StoreKind::Compressed;
    const RunResult packed = runDriver(opts);
    EXPECT_GT(plain.info.csr_bytes, 0u);
    EXPECT_GT(plain.info.encoded_bytes, 0u);
    EXPECT_EQ(plain.info.csr_bytes, packed.info.csr_bytes);
    EXPECT_EQ(plain.info.encoded_bytes, packed.info.encoded_bytes);
    EXPECT_EQ(statsToJson(plain).dump(2), statsToJson(packed).dump(2));
}

} // namespace
