/**
 * @file
 * Tests for real-dataset ingestion (workloads/io.hpp): Matrix Market
 * and SNAP edge-list parsing, the versioned binary cache, dataset
 * resolution (`file:` / `mtx:` schemes, Table 6 probing, synthetic
 * fallback), and the driver-level golden for the checked-in fixtures.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "workloads/datasets.hpp"
#include "workloads/io.hpp"

using namespace capstan;
using namespace capstan::workloads;
namespace fs = std::filesystem;

namespace {

sparse::CsrMatrix
mtxFromText(const std::string &text)
{
    std::istringstream in(text);
    return readMatrixMarket(in, "test.mtx");
}

sparse::CsrMatrix
edgesFromText(const std::string &text)
{
    std::istringstream in(text);
    return readEdgeList(in, "test.el");
}

/** Fresh per-test scratch directory under the gtest temp dir. */
fs::path
scratchDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

void
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
}

/** Locate a checked-in fixture from the repo root or build dir. */
std::string
fixture(const std::string &name)
{
    for (const char *prefix : {"data/fixtures/", "../data/fixtures/"}) {
        std::string path = prefix + name;
        if (fs::exists(path))
            return path;
    }
    return "data/fixtures/" + name;
}

const char *kTinyGeneral = "%%MatrixMarket matrix coordinate real general\n"
                           "% a comment\n"
                           "3 4 5\n"
                           "1 1 1.5\n"
                           "1 3 2.5\n"
                           "2 2 -1.0\n"
                           "3 1 4.0\n"
                           "3 4 0.5\n";

} // namespace

TEST(MatrixMarket, CoordinateRoundTripsAgainstHandBuiltCsr)
{
    auto m = mtxFromText(kTinyGeneral);
    auto expect = sparse::CsrMatrix::fromTriplets(
        3, 4,
        {{0, 0, 1.5f}, {0, 2, 2.5f}, {1, 1, -1.0f}, {2, 0, 4.0f},
         {2, 3, 0.5f}});
    EXPECT_EQ(m.rows(), expect.rows());
    EXPECT_EQ(m.cols(), expect.cols());
    EXPECT_EQ(m.rowPtr(), expect.rowPtr());
    EXPECT_EQ(m.colIdx(), expect.colIdx());
    EXPECT_EQ(m.values(), expect.values());
}

TEST(MatrixMarket, OneBasedIndicesBecomeZeroBased)
{
    auto m = mtxFromText("%%MatrixMarket matrix coordinate real general\n"
                         "2 2 1\n"
                         "2 2 7.0\n");
    EXPECT_EQ(m.nnz(), 1);
    EXPECT_FLOAT_EQ(m.at(1, 1), 7.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
}

TEST(MatrixMarket, SymmetricExpandsToFullStorage)
{
    auto m = mtxFromText("%%MatrixMarket matrix coordinate real symmetric\n"
                         "3 3 4\n"
                         "1 1 1.0\n"
                         "2 1 2.0\n"
                         "3 2 3.0\n"
                         "3 3 4.0\n");
    EXPECT_EQ(m.nnz(), 6); // Two off-diagonals mirror; diagonals don't.
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 2), 3.0f);
    EXPECT_FLOAT_EQ(m.at(2, 1), 3.0f);
    EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
}

TEST(MatrixMarket, SkewSymmetricMirrorsNegated)
{
    auto m =
        mtxFromText("%%MatrixMarket matrix coordinate real skew-symmetric\n"
                    "2 2 1\n"
                    "2 1 5.0\n");
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_FLOAT_EQ(m.at(1, 0), 5.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), -5.0f);
}

TEST(MatrixMarket, ComplexEntriesKeepTheirRealPart)
{
    // qc324 et al. are complex Hermitian; the simulator carries one
    // 32-bit value per lane, so the real part is stored and the
    // Hermitian mirror (conjugate) keeps it unchanged.
    auto m =
        mtxFromText("%%MatrixMarket matrix coordinate complex hermitian\n"
                    "2 2 2\n"
                    "1 1 1.5 0.0\n"
                    "2 1 2.5 -3.0\n");
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 2.5f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.5f);
    // Wrong token count for a complex entry is malformed.
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate complex "
                             "general\n1 1 1\n1 1 1.0\n"),
                 DatasetError);
}

TEST(MatrixMarket, PatternEntriesGetUnitValues)
{
    auto m = mtxFromText("%%MatrixMarket matrix coordinate pattern general\n"
                         "2 2 2\n"
                         "1 2\n"
                         "2 1\n");
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_FLOAT_EQ(m.at(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 1.0f);
}

TEST(MatrixMarket, ToleratesCommentsBlankLinesAndCrlf)
{
    auto m = mtxFromText(
        "%%MatrixMarket matrix coordinate integer general\r\n"
        "% comment line\r\n"
        "\r\n"
        "  % indented comment\r\n"
        "2 2 2\r\n"
        "1 1 3\r\n"
        "\r\n"
        "2 2 4\r\n");
    EXPECT_EQ(m.nnz(), 2);
    EXPECT_FLOAT_EQ(m.at(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(m.at(1, 1), 4.0f);
}

TEST(MatrixMarket, ArrayFormatStoresNonZerosColumnMajor)
{
    // 2x2 dense column-major: [[1, 0], [2, 3]] — the zero is dropped.
    auto m = mtxFromText("%%MatrixMarket matrix array real general\n"
                         "2 2\n"
                         "1.0\n"
                         "2.0\n"
                         "0.0\n"
                         "3.0\n");
    EXPECT_EQ(m.nnz(), 3);
    EXPECT_FLOAT_EQ(m.at(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(m.at(1, 1), 3.0f);
}

TEST(MatrixMarket, ArraySymmetricReadsLowerTriangle)
{
    auto m = mtxFromText("%%MatrixMarket matrix array real symmetric\n"
                         "2 2\n"
                         "1.0\n"
                         "2.0\n"
                         "3.0\n");
    EXPECT_EQ(m.nnz(), 4);
    EXPECT_FLOAT_EQ(m.at(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 2.0f);
    EXPECT_FLOAT_EQ(m.at(1, 1), 3.0f);
}

TEST(MatrixMarket, RejectsMalformedInput)
{
    // Missing/typo'd header.
    EXPECT_THROW(mtxFromText("1 1 1\n1 1 1.0\n"), DatasetError);
    EXPECT_THROW(mtxFromText("%%MatrixMorket matrix coordinate real "
                             "general\n1 1 1\n1 1 1.0\n"),
                 DatasetError);
    // Unsupported field / object / symmetry.
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate "
                             "quaternion general\n1 1 1\n1 1 1.0\n"),
                 DatasetError);
    EXPECT_THROW(mtxFromText("%%MatrixMarket vector coordinate real "
                             "general\n1 1\n1 1.0\n"),
                 DatasetError);
    // Bad size line, short body, out-of-range index, bad value.
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2 2\n"),
                 DatasetError);
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2 2 2\n1 1 1.0\n"),
                 DatasetError);
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2 2 1\n3 1 1.0\n"),
                 DatasetError);
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2 2 1\n0 1 1.0\n"),
                 DatasetError);
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2 2 1\n1 1 abc\n"),
                 DatasetError);
    // Trailing garbage after the declared entries.
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2 2 1\n1 1 1.0\n2 2 2.0\n"),
                 DatasetError);
    // Absurd declared dimensions are usage errors, not allocations.
    EXPECT_THROW(mtxFromText("%%MatrixMarket matrix coordinate real "
                             "general\n2000000000 2000000000 1\n"
                             "1 1 1.0\n"),
                 DatasetError);
    EXPECT_THROW(edgesFromText("0 1999999999\n"), DatasetError);
}

TEST(EdgeList, ParsesSnapStyleInput)
{
    auto g = edgesFromText("# Directed graph\n"
                           "# FromNodeId\tToNodeId\r\n"
                           "0\t1\r\n"
                           "1\t2\n"
                           "\n"
                           "3 0 2.5\n");
    EXPECT_EQ(g.rows(), 4);
    EXPECT_EQ(g.cols(), 4);
    EXPECT_EQ(g.nnz(), 3);
    EXPECT_FLOAT_EQ(g.at(0, 1), 1.0f); // Missing weight defaults to 1.
    EXPECT_FLOAT_EQ(g.at(3, 0), 2.5f);
}

TEST(EdgeList, RejectsMalformedInput)
{
    EXPECT_THROW(edgesFromText(""), DatasetError);
    EXPECT_THROW(edgesFromText("# only comments\n"), DatasetError);
    EXPECT_THROW(edgesFromText("0\n"), DatasetError);
    EXPECT_THROW(edgesFromText("0 1 2 3\n"), DatasetError);
    EXPECT_THROW(edgesFromText("a b\n"), DatasetError);
    EXPECT_THROW(edgesFromText("-1 2\n"), DatasetError);
}

TEST(FromParts, ValidatesEveryInvariant)
{
    using sparse::CsrMatrix;
    auto ok = CsrMatrix::fromParts(2, 3, {0, 1, 3}, {2, 0, 1},
                                   {1.0f, 2.0f, 3.0f});
    EXPECT_EQ(ok.nnz(), 3);
    EXPECT_FLOAT_EQ(ok.at(1, 1), 3.0f);
    // Wrong row_ptr length, start, monotonicity, total.
    EXPECT_THROW(CsrMatrix::fromParts(2, 3, {0, 1}, {0}, {1.0f}),
                 std::invalid_argument);
    EXPECT_THROW(CsrMatrix::fromParts(2, 3, {1, 1, 1}, {}, {}),
                 std::invalid_argument);
    EXPECT_THROW(CsrMatrix::fromParts(2, 3, {0, 2, 1},
                                      {0, 1, 2}, {1, 2, 3}),
                 std::invalid_argument);
    // Overshooting row_ptr must be rejected before col_idx is read
    // (the later monotonicity violation would come too late).
    EXPECT_THROW(CsrMatrix::fromParts(2, 3, {0, 10, 3},
                                      {0, 1, 2}, {1, 2, 3}),
                 std::invalid_argument);
    EXPECT_THROW(CsrMatrix::fromParts(2, 3, {0, 1, 3}, {0},
                                      {1.0f}),
                 std::invalid_argument);
    // Column out of range / unsorted / duplicate within a row.
    EXPECT_THROW(CsrMatrix::fromParts(1, 2, {0, 1}, {2}, {1.0f}),
                 std::invalid_argument);
    EXPECT_THROW(CsrMatrix::fromParts(1, 3, {0, 2}, {1, 0},
                                      {1.0f, 2.0f}),
                 std::invalid_argument);
    EXPECT_THROW(CsrMatrix::fromParts(1, 3, {0, 2}, {1, 1},
                                      {1.0f, 2.0f}),
                 std::invalid_argument);
}

TEST(Cache, RoundTripsThroughTheV2Binary)
{
    fs::path dir = scratchDir("capstan_cache_hit");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, kTinyGeneral);
    auto first = loadRealMatrix(mtx.string(), CacheMode::Force);
    ASSERT_TRUE(fs::exists(matrixCachePath(mtx.string())));

    // The written cache is the strict v2 form and decodes to exactly
    // the parsed matrix.
    auto cached = readCompressedCache(matrixCachePath(mtx.string()))
                      .toCsr();
    EXPECT_EQ(cached.rowPtr(), first.rowPtr());
    EXPECT_EQ(cached.colIdx(), first.colIdx());
    EXPECT_EQ(cached.values(), first.values());

    // And the loader agrees with itself through the cache path.
    auto again = loadRealMatrix(mtx.string(), CacheMode::Auto);
    EXPECT_EQ(again.colIdx(), first.colIdx());
}

TEST(Cache, ContentHashMissesOnSameStampDifferentContent)
{
    // The gap a size + mtime key leaves: a rewrite that lands on the
    // same size and mtime must still miss, because the v2 key includes a
    // content hash. The rewrite here differs from kTinyGeneral in one
    // byte (the last value, 0.5 -> 0.75 would change the size; use
    // 0.7), so size is identical and the mtime is restored manually.
    fs::path dir = scratchDir("capstan_cache_samestamp");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, kTinyGeneral);
    auto first = loadRealMatrix(mtx.string(), CacheMode::Force);
    EXPECT_FLOAT_EQ(first.at(2, 3), 0.5f);

    std::string rewritten(kTinyGeneral);
    rewritten.replace(rewritten.rfind("0.5"), 3, "0.7");
    ASSERT_EQ(rewritten.size(), std::string(kTinyGeneral).size());
    auto stamp = fs::last_write_time(mtx);
    writeFile(mtx, rewritten);
    fs::last_write_time(mtx, stamp);

    auto second = loadRealMatrix(mtx.string(), CacheMode::Auto);
    EXPECT_FLOAT_EQ(second.at(2, 3), 0.7f)
        << "stale cache served despite changed content";

    // Same stamp, garbage content: the miss re-parses and rejects.
    std::string garbage(fs::file_size(mtx), 'x');
    writeFile(mtx, garbage);
    fs::last_write_time(mtx, stamp);
    EXPECT_THROW(loadRealMatrix(mtx.string(), CacheMode::Auto),
                 DatasetError);
}

TEST(Cache, LegacyV1CachesMissAndAreRewrittenAsV2)
{
    // A v1 cache (plain CSR, keyed on size + mtime only) with a fresh
    // stamp is no longer trusted. The planted cache deliberately holds
    // a *different* matrix than the source text, so serving it would
    // be visible.
    fs::path dir = scratchDir("capstan_cache_v1");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, kTinyGeneral);
    std::string cache = matrixCachePath(mtx.string());

    std::ofstream out(cache, std::ios::binary);
    const char magic[8] = {'C', 'A', 'P', 'C', 'S', 'R', 'v', '1'};
    std::uint64_t src_size = fs::file_size(mtx);
    std::int64_t src_mtime = static_cast<std::int64_t>(
        fs::last_write_time(mtx).time_since_epoch().count());
    std::int32_t rows = 2, cols = 2;
    std::uint64_t nnz = 1;
    auto put = [&](const void *p, std::size_t n) {
        out.write(static_cast<const char *>(p),
                  static_cast<std::streamsize>(n));
    };
    put(magic, sizeof(magic));
    put(&src_size, sizeof(src_size));
    put(&src_mtime, sizeof(src_mtime));
    put(&rows, sizeof(rows));
    put(&cols, sizeof(cols));
    put(&nnz, sizeof(nnz));
    const std::int32_t row_ptr[3] = {0, 1, 1};
    const std::int32_t col_idx[1] = {0};
    const float values[1] = {42.0f};
    put(row_ptr, sizeof(row_ptr));
    put(col_idx, sizeof(col_idx));
    put(values, sizeof(values));
    out.close();
    EXPECT_THROW(readCompressedCache(cache), DatasetError);

    // The v1 cache is ignored: the text's matrix comes back.
    auto text = mtxFromText(kTinyGeneral);
    for (CacheMode mode : {CacheMode::Auto, CacheMode::Force}) {
        auto m = loadRealMatrix(mtx.string(), mode);
        EXPECT_EQ(m.rows(), 3);
        EXPECT_EQ(m.colIdx(), text.colIdx());
        EXPECT_EQ(m.values(), text.values());
    }

    // The re-parse rewrote the cache as v2 over the same matrix.
    auto cached = readCompressedCache(cache).toCsr();
    EXPECT_EQ(cached.rowPtr(), text.rowPtr());
    EXPECT_EQ(cached.colIdx(), text.colIdx());
    EXPECT_EQ(cached.values(), text.values());
}

TEST(Cache, InvalidatesWhenTheSourceChanges)
{
    fs::path dir = scratchDir("capstan_cache_inval");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, kTinyGeneral);
    auto first = loadRealMatrix(mtx.string(), CacheMode::Force);
    EXPECT_EQ(first.nnz(), 5);

    // A different file (new size => new identity) must be re-parsed
    // even though a cache from the old content exists.
    writeFile(mtx, "%%MatrixMarket matrix coordinate real general\n"
                   "2 2 1\n"
                   "1 2 9.0\n");
    auto second = loadRealMatrix(mtx.string(), CacheMode::Auto);
    EXPECT_EQ(second.nnz(), 1);
    EXPECT_FLOAT_EQ(second.at(0, 1), 9.0f);
}

TEST(Cache, CorruptCacheFallsBackToTheText)
{
    fs::path dir = scratchDir("capstan_cache_corrupt");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, kTinyGeneral);
    loadRealMatrix(mtx.string(), CacheMode::Force);
    writeFile(matrixCachePath(mtx.string()), "not a cache");
    auto m = loadRealMatrix(mtx.string(), CacheMode::Auto);
    EXPECT_EQ(m.nnz(), 5);
}

TEST(Resolve, FileSchemeLoadsMtxAndEdgeLists)
{
    auto d = resolveMatrixDataset("file:" + fixture("tiny.mtx"));
    EXPECT_EQ(d.rows(), 64);
    EXPECT_EQ(d.nnz(), 128);
    EXPECT_EQ(d.source, fixture("tiny.mtx"));

    auto g = resolveMatrixDataset("file:" + fixture("tiny.el"));
    EXPECT_EQ(g.rows(), 64);
    EXPECT_EQ(g.nnz(), 128);

    auto s = resolveMatrixDataset("file:" + fixture("tiny_sym.mtx"));
    EXPECT_EQ(s.rows(), 16);
    EXPECT_EQ(s.nnz(), 46); // 16 diagonal + 2 * 15 mirrored.
    EXPECT_FLOAT_EQ(s.matrix.at(0, 1), 1.0f);
}

TEST(Resolve, RelativeFileAndMtxSchemesUseTheDatasetDir)
{
    fs::path dir = scratchDir("capstan_resolve_dir");
    writeFile(dir / "demo.mtx", kTinyGeneral);

    auto rel = resolveMatrixDataset("file:demo.mtx", 1.0, dir.string());
    EXPECT_EQ(rel.nnz(), 5);

    auto named = resolveMatrixDataset("mtx:demo", 1.0, dir.string());
    EXPECT_EQ(named.nnz(), 5);
    EXPECT_EQ(named.source, (dir / "demo.mtx").string());

    EXPECT_THROW(resolveMatrixDataset("mtx:demo"), DatasetError);
    EXPECT_THROW(resolveMatrixDataset("mtx:absent", 1.0, dir.string()),
                 DatasetError);
    EXPECT_THROW(resolveMatrixDataset("file:absent.mtx", 1.0,
                                      dir.string()),
                 DatasetError);
}

TEST(Resolve, Table6NamesPreferRealFilesAndFallBackToSynthetic)
{
    fs::path dir = scratchDir("capstan_resolve_t6");
    writeFile(dir / "Trefethen_20000.mtx", kTinyGeneral);

    // Present: the real file wins, whatever the scale.
    auto real = resolveMatrixDataset("Trefethen_20000", 0.05,
                                     dir.string());
    EXPECT_EQ(real.rows(), 3);
    EXPECT_FALSE(real.source.empty());

    // Absent: the synthetic stand-in at the requested scale.
    auto synth = resolveMatrixDataset("bcsstk30", 0.05, dir.string());
    EXPECT_TRUE(synth.source.empty());
    auto direct = loadMatrixDataset("bcsstk30", 0.05);
    EXPECT_EQ(synth.rows(), direct.rows());
    EXPECT_EQ(synth.nnz(), direct.nnz());

    // No dataset dir at all: always synthetic.
    auto plain = resolveMatrixDataset("bcsstk30", 0.05);
    EXPECT_TRUE(plain.source.empty());
    EXPECT_EQ(plain.nnz(), direct.nnz());

    // Unknown names still fail, dir or not.
    EXPECT_THROW(resolveMatrixDataset("nope", 1.0, dir.string()),
                 DatasetError);
}

TEST(Resolve, RealDatasetPathProbesWithoutLoading)
{
    fs::path dir = scratchDir("capstan_probe");
    writeFile(dir / "demo.mtx", kTinyGeneral);

    EXPECT_EQ(realDatasetPath("mtx:demo", dir.string()),
              (dir / "demo.mtx").string());
    EXPECT_EQ(realDatasetPath("file:demo.mtx", dir.string()),
              (dir / "demo.mtx").string());
    EXPECT_FALSE(realDatasetPath("mtx:demo").has_value());
    EXPECT_FALSE(realDatasetPath("demo", "").has_value());
    EXPECT_FALSE(
        realDatasetPath("bcsstk30", dir.string()).has_value());
    // Table 6 probe hits when the file appears.
    writeFile(dir / "bcsstk30.mtx", kTinyGeneral);
    EXPECT_TRUE(
        realDatasetPath("bcsstk30", dir.string()).has_value());
    // Synthetic names never probe without a dir.
    EXPECT_FALSE(realDatasetPath("bcsstk30").has_value());
}

TEST(Resolve, ScaledDimensionsRoundToNearest)
{
    // 20000 * 0.0125 = 250 exactly; truncation used to hit 249 on
    // nearby scales — 0.01251 * 20000 = 250.2 must stay 250, and
    // 0.012475 * 20000 = 249.5 rounds up rather than down.
    EXPECT_EQ(loadMatrixDataset("Trefethen_20000", 0.0125).rows(), 250);
    EXPECT_EQ(loadMatrixDataset("Trefethen_20000", 0.01251).rows(), 250);
    EXPECT_EQ(loadMatrixDataset("Trefethen_20000", 0.012475).rows(),
              250);
}

TEST(Resolve, RejectsInvalidScales)
{
    EXPECT_THROW(loadMatrixDataset("qc324", 0.0), DatasetError);
    EXPECT_THROW(loadMatrixDataset("qc324", -1.0), DatasetError);
    EXPECT_THROW(loadMatrixDataset("qc324", std::nan("")),
                 DatasetError);
    EXPECT_THROW(
        loadMatrixDataset("qc324",
                          std::numeric_limits<double>::infinity()),
        DatasetError);
    EXPECT_THROW(loadConvDataset("ResNet-50 #1", 0.0), DatasetError);
    EXPECT_THROW(loadConvDataset("ResNet-50 #1", std::nan("")),
                 DatasetError);
    EXPECT_THROW(resolveMatrixDataset("qc324", 0.0), DatasetError);
}

TEST(DriverGolden, FixtureSpmvMatchesPinnedStats)
{
    // `capstan-run --app spmv --dataset file:data/fixtures/tiny.mtx
    // --tiles 4`: pinned at ingestion time; any parser or plumbing
    // drift shows up as an exact mismatch.
    driver::DriverOptions opts;
    opts.app = "spmv";
    opts.dataset = "file:" + fixture("tiny.mtx");
    opts.tiles = 4;
    driver::RunResult r = driver::runDriver(opts);
    EXPECT_EQ(r.info.rows, 64);
    EXPECT_EQ(r.info.cols, 64);
    EXPECT_EQ(r.info.nnz, 128);
    EXPECT_EQ(r.info.source, fixture("tiny.mtx"));
    EXPECT_EQ(r.timing.cycles, 147u);
    EXPECT_EQ(r.timing.totals.tokens, 4u);
    EXPECT_EQ(r.timing.totals.active_lane_cycles, 128.0);
    EXPECT_EQ(r.timing.totals.vector_idle_lane_cycles, 896.0);
    EXPECT_EQ(r.timing.totals.imbalance_lane_cycles, 256.0);
    EXPECT_EQ(r.timing.dram.bursts, 64.0);
    EXPECT_EQ(r.timing.dram.bytes, 1280.0);
    EXPECT_EQ(r.timing.spmu.grants, 128.0);

    // The stats schema gains a source field only for real datasets.
    driver::JsonValue doc = driver::statsToJson(r);
    EXPECT_EQ(doc.at("dataset").at("source").asString(),
              fixture("tiny.mtx"));
}

TEST(Resolve, RectangularMatricesAreRejectedBySquareOnlyApps)
{
    // Graph traversals, M+M, SpMSpM, and BiCGStab index one dimension
    // with the other's indices; only real files can be rectangular
    // (every synthetic generator is square), so the dispatch must
    // reject them instead of reading out of bounds.
    fs::path dir = scratchDir("capstan_rect");
    writeFile(dir / "rect.mtx", kTinyGeneral); // 3x4.
    std::string name = "file:" + (dir / "rect.mtx").string();
    for (const char *app : {"PR-Pull", "PR-Edge", "BFS", "SSSP",
                            "M+M", "SpMSpM", "BiCGStab"})
        EXPECT_THROW(driver::runApp(app, name, sim::CapstanConfig(),
                                    {}),
                     DatasetError)
            << app;
    // Rectangular SpMV variants are fine.
    EXPECT_NO_THROW(
        driver::runApp("CSR", name, sim::CapstanConfig(), {}));
}

TEST(Resolve, SweepMarksDatasetFailuresAsUsageErrors)
{
    driver::DriverOptions bad;
    bad.dataset = "file:absent.mtx";
    driver::DriverOptions unknown;
    unknown.dataset = "no-such-dataset";
    auto results = driver::runSweep({bad, unknown}, 1, nullptr);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results) {
        EXPECT_FALSE(r.ok);
        EXPECT_TRUE(r.usage_error) << r.error;
    }
}

TEST(DriverGolden, FixturePagerankOverEdgeList)
{
    driver::DriverOptions opts;
    opts.app = "pagerank";
    opts.dataset = "file:" + fixture("tiny.el");
    opts.tiles = 4;
    opts.iterations = 1;
    driver::RunResult r = driver::runDriver(opts);
    EXPECT_EQ(r.info.nnz, 128);
    EXPECT_EQ(r.timing.cycles, 161u);
    EXPECT_EQ(r.timing.dram.bytes, 1536.0);
}
