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
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

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

/** A checked-in fixture, found through the source root. */
std::string
fixture(const std::string &name)
{
    return std::string(CAPSTAN_FIXTURE_DIR) + "/" + name;
}

/**
 * @p entries (one "row col [value]" line each) after @p head, several
 * read buffers long. The short lines cycle through an LF entry, a
 * comment and a CRLF entry, a blank line and an LF entry, and a CRLF
 * entry; one comment in the middle is longer than the read buffer, and
 * the last entry has no '\n'. A @p pad-byte comment after the head
 * shifts every later line, so a sweep of pads over one cycle moves
 * each kind of line, and each CR-LF pair, across the buffer's edges.
 */
std::string
streamedText(const std::string &head, char comment, std::size_t pad,
             const std::vector<std::string> &entries)
{
    std::string text = head + comment + std::string(pad, '-') + "\n";
    for (std::size_t k = 0; k < entries.size(); ++k) {
        if (k == entries.size() / 2)
            text += comment + std::string(kReadBufferBytes + 100, 'x') +
                    "\r\n";
        if (k % 4 == 1)
            text += comment + std::string(" note\r\n");
        if (k % 4 == 2)
            text += " \t \r\n";
        text += entries[k];
        if (k + 1 < entries.size())
            text += k % 2 ? "\r\n" : "\n";
    }
    return text;
}

/**
 * Entry k of the streamed tests: a scattered (row, col) in 500x500
 * with a small integer value, so a line is at most ten bytes.
 */
sparse::Triplet
streamedEntry(int k)
{
    return {k * 37 % 500, (k * 91 + k / 500) % 500,
            static_cast<Value>(k % 13 - 6)};
}

constexpr int kStreamedEntries = 18000;

/**
 * One more pad than a streamedText cycle of four entries has bytes
 * (at most 4 * 10 for the entries and 19 for the line ends, the
 * comment and the blank line), so every byte of a cycle meets the
 * first buffer edge.
 */
constexpr std::size_t kStreamedPads = 60;

void
expectSameMatrix(const sparse::CsrMatrix &got,
                 const sparse::CsrMatrix &want, std::size_t pad)
{
    ASSERT_EQ(got.rows(), want.rows()) << "pad " << pad;
    ASSERT_EQ(got.cols(), want.cols()) << "pad " << pad;
    ASSERT_EQ(got.rowPtr(), want.rowPtr()) << "pad " << pad;
    ASSERT_EQ(got.colIdx(), want.colIdx()) << "pad " << pad;
    ASSERT_EQ(got.values(), want.values()) << "pad " << pad;
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

TEST(MatrixMarket, StreamsAcrossReadBufferEdges)
{
    std::vector<std::string> lines;
    std::vector<sparse::Triplet> triplets;
    for (int k = 0; k < kStreamedEntries; ++k) {
        sparse::Triplet t = streamedEntry(k);
        lines.push_back(std::to_string(t.row + 1) + " " +
                        std::to_string(t.col + 1) + " " +
                        std::to_string(static_cast<int>(t.value)));
        triplets.push_back(t);
    }
    auto want = sparse::CsrMatrix::fromTriplets(500, 500, triplets);
    std::string head = "%%MatrixMarket matrix coordinate real general\r\n"
                       "500 500 " +
                       std::to_string(kStreamedEntries) + "\r\n";
    for (std::size_t pad = 0; pad < kStreamedPads; ++pad) {
        std::string text = streamedText(head, '%', pad, lines);
        ASSERT_GT(text.size(), 4 * kReadBufferBytes);
        expectSameMatrix(mtxFromText(text), want, pad);
    }
}

TEST(MatrixMarket, ErrorsPastTheFirstBufferNameTheirPhysicalLine)
{
    // A comment longer than the buffer, then comment, blank and entry
    // lines (CRLF) until two buffers in, then a malformed entry.
    std::string text = "%%MatrixMarket matrix coordinate real general\r\n"
                       "%" +
                       std::string(kReadBufferBytes + 10, 'x') +
                       "\r\n9 9 99999\r\n";
    std::size_t line = 3;
    while (text.size() < 2 * kReadBufferBytes) {
        text += "% comment\r\n\r\n1 1 1.0\r\n";
        line += 3;
    }
    text += "1 x 1.0\r\n2 2 2.0\r\n";
    try {
        mtxFromText(text);
        FAIL() << "malformed entry accepted";
    } catch (const DatasetError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "test.mtx:" + std::to_string(line + 1) +
                      ": invalid index in '1 x 1.0'");
    }

    // The edge-list reader counts lines the same way.
    text = "#" + std::string(kReadBufferBytes + 10, 'x') + "\r\n";
    line = 1;
    while (text.size() < 2 * kReadBufferBytes) {
        text += "# comment\r\n\r\n1 2\r\n";
        line += 3;
    }
    text += "1 x\r\n2 2\r\n";
    try {
        edgesFromText(text);
        FAIL() << "malformed edge accepted";
    } catch (const DatasetError &e) {
        EXPECT_EQ(std::string(e.what()),
                  "test.el:" + std::to_string(line + 1) +
                      ": invalid node id in '1 x'");
    }
}

TEST(MatrixMarket, DataLineStartingWithNulIsRejected)
{
    // NUL is no comment character: after leading blanks it starts a
    // data line, which both readers reject by its physical line.
    std::string mtx = "%%MatrixMarket matrix coordinate real general\n"
                      "% comment\n"
                      "2 2 2\n"
                      "1 1 1.0\n"
                      " \t";
    mtx += '\0';
    mtx += " 2 2.0\n";
    try {
        mtxFromText(mtx);
        FAIL() << "NUL line accepted";
    } catch (const DatasetError &e) {
        EXPECT_TRUE(std::string(e.what()).starts_with("test.mtx:5: invalid index"))
            << e.what();
    }

    std::string edges = "# comment\n0 1\n";
    edges += '\0';
    edges += " 1\n1 0\n";
    try {
        edgesFromText(edges);
        FAIL() << "NUL line accepted";
    } catch (const DatasetError &e) {
        EXPECT_TRUE(std::string(e.what()).starts_with("test.el:3: invalid node id"))
            << e.what();
    }
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

TEST(EdgeList, StreamsAcrossReadBufferEdges)
{
    std::vector<std::string> lines;
    std::vector<sparse::Triplet> triplets;
    for (int k = 0; k < kStreamedEntries; ++k) {
        sparse::Triplet t = streamedEntry(k);
        std::string line =
            std::to_string(t.row) + "\t" + std::to_string(t.col);
        // Every other edge leaves its weight at the default of 1.
        if (k % 2) {
            t.value = 1.0f;
        } else {
            line += ' ';
            line += std::to_string(static_cast<int>(t.value));
        }
        lines.push_back(line);
        triplets.push_back(t);
    }
    auto want = sparse::CsrMatrix::fromTriplets(500, 500, triplets);
    for (std::size_t pad = 0; pad < kStreamedPads; ++pad) {
        std::string text =
            streamedText("# Directed graph\r\n", '#', pad, lines);
        ASSERT_GT(text.size(), 4 * kReadBufferBytes);
        expectSameMatrix(edgesFromText(text), want, pad);
    }
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

    // The written cache is the strict v3 form and decodes to exactly
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

TEST(Cache, EmptyMatrixRoundTrips)
{
    // No entries: the cache body hashes empty payload and value arrays.
    fs::path dir = scratchDir("capstan_cache_empty");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, "%%MatrixMarket matrix coordinate real general\n"
                   "3 2 0\n");
    auto first = loadRealMatrix(mtx.string(), CacheMode::Force);
    EXPECT_EQ(first.nnz(), 0);
    auto cached = readCompressedCache(matrixCachePath(mtx.string()))
                      .toCsr();
    EXPECT_EQ(cached.rows(), 3);
    EXPECT_EQ(cached.cols(), 2);
    EXPECT_EQ(cached.rowPtr(), first.rowPtr());
    EXPECT_EQ(cached.nnz(), 0);
}

TEST(Cache, ContentHashMissesOnSameStampDifferentContent)
{
    // The gap a size + mtime key leaves: a rewrite that lands on the
    // same size and mtime must still miss, because the cache key includes
    // a content hash. The rewrite here differs from kTinyGeneral in one
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

    // The re-parse rewrote the cache in the current (v3) format over
    // the same matrix.
    auto cached = readCompressedCache(cache).toCsr();
    EXPECT_EQ(cached.rowPtr(), text.rowPtr());
    EXPECT_EQ(cached.colIdx(), text.colIdx());
    EXPECT_EQ(cached.values(), text.values());
}

TEST(Cache, LegacyV2CachesMissAndAreRewrittenAsV3)
{
    // A v2 cache is the v3 layout under byte-wise FNV-1a hashes. This
    // one is what a v2 reader would serve (fresh stamp, the source's
    // FNV-1a, a valid body checksum), but it holds a *different*
    // matrix than the source text, so serving it would be visible.
    fs::path dir = scratchDir("capstan_cache_v2");
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, kTinyGeneral);
    std::string cache = matrixCachePath(mtx.string());

    auto fnv1a = [](std::uint64_t h, const void *p, std::size_t n) {
        for (std::size_t i = 0; i < n; ++i) {
            h ^= static_cast<const unsigned char *>(p)[i];
            h *= 1099511628211ULL;
        }
        return h;
    };
    constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
    auto planted = sparse::CompressedCsrMatrix::fromCsr(
        sparse::CsrMatrix::fromTriplets(2, 2, {{0, 0, 42.0f}}));
    const auto &off = planted.entryOffsets();
    const auto &pay = planted.encodedPayload();
    const auto &val = planted.flatValues();
    std::uint64_t body =
        fnv1a(kFnvOffset, off.data(), off.size() * sizeof(off[0]));
    body = fnv1a(body, pay.data(), pay.size());
    body = fnv1a(body, val.data(), val.size() * sizeof(val[0]));

    std::ofstream out(cache, std::ios::binary);
    const char magic[8] = {'C', 'A', 'P', 'C', 'S', 'R', 'v', '2'};
    std::uint64_t src_size = fs::file_size(mtx);
    std::int64_t src_mtime = static_cast<std::int64_t>(
        fs::last_write_time(mtx).time_since_epoch().count());
    std::string text_bytes = kTinyGeneral;
    std::uint64_t src_hash =
        fnv1a(kFnvOffset, text_bytes.data(), text_bytes.size());
    std::int32_t rows = 2, cols = 2;
    std::uint64_t nnz = 1;
    std::uint64_t payload_bytes = pay.size();
    auto put = [&](const void *p, std::size_t n) {
        out.write(static_cast<const char *>(p),
                  static_cast<std::streamsize>(n));
    };
    put(magic, sizeof(magic));
    put(&src_size, sizeof(src_size));
    put(&src_mtime, sizeof(src_mtime));
    put(&src_hash, sizeof(src_hash));
    put(&body, sizeof(body));
    put(&rows, sizeof(rows));
    put(&cols, sizeof(cols));
    put(&nnz, sizeof(nnz));
    put(&payload_bytes, sizeof(payload_bytes));
    put(off.data(), off.size() * sizeof(off[0]));
    put(pay.data(), pay.size());
    put(val.data(), val.size() * sizeof(val[0]));
    out.close();
    EXPECT_THROW(readCompressedCache(cache), DatasetError);

    // The v2 cache is ignored: the text's matrix comes back.
    auto text = mtxFromText(kTinyGeneral);
    for (CacheMode mode : {CacheMode::Auto, CacheMode::Force}) {
        auto m = loadRealMatrix(mtx.string(), mode);
        EXPECT_EQ(m.rows(), 3);
        EXPECT_EQ(m.colIdx(), text.colIdx());
        EXPECT_EQ(m.values(), text.values());
    }

    // The re-parse rewrote the cache as v3 over the same matrix.
    std::ifstream in(cache, std::ios::binary);
    char got[8] = {};
    in.read(got, sizeof(got));
    EXPECT_EQ(std::string(got, sizeof(got)), "CAPCSRv3");
    auto cached = readCompressedCache(cache).toCsr();
    EXPECT_EQ(cached.rowPtr(), text.rowPtr());
    EXPECT_EQ(cached.colIdx(), text.colIdx());
    EXPECT_EQ(cached.values(), text.values());
}

TEST(Cache, ContentHashChangesWithAnyOneByte)
{
    // Two read buffers and a partial word: offsets 0, 7 and 8 sit at
    // the first word's edges, kReadBufferBytes +- 1 at the first read's
    // edge, and the last byte in the zero-padded final word.
    fs::path dir = scratchDir("capstan_hash_bytes");
    fs::path file = dir / "bytes.bin";
    std::string base(2 * kReadBufferBytes + 13, '\0');
    for (std::size_t i = 0; i < base.size(); ++i)
        base[i] = static_cast<char>('a' + i % 23);
    writeFile(file, base);
    std::uint64_t h = hashFileContents(file.string());
    EXPECT_EQ(hashFileContents(file.string()), h);

    for (std::size_t at : {std::size_t{0}, std::size_t{7}, std::size_t{8},
                           kReadBufferBytes - 1, kReadBufferBytes,
                           kReadBufferBytes + 1, base.size() - 1}) {
        std::string changed = base;
        changed[at] = static_cast<char>(changed[at] ^ 0x01);
        writeFile(file, changed);
        EXPECT_NE(hashFileContents(file.string()), h) << "byte " << at;
    }
    // A trailing zero byte is content, not the last word's padding.
    writeFile(file, base + '\0');
    EXPECT_NE(hashFileContents(file.string()), h);
}

TEST(Cache, ColdLoadRecordsTheHashOfTheWholeFile)
{
    // A cold load reads its source once and hashes the bytes it
    // parses; the hash it records must be hashFileContents' over the
    // whole file (else every warm load would miss), including comment
    // lines after the last entry and a last entry without '\n'.
    fs::path dir = scratchDir("capstan_cache_one_read");
    std::vector<std::string> mtx_lines;
    std::vector<std::string> edge_lines;
    for (int k = 0; k < kStreamedEntries / 4; ++k) {
        sparse::Triplet t = streamedEntry(k);
        mtx_lines.push_back(std::to_string(t.row + 1) + " " +
                            std::to_string(t.col + 1) + " 1");
        edge_lines.push_back(std::to_string(t.row) + " " +
                             std::to_string(t.col));
    }
    std::string head = "%%MatrixMarket matrix coordinate real general\n"
                       "500 500 " +
                       std::to_string(mtx_lines.size()) + "\n";
    fs::path mtx = dir / "m.mtx";
    writeFile(mtx, streamedText(head, '%', 3, mtx_lines) +
                       "\n% trailing\n%\n\n% comments\n");
    fs::path edges = dir / "g.el";
    std::string edge_text = streamedText("", '#', 5, edge_lines);
    ASSERT_NE(edge_text.back(), '\n');
    writeFile(edges, edge_text);
    for (const fs::path &path : {mtx, edges}) {
        ASSERT_GT(fs::file_size(path), kReadBufferBytes);
        loadRealMatrix(path.string(), CacheMode::Force);
        std::ifstream in(matrixCachePath(path.string()), std::ios::binary);
        char header[32] = {};
        ASSERT_TRUE(in.read(header, sizeof(header)));
        std::uint64_t src_hash = 0; // After magic, size and mtime.
        std::memcpy(&src_hash, header + 24, sizeof(src_hash));
        EXPECT_EQ(src_hash, hashFileContents(path.string())) << path;
    }
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
    EXPECT_EQ(d.matrix.rows(), 64);
    EXPECT_EQ(d.matrix.nnz(), 128);
    EXPECT_EQ(d.source, fixture("tiny.mtx"));

    auto g = resolveMatrixDataset("file:" + fixture("tiny.el"));
    EXPECT_EQ(g.matrix.rows(), 64);
    EXPECT_EQ(g.matrix.nnz(), 128);

    auto s = resolveMatrixDataset("file:" + fixture("tiny_sym.mtx"));
    EXPECT_EQ(s.matrix.rows(), 16);
    EXPECT_EQ(s.matrix.nnz(), 46); // 16 diagonal + 2 * 15 mirrored.
    EXPECT_FLOAT_EQ(s.matrix.at(0, 1), 1.0f);
}

TEST(Resolve, RelativeFileAndMtxSchemesUseTheDatasetDir)
{
    fs::path dir = scratchDir("capstan_resolve_dir");
    writeFile(dir / "demo.mtx", kTinyGeneral);

    auto rel = resolveMatrixDataset("file:demo.mtx", 1.0, dir.string());
    EXPECT_EQ(rel.matrix.nnz(), 5);

    auto named = resolveMatrixDataset("mtx:demo", 1.0, dir.string());
    EXPECT_EQ(named.matrix.nnz(), 5);
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
    EXPECT_EQ(real.matrix.rows(), 3);
    EXPECT_FALSE(real.source.empty());

    // Absent: the synthetic stand-in at the requested scale.
    auto synth = resolveMatrixDataset("bcsstk30", 0.05, dir.string());
    EXPECT_TRUE(synth.source.empty());
    auto direct = loadMatrixDataset("bcsstk30", 0.05);
    EXPECT_EQ(synth.matrix.rows(), direct.matrix.rows());
    EXPECT_EQ(synth.matrix.nnz(), direct.matrix.nnz());

    // No dataset dir at all: always synthetic.
    auto plain = resolveMatrixDataset("bcsstk30", 0.05);
    EXPECT_TRUE(plain.source.empty());
    EXPECT_EQ(plain.matrix.nnz(), direct.matrix.nnz());

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
    for (double scale : {0.0125, 0.01251, 0.012475}) {
        EXPECT_EQ(loadMatrixDataset("Trefethen_20000", scale).matrix.rows(),
                  250)
            << scale;
    }
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
