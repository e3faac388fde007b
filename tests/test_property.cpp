/**
 * @file
 * Seeded property tests for the structures the simulator leans on
 * hardest: common::RingQueue (checked against a std::deque model under
 * random operation streams, front and indexed reads alike), the
 * compressed sparse codec (random round trips plus
 * truncation/bit-flip fuzz of the encoded buffers and the .cbin
 * cache, which must reject corruption with a clean error, never crash
 * or overread — the suite runs under ASan/UBSan in CI to enforce the
 * "never overread" half), and the Matrix Market and edge-list text
 * readers (every truncation and seeded byte mutations of small valid
 * files must parse or be rejected with DatasetError).
 *
 * Every stream is generated from a fixed seed list, so a failure
 * reproduces deterministically; the seeds are printed in the failure
 * message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/ring.hpp"
#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"
#include "workloads/io.hpp"

namespace {

using namespace capstan;

// ---------------------------------------------------------------------------
// RingQueue vs. a std::deque model.
// ---------------------------------------------------------------------------

/** Element with a heap buffer, to exercise slot reuse across pops. */
struct Payload
{
    int tag = 0;
    std::vector<int> data;
};

void
ringModelRound(std::uint32_t seed, int ops)
{
    std::mt19937 rng(seed);
    std::mt19937 pick(seed + 1); // Indexed reads; keeps rng's op stream.
    common::RingQueue<Payload> ring;
    std::deque<Payload> model;

    for (int op = 0; op < ops; ++op) {
        // Bias toward pushes so the queue grows through several
        // capacity doublings, then drains.
        int action = static_cast<int>(rng() % 100);
        if (action < 55) {
            Payload p;
            p.tag = static_cast<int>(rng() % 100000);
            p.data.assign(rng() % 8, p.tag);
            ring.push_back(p);
            model.push_back(std::move(p));
        } else if (action < 95) {
            if (!model.empty()) {
                ASSERT_FALSE(ring.empty()) << "seed " << seed;
                ASSERT_EQ(ring.front().tag, model.front().tag)
                    << "seed " << seed << " op " << op;
                ASSERT_EQ(ring.front().data, model.front().data)
                    << "seed " << seed << " op " << op;
                ring.pop_front();
                model.pop_front();
            }
        } else if (action < 97) {
            ring.clear();
            model.clear();
        }
        ASSERT_EQ(ring.size(), model.size())
            << "seed " << seed << " op " << op;
        ASSERT_EQ(ring.empty(), model.empty());
        if (!model.empty()) {
            ASSERT_EQ(ring.front().tag, model.front().tag);
            // Indexed access sees the same element as the model.
            std::size_t i = pick() % model.size();
            ASSERT_EQ(ring[i].tag, model[i].tag)
                << "seed " << seed << " op " << op << " index " << i;
            ASSERT_EQ(ring[i].data, model[i].data)
                << "seed " << seed << " op " << op << " index " << i;
        }
    }
    // Drain: remaining contents must match the model in FIFO order.
    while (!model.empty()) {
        ASSERT_FALSE(ring.empty());
        EXPECT_EQ(ring.front().tag, model.front().tag);
        EXPECT_EQ(ring.front().data, model.front().data);
        ring.pop_front();
        model.pop_front();
    }
    EXPECT_TRUE(ring.empty());
}

TEST(RingQueueProperty, MatchesDequeModelUnderRandomStreams)
{
    for (std::uint32_t seed : {1u, 7u, 42u, 1337u, 0xC0FFEEu})
        ringModelRound(seed, 20000);
}

TEST(RingQueueProperty, GrowthRelinearizesAcrossWrap)
{
    // Force head/tail to wrap before growth: push/pop cycles move the
    // window deep into the free-running counters, then a burst grows
    // the array while the live range straddles the wrap point.
    common::RingQueue<int> ring;
    std::deque<int> model;
    int next = 0;
    for (int round = 0; round < 50; ++round) {
        for (int i = 0; i < 13; ++i) {
            ring.push_back(next);
            model.push_back(next);
            ++next;
        }
        for (int i = 0; i < 9; ++i) {
            ASSERT_EQ(ring.front(), model.front());
            ring.pop_front();
            model.pop_front();
        }
    }
    while (!model.empty()) {
        ASSERT_EQ(ring.front(), model.front());
        ring.pop_front();
        model.pop_front();
    }
}

// ---------------------------------------------------------------------------
// Compressed sparse codec: round trips and corruption fuzz.
// ---------------------------------------------------------------------------

sparse::CsrMatrix
randomCsr(std::mt19937 &rng)
{
    // Mix shapes: narrow/wide, sparse/denser, with occasional rows
    // long enough to need skip points (> kSkipInterval entries).
    Index rows = 1 + static_cast<Index>(rng() % 40);
    Index cols = 1 + static_cast<Index>(rng() % 3000);
    std::vector<sparse::Triplet> t;
    for (Index r = 0; r < rows; ++r) {
        unsigned n = rng() % 12;
        if (rng() % 8 == 0)
            n = 70 + rng() % 80; // A skip-pointed row.
        for (unsigned i = 0; i < n; ++i) {
            t.push_back({r,
                         static_cast<Index>(
                             rng() % static_cast<unsigned>(cols)),
                         static_cast<Value>(rng() % 256) - 127.5f});
        }
    }
    return sparse::CsrMatrix::fromTriplets(rows, cols, std::move(t));
}

TEST(CompressedProperty, RandomRoundTripsAreByteExact)
{
    for (std::uint32_t seed : {1u, 7u, 42u, 1337u, 0xC0FFEEu}) {
        std::mt19937 rng(seed);
        for (int round = 0; round < 8; ++round) {
            sparse::CsrMatrix m = randomCsr(rng);
            auto c = sparse::CompressedCsrMatrix::fromCsr(m);
            sparse::CsrMatrix back = c.toCsr();
            ASSERT_EQ(back.rowPtr(), m.rowPtr())
                << "seed " << seed << " round " << round;
            ASSERT_EQ(back.colIdx(), m.colIdx())
                << "seed " << seed << " round " << round;
            ASSERT_EQ(back.values(), m.values())
                << "seed " << seed << " round " << round;
            EXPECT_EQ(c.encodedBytes(),
                      sparse::CompressedCsrMatrix::measureEncodedBytes(m));
        }
    }
}

TEST(CompressedProperty, TruncatedPartsAreRejected)
{
    std::mt19937 rng(42);
    sparse::CsrMatrix m = randomCsr(rng);
    auto c = sparse::CompressedCsrMatrix::fromCsr(m);
    const auto &off = c.entryOffsets();
    const auto &pay = c.encodedPayload();
    const auto &val = c.flatValues();
    ASSERT_FALSE(pay.empty());

    // Any strict prefix of the payload fails the validating decode.
    for (std::size_t len = 0; len < pay.size();
         len += 1 + pay.size() / 37) {
        std::vector<std::uint8_t> cut(pay.begin(),
                                      pay.begin() +
                                          static_cast<std::ptrdiff_t>(len));
        EXPECT_THROW(sparse::CompressedCsrMatrix::fromParts(
                         m.rows(), m.cols(), off, std::move(cut), val),
                     std::invalid_argument)
            << "payload truncated to " << len;
    }
    // Short offset and value arrays are structural violations too.
    EXPECT_THROW(sparse::CompressedCsrMatrix::fromParts(
                     m.rows(), m.cols(),
                     std::vector<Index>(off.begin(),
                                                off.end() - 1),
                     pay, val),
                 std::invalid_argument);
    EXPECT_THROW(sparse::CompressedCsrMatrix::fromParts(
                     m.rows(), m.cols(), off, pay,
                     std::vector<Value>(val.begin(), val.end() - 1)),
                 std::invalid_argument);
}

TEST(CompressedProperty, BitFlippedPayloadNeverCrashesOrOverreads)
{
    // Flipping any payload bit must either be caught by the
    // validating decode (std::invalid_argument) or yield a different
    // but structurally valid matrix. Under ASan this also proves no
    // flip can make the decoder read outside its buffers.
    std::mt19937 rng(7);
    sparse::CsrMatrix m = randomCsr(rng);
    auto c = sparse::CompressedCsrMatrix::fromCsr(m);
    const auto &pay = c.encodedPayload();
    for (std::size_t byte = 0; byte < pay.size();
         byte += 1 + pay.size() / 211) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<std::uint8_t> mutated = pay;
            mutated[byte] ^= static_cast<std::uint8_t>(1u << bit);
            try {
                auto parsed = sparse::CompressedCsrMatrix::fromParts(
                    m.rows(), m.cols(), c.entryOffsets(),
                    std::move(mutated), c.flatValues());
                // Accepted: the decode walk already validated order
                // and range; the shape must still line up.
                EXPECT_EQ(parsed.rows(), m.rows());
                EXPECT_EQ(parsed.nnz(), m.nnz());
            } catch (const std::invalid_argument &) {
                // Rejected cleanly: equally fine.
            }
        }
    }
}

// ---------------------------------------------------------------------------
// .cbin cache fuzz: truncations and bit flips through the strict
// reader (the entry point loadRealStore trusts).
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

/** Write a source matrix and return its freshly written cache. */
std::string
writeCacheFile(const fs::path &dir)
{
    fs::path mtx = dir / "fuzz.mtx";
    {
        std::ofstream out(mtx, std::ios::binary);
        out << "%%MatrixMarket matrix coordinate real general\n"
               "6 6 8\n"
               "1 1 1.0\n1 4 2.0\n2 2 3.0\n3 1 4.0\n3 5 5.0\n"
               "4 6 6.0\n5 3 7.0\n6 6 8.0\n";
    }
    workloads::loadRealMatrix(mtx.string(), workloads::CacheMode::Force);
    std::string cache = workloads::matrixCachePath(mtx.string());
    EXPECT_TRUE(fs::exists(cache));
    return cache;
}

std::vector<char>
readBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

void
writeBytes(const std::string &path, const std::vector<char> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

TEST(CacheFuzzProperty, EveryTruncationOfTheV2CacheIsRejected)
{
    fs::path dir = fs::path(::testing::TempDir()) / "capstan_v2_trunc";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string cache = writeCacheFile(dir);
    std::vector<char> bytes = readBytes(cache);
    ASSERT_GT(bytes.size(), 64u);

    std::string cut = (dir / "cut.cbin").string();
    for (std::size_t len = 0; len < bytes.size(); ++len) {
        writeBytes(cut, {bytes.begin(),
                         bytes.begin() +
                             static_cast<std::ptrdiff_t>(len)});
        EXPECT_THROW(workloads::readCompressedCache(cut),
                     workloads::DatasetError)
            << "truncated to " << len << " of " << bytes.size();
    }
    // Trailing garbage is equally not our file.
    std::vector<char> padded = bytes;
    padded.push_back('\0');
    writeBytes(cut, padded);
    EXPECT_THROW(workloads::readCompressedCache(cut),
                 workloads::DatasetError);
}

TEST(CacheFuzzProperty, EveryBitFlipIsRejectedOrDecodesTheOriginal)
{
    // The strict reader checks structure, exact size, and a body
    // checksum — but not source freshness, so a flip confined to the
    // header's freshness fields (src_size/mtime/hash) passes and must
    // then decode to the original matrix; any flip that changes the
    // arrays is caught. Either way: never a crash, never an overread.
    fs::path dir = fs::path(::testing::TempDir()) / "capstan_v2_flip";
    fs::remove_all(dir);
    fs::create_directories(dir);
    std::string cache = writeCacheFile(dir);
    std::vector<char> bytes = readBytes(cache);
    sparse::CsrMatrix original =
        workloads::readCompressedCache(cache).toCsr();

    std::string flipped = (dir / "flip.cbin").string();
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::vector<char> mutated = bytes;
            mutated[byte] =
                static_cast<char>(mutated[byte] ^ (1 << bit));
            writeBytes(flipped, mutated);
            try {
                sparse::CsrMatrix got =
                    workloads::readCompressedCache(flipped).toCsr();
                EXPECT_EQ(got.rowPtr(), original.rowPtr())
                    << "byte " << byte << " bit " << bit;
                EXPECT_EQ(got.colIdx(), original.colIdx())
                    << "byte " << byte << " bit " << bit;
                EXPECT_EQ(got.values(), original.values())
                    << "byte " << byte << " bit " << bit;
            } catch (const workloads::DatasetError &) {
                // Rejected cleanly: the common outcome.
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Text reader fuzz: every truncation and seeded byte mutations of small
// valid Matrix Market (coordinate and array) and edge-list files.
// ---------------------------------------------------------------------------

struct TextCase
{
    const char *name;
    bool mtx; //!< Matrix Market; otherwise an edge list.
    const char *text;
};

// CRLF and LF lines, comments, blank lines, and a last line without
// '\n'. Short lines keep mutated numbers small: a mutation that joins
// lines still cannot spell a dimension near kMaxDim.
const TextCase kTextCases[] = {
    {"coordinate", true,
     "%%MatrixMarket matrix coordinate real symmetric\r\n"
     "% comment\n"
     "6 6 7\n"
     "1 1 1.0\n2 1 -2.5e1\n\n3 2 3\r\n4 4 4.0\n5 3 0.5\n"
     "6 1 6\n6 6 8.0"},
    {"array", true,
     "%%MatrixMarket matrix array real general\n"
     "% comment\r\n"
     "3 2\n"
     "1.0\n0\n-2.5\r\n\n4e0\n0.0\n6\n"},
    {"edge list", false,
     "# SNAP\n0 1\n1 2 0.5\r\n\n% comment\n2 3\n3 0 2\n4 1"},
};

/** Parse @p text; only a matrix or a DatasetError is acceptable. */
void
expectParsesOrRejects(const TextCase &c, const std::string &text,
                      const std::string &what)
{
    std::istringstream in(text);
    try {
        if (c.mtx)
            workloads::readMatrixMarket(in, "fuzz.mtx");
        else
            workloads::readEdgeList(in, "fuzz.el");
    } catch (const workloads::DatasetError &) {
        // Rejected cleanly.
    } catch (const std::exception &e) {
        ADD_FAILURE() << c.name << ", " << what << ": " << e.what();
    }
}

TEST(ReaderFuzzProperty, EveryTruncationParsesOrIsRejected)
{
    for (const TextCase &c : kTextCases) {
        std::istringstream whole(c.text);
        EXPECT_NO_THROW(c.mtx ? workloads::readMatrixMarket(whole, "f")
                              : workloads::readEdgeList(whole, "f"))
            << c.name;
        std::string text = c.text;
        for (std::size_t len = 0; len < text.size(); ++len)
            expectParsesOrRejects(c, text.substr(0, len),
                                  "truncated to " + std::to_string(len));
    }
}

TEST(ReaderFuzzProperty, SeededByteMutationsParseOrAreRejected)
{
    // Half the replacement bytes are uniform; half come from the
    // characters the grammar turns on.
    const std::string syntax = " \t\r\n%#.-+eE0123456789";
    for (const TextCase &c : kTextCases) {
        for (std::uint32_t seed : {1u, 7u, 42u, 1337u, 0xC0FFEEu}) {
            std::mt19937 rng(seed);
            for (int round = 0; round < 200; ++round) {
                std::string text = c.text;
                int edits = 1 + static_cast<int>(rng() % 3);
                for (int e = 0; e < edits; ++e) {
                    std::size_t at = rng() % text.size();
                    text[at] = rng() % 2
                                   ? static_cast<char>(rng() % 256)
                                   : syntax[rng() % syntax.size()];
                }
                expectParsesOrRejects(c, text,
                                      "seed " + std::to_string(seed) +
                                          " round " +
                                          std::to_string(round));
            }
        }
    }
}

} // namespace
