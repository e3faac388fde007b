#include "workloads/io.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <string_view>
#include <system_error>
#include <vector>

#include "common/check.hpp"

namespace capstan::workloads {

using sparse::CsrMatrix;
using sparse::Triplet;

namespace {

namespace fs = std::filesystem;

/**
 * Text files smaller than this are cheap to re-parse, so CacheMode::
 * Auto does not write a cache for them (it still reads one if some
 * earlier Force run left it behind).
 */
constexpr std::uintmax_t kAutoCacheBytes = 4u << 20;

/**
 * Largest matrix dimension a dataset file may declare. Dimensions are
 * untrusted input and a CSR matrix allocates rows + 1 pointers up
 * front, so an absurd header (a 60-byte file declaring 2e9 rows)
 * would otherwise turn into a multi-GB allocation instead of a usage
 * error. 2^27 (~134M) is far above every Table 6 input while keeping
 * the worst-case pointer array around 0.5 GB.
 */
constexpr long long kMaxDim = 1LL << 27;

[[noreturn]] void
fail(const std::string &what, std::size_t line, const std::string &why)
{
    throw DatasetError(what + ":" + std::to_string(line) + ": " + why);
}

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Whitespace as std::isspace reads it in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

/**
 * A 64-bit hash taken eight bytes at a time. Each word w steps the
 * state h to rotl((h ^ w) * K, 31), and the digest folds in the byte
 * count and a final avalanche; every one of these steps is a bijection
 * of the state, so two inputs of the same length that differ in one
 * word always hash differently. Bytes that do not fill a word wait in
 * tail_ for the next update(), so the digest does not depend on how
 * the input is split across calls; a last partial word is zero-padded.
 */
class WordHash
{
  public:
    void update(const void *data, std::size_t n)
    {
        if (n == 0)
            return; // An empty vector's data() may be null.
        const auto *p = static_cast<const unsigned char *>(data);
        std::size_t have = static_cast<std::size_t>(bytes_ % 8);
        bytes_ += n;
        if (have > 0) {
            std::size_t take = std::min(8 - have, n);
            std::memcpy(tail_ + have, p, take);
            p += take;
            n -= take;
            if (have + take < 8)
                return;
            h_ = step(h_, load(tail_));
        }
        for (; n >= 8; p += 8, n -= 8)
            h_ = step(h_, load(p));
        std::memcpy(tail_, p, n);
    }

    std::uint64_t digest() const
    {
        std::uint64_t h = h_;
        if (std::size_t have = static_cast<std::size_t>(bytes_ % 8)) {
            unsigned char last[8] = {};
            std::memcpy(last, tail_, have);
            h = step(h, load(last));
        }
        // MurmurHash3's 64-bit finalizer (fmix64).
        h ^= bytes_;
        h ^= h >> 33;
        h *= 0xFF51AFD7ED558CCDULL;
        h ^= h >> 33;
        h *= 0xC4CEB9FE1A85EC53ULL;
        h ^= h >> 33;
        return h;
    }

  private:
    static std::uint64_t load(const unsigned char *p)
    {
        std::uint64_t w;
        std::memcpy(&w, p, sizeof(w));
        return w;
    }

    static std::uint64_t step(std::uint64_t h, std::uint64_t w)
    {
        return std::rotl((h ^ w) * 0x9E3779B97F4A7C15ULL, 31);
    }

    std::uint64_t h_ = 0x243F6A8885A308D3ULL;
    std::uint64_t bytes_ = 0;
    unsigned char tail_[8] = {};
};

/**
 * The text readers' view of a stream: one line at a time through a
 * fixed read buffer, each line split into whitespace-separated tokens.
 *
 * Lines end where std::getline ends them: before a '\n', with a last
 * line that lacks one still counted, and a trailing '\r' is dropped
 * (CRLF tolerance). Only a partial line carries over from one read to
 * the next, so the reader holds kReadBufferBytes however long the
 * file is; the buffer grows (doubling) only to fit a longer line.
 * lineNo() is the physical line number of the current line. Given a
 * WordHash, the cursor feeds it every byte it reads, so a reader that
 * runs to the end of input has hashed exactly the bytes it parsed.
 */
class LineCursor
{
  public:
    /** Tokens split() keeps: the most any line needs (the header's). */
    static constexpr std::size_t kMaxTokens = 5;

    explicit LineCursor(std::istream &in, WordHash *hash = nullptr)
        : in_(in), buf_(kReadBufferBytes), hash_(hash)
    {
    }

    /** Move to the next physical line; false at end of input. */
    bool next()
    {
        const char *nl;
        while (!(nl = static_cast<const char *>(std::memchr(
                     buf_.data() + pos_, '\n', end_ - pos_)))) {
            if (!refill()) {
                if (pos_ == end_)
                    return false;
                nl = buf_.data() + end_; // A last line without '\n'.
                break;
            }
        }
        const char *first = buf_.data() + pos_;
        std::size_t len = static_cast<std::size_t>(nl - first);
        pos_ = std::min(pos_ + len + 1, end_);
        if (len > 0 && first[len - 1] == '\r')
            --len;
        line_ = {first, len};
        ++line_no_;
        return true;
    }

    /**
     * Move to the next line that is neither blank (spaces and tabs
     * only) nor a comment (its first character after any spaces and
     * tabs is in @p comment_chars); false at end of input. A NUL there
     * starts a data line, which the caller then rejects.
     */
    bool nextData(std::string_view comment_chars)
    {
        while (next()) {
            std::size_t i = line_.find_first_not_of(" \t");
            if (i != std::string_view::npos &&
                comment_chars.find(line_[i]) == std::string_view::npos)
                return true;
        }
        return false;
    }

    /**
     * Split the current line at whitespace. Returns the token count;
     * only the first kMaxTokens are kept for token().
     */
    std::size_t split()
    {
        const char *p = line_.data();
        const char *end = p + line_.size();
        std::size_t n = 0;
        for (;;) {
            while (p != end && isSpace(*p))
                ++p;
            if (p == end)
                return n;
            const char *start = p;
            while (p != end && !isSpace(*p))
                ++p;
            if (n < kMaxTokens)
                tokens_[n] = {start, static_cast<std::size_t>(p - start)};
            ++n;
        }
    }

    std::string_view token(std::size_t i) const { return tokens_[i]; }
    std::string_view line() const { return line_; }
    std::size_t lineNo() const { return line_no_; }

  private:
    /**
     * Move the unread tail to the front of the buffer (doubling the
     * buffer when the tail fills it) and read after it. False once the
     * stream has nothing more to give.
     */
    bool refill()
    {
        std::size_t tail = end_ - pos_;
        if (tail == buf_.size())
            buf_.resize(2 * buf_.size());
        std::memmove(buf_.data(), buf_.data() + pos_, tail);
        pos_ = 0;
        end_ = tail;
        if (!in_)
            return false;
        in_.read(buf_.data() + end_,
                 static_cast<std::streamsize>(buf_.size() - end_));
        std::size_t got = static_cast<std::size_t>(in_.gcount());
        if (hash_)
            hash_->update(buf_.data() + end_, got);
        end_ += got;
        return got > 0;
    }

    std::istream &in_;
    std::vector<char> buf_;
    WordHash *hash_;
    std::size_t pos_ = 0; //!< First unread byte of buf_.
    std::size_t end_ = 0; //!< One past the last byte read into buf_.
    std::string_view line_;
    std::size_t line_no_ = 0;
    std::array<std::string_view, kMaxTokens> tokens_{};
};

bool
parseLong(std::string_view tok, long long &out)
{
    auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return ec == std::errc() && ptr == tok.data() + tok.size();
}

bool
parseDouble(std::string_view tok, double &out)
{
    auto [ptr, ec] =
        std::from_chars(tok.data(), tok.data() + tok.size(), out);
    return ec == std::errc() && ptr == tok.data() + tok.size();
}

Index
parseDim(std::string_view tok, const std::string &what,
         std::size_t line_no, const char *label)
{
    long long v = 0;
    if (!parseLong(tok, v) || v < 0 || v > kMaxDim)
        fail(what, line_no,
             std::string("invalid ") + label + " '" + std::string(tok) +
                 "'");
    return static_cast<Index>(v);
}

/** readMatrixMarket over @p cur, which it reads to the end on success. */
CsrMatrix
parseMatrixMarket(LineCursor &cur, const std::string &what)
{
    // Header: %%MatrixMarket object format field symmetry. It is a
    // comment line to every other tool, so read it raw (comments are
    // only skipped after the header).
    if (!cur.next())
        throw DatasetError(what + ": empty Matrix Market file");
    if (cur.split() < 5 ||
        lower(std::string(cur.token(0))) != "%%matrixmarket")
        fail(what, cur.lineNo(),
             "missing '%%MatrixMarket object format field symmetry' "
             "header");
    std::string object = lower(std::string(cur.token(1)));
    std::string format = lower(std::string(cur.token(2)));
    std::string field = lower(std::string(cur.token(3)));
    std::string symmetry = lower(std::string(cur.token(4)));
    if (object != "matrix")
        fail(what, cur.lineNo(), "unsupported object '" + object + "'");
    bool coordinate = format == "coordinate";
    if (!coordinate && format != "array")
        fail(what, cur.lineNo(), "unsupported format '" + format + "'");
    bool pattern = field == "pattern";
    bool complex_field = field == "complex";
    if (!pattern && !complex_field && field != "real" &&
        field != "integer")
        fail(what, cur.lineNo(),
             "unsupported field '" + field +
                 "' (real, integer, complex, or pattern)");
    bool symmetric = symmetry == "symmetric" || symmetry == "hermitian";
    bool skew = symmetry == "skew-symmetric";
    if (!symmetric && !skew && symmetry != "general")
        fail(what, cur.lineNo(),
             "unsupported symmetry '" + symmetry + "'");
    if (pattern && !coordinate)
        fail(what, cur.lineNo(), "array format cannot be pattern");

    if (!cur.nextData("%"))
        fail(what, cur.lineNo(), "missing size line");
    if (cur.split() != (coordinate ? 3u : 2u))
        fail(what, cur.lineNo(),
             coordinate ? "size line must be 'rows cols nnz'"
                        : "size line must be 'rows cols'");
    Index rows = parseDim(cur.token(0), what, cur.lineNo(), "row count");
    Index cols =
        parseDim(cur.token(1), what, cur.lineNo(), "column count");

    std::vector<Triplet> triplets;
    auto addEntry = [&](Index r, Index c, double v) {
        triplets.push_back({r, c, static_cast<Value>(v)});
        if (r != c && (symmetric || skew))
            triplets.push_back({c, r, static_cast<Value>(skew ? -v : v)});
    };

    if (coordinate) {
        long long nnz = 0;
        if (!parseLong(cur.token(2), nnz) || nnz < 0 ||
            nnz > std::numeric_limits<Index>::max())
            fail(what, cur.lineNo(),
                 "invalid entry count '" + std::string(cur.token(2)) +
                     "'");
        // The declared count is untrusted: cap the speculative
        // reserve so a malformed size line cannot trigger bad_alloc
        // before the per-entry "expected N entries" check fires.
        constexpr std::size_t kReserveCap = std::size_t{1} << 22;
        triplets.reserve(std::min(
            static_cast<std::size_t>(nnz) *
                (symmetric || skew ? 2 : 1),
            kReserveCap));
        std::size_t want = pattern ? 2u : complex_field ? 4u : 3u;
        for (long long e = 0; e < nnz; ++e) {
            if (!cur.nextData("%"))
                fail(what, cur.lineNo(),
                     "expected " + std::to_string(nnz) +
                         " entries, got " + std::to_string(e));
            if (cur.split() != want)
                fail(what, cur.lineNo(),
                     pattern
                         ? "pattern entry must be 'row col'"
                         : complex_field
                               ? "complex entry must be 'row col "
                                 "real imag'"
                               : "entry must be 'row col value'");
            long long r = 0, c = 0;
            if (!parseLong(cur.token(0), r) || !parseLong(cur.token(1), c))
                fail(what, cur.lineNo(),
                     "invalid index in '" + std::string(cur.line()) +
                         "'");
            if (r < 1 || r > rows || c < 1 || c > cols)
                fail(what, cur.lineNo(),
                     "1-based index (" + std::to_string(r) + ", " +
                         std::to_string(c) + ") outside " +
                         std::to_string(rows) + "x" +
                         std::to_string(cols));
            double v = 1.0; // Pattern matrices carry unit values.
            if (!pattern && !parseDouble(cur.token(2), v))
                fail(what, cur.lineNo(),
                     "invalid value '" + std::string(cur.token(2)) + "'");
            addEntry(static_cast<Index>(r - 1),
                     static_cast<Index>(c - 1), v);
        }
    } else {
        // Array format: dense column-major values; symmetric inputs
        // store the lower triangle (diagonal included) only.
        for (Index c = 0; c < cols; ++c) {
            for (Index r = (symmetric || skew) ? c : 0; r < rows; ++r) {
                if (skew && r == c)
                    continue; // Skew diagonals are implicit zeros.
                if (!cur.nextData("%"))
                    fail(what, cur.lineNo(), "truncated array data");
                double v = 0;
                if (cur.split() != (complex_field ? 2u : 1u) ||
                    !parseDouble(cur.token(0), v))
                    fail(what, cur.lineNo(),
                         complex_field
                             ? "complex array entries must be 'real "
                               "imag' per line"
                             : "array entries must be one value per "
                               "line");
                if (v != 0.0)
                    addEntry(r, c, v);
            }
        }
    }
    if (cur.nextData("%"))
        fail(what, cur.lineNo(), "trailing data after the last entry");
    return CsrMatrix::fromTriplets(rows, cols, std::move(triplets));
}

/** readEdgeList over @p cur, which it reads to the end on success. */
CsrMatrix
parseEdgeList(LineCursor &cur, const std::string &what)
{
    std::vector<Triplet> triplets;
    long long max_id = -1;
    while (cur.nextData("#%")) {
        std::size_t n = cur.split();
        if (n != 2 && n != 3)
            fail(what, cur.lineNo(),
                 "edge must be 'src dst' or 'src dst weight'");
        long long src = 0, dst = 0;
        if (!parseLong(cur.token(0), src) || !parseLong(cur.token(1), dst))
            fail(what, cur.lineNo(),
                 "invalid node id in '" + std::string(cur.line()) + "'");
        if (src < 0 || dst < 0 || src >= kMaxDim || dst >= kMaxDim)
            fail(what, cur.lineNo(),
                 "node id out of range in '" + std::string(cur.line()) +
                     "'");
        double w = 1.0;
        if (n == 3 && !parseDouble(cur.token(2), w))
            fail(what, cur.lineNo(),
                 "invalid edge weight '" + std::string(cur.token(2)) +
                     "'");
        max_id = std::max({max_id, src, dst});
        triplets.push_back({static_cast<Index>(src),
                            static_cast<Index>(dst),
                            static_cast<Value>(w)});
    }
    if (triplets.empty())
        throw DatasetError(what + ": edge list has no edges");
    Index n = static_cast<Index>(max_id + 1);
    return CsrMatrix::fromTriplets(n, n, std::move(triplets));
}

} // namespace

CsrMatrix
readMatrixMarket(std::istream &in, const std::string &what)
{
    LineCursor cur(in);
    return parseMatrixMarket(cur, what);
}

CsrMatrix
readEdgeList(std::istream &in, const std::string &what)
{
    LineCursor cur(in);
    return parseEdgeList(cur, what);
}

// ---------------------------------------------------------------------------
// Binary cache
// ---------------------------------------------------------------------------

namespace {

/** Size + mtime identity of the source file the cache memoizes. */
bool
sourceStamp(const std::string &path, std::uint64_t &size,
            std::int64_t &mtime)
{
    std::error_code ec;
    auto sz = fs::file_size(path, ec);
    if (ec)
        return false;
    auto tm = fs::last_write_time(path, ec);
    if (ec)
        return false;
    size = static_cast<std::uint64_t>(sz);
    mtime = static_cast<std::int64_t>(
        tm.time_since_epoch().count());
    return true;
}

/**
 * Cache layout (v3): header, then entry_offsets (rows + 1 Index), the
 * encoded column payload (payload_bytes), and values (nnz Value),
 * host-endian (the cache is a local memoization, not an interchange
 * format). src_hash folds the *content* of the source file into the
 * cache key (size + mtime alone miss a same-size rewrite); body_hash
 * checksums the three array regions so a bit flip anywhere in the body
 * is detected even when it would decode cleanly. Both are WordHash
 * values. Any other magic, including v2 (the same layout under a
 * byte-wise FNV-1a hash) and the retired v1 plain-CSR layout, is a
 * miss: the text is re-parsed and the cache rewritten.
 */
struct CacheHeader
{
    char magic[8];
    std::uint64_t src_size = 0;
    std::int64_t src_mtime = 0;
    std::uint64_t src_hash = 0;
    std::uint64_t body_hash = 0;
    std::int32_t rows = 0;
    std::int32_t cols = 0;
    std::uint64_t nnz = 0;
    std::uint64_t payload_bytes = 0;
};

constexpr char kCacheMagic[8] = {'C', 'A', 'P', 'C', 'S', 'R', 'v', '3'};

/** The cache body's checksum: its three arrays, in file order. */
std::uint64_t
bodyHash(const std::vector<Index> &entry_offsets,
         const std::vector<std::uint8_t> &payload,
         const std::vector<Value> &values)
{
    WordHash h;
    h.update(entry_offsets.data(),
             entry_offsets.size() * sizeof(entry_offsets[0]));
    h.update(payload.data(), payload.size());
    h.update(values.data(), values.size() * sizeof(values[0]));
    return h.digest();
}

/**
 * Fresh-cache read: magic + size/mtime stamp, then the source content
 * hash, then the strict structural read. false = re-parse the text.
 */
bool
readFreshCache(const std::string &cache_path, const std::string &path,
               std::uint64_t src_size, std::int64_t src_mtime,
               sparse::CompressedCsrMatrix &out)
{
    CacheHeader h;
    {
        std::ifstream in(cache_path, std::ios::binary);
        if (!in || !in.read(reinterpret_cast<char *>(&h), sizeof(h)))
            return false;
    }
    if (std::memcmp(h.magic, kCacheMagic, sizeof(kCacheMagic)) != 0 ||
        h.src_size != src_size || h.src_mtime != src_mtime)
        return false;
    try {
        if (hashFileContents(path) != h.src_hash)
            return false; // Same stamp, different bytes: re-parse.
        out = readCompressedCache(cache_path);
    } catch (const DatasetError &) {
        return false; // Corrupt cache: rebuild from the text.
    }
    return true;
}

/** Best-effort cache write (atomic rename); failures are ignored. */
void
writeCache(const std::string &cache_path, std::uint64_t src_size,
           std::int64_t src_mtime, std::uint64_t src_hash,
           const sparse::CompressedCsrMatrix &m)
{
    std::string tmp = cache_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        CacheHeader h;
        std::memcpy(h.magic, kCacheMagic, sizeof(kCacheMagic));
        h.src_size = src_size;
        h.src_mtime = src_mtime;
        h.src_hash = src_hash;
        h.body_hash = bodyHash(m.entryOffsets(), m.encodedPayload(),
                               m.flatValues());
        h.rows = m.rows();
        h.cols = m.cols();
        h.nnz = static_cast<std::uint64_t>(m.nnz());
        h.payload_bytes =
            static_cast<std::uint64_t>(m.encodedPayload().size());
        auto writeVec = [&](const auto &vec) {
            out.write(reinterpret_cast<const char *>(vec.data()),
                      static_cast<std::streamsize>(vec.size() *
                                                   sizeof(vec[0])));
        };
        out.write(reinterpret_cast<const char *>(&h), sizeof(h));
        writeVec(m.entryOffsets());
        writeVec(m.encodedPayload());
        writeVec(m.flatValues());
        if (!out)
            return;
    }
    std::error_code ec;
    fs::rename(tmp, cache_path, ec);
    if (ec)
        fs::remove(tmp, ec);
}

bool
isMatrixMarketPath(const std::string &path)
{
    auto dot = path.find_last_of('.');
    return dot != std::string::npos &&
           lower(path.substr(dot + 1)) == "mtx";
}

} // namespace

std::string
matrixCachePath(const std::string &path)
{
    return path + ".cbin";
}

std::uint64_t
hashFileContents(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw DatasetError("cannot open file for hashing: '" + path +
                           "'");
    WordHash h;
    char buf[kReadBufferBytes];
    while (in) {
        in.read(buf, sizeof(buf));
        h.update(buf, static_cast<std::size_t>(in.gcount()));
    }
    if (in.bad())
        throw DatasetError("read error while hashing '" + path + "'");
    return h.digest();
}

sparse::CompressedCsrMatrix
readCompressedCache(const std::string &cache_path)
{
    auto reject = [&](const std::string &why) -> DatasetError {
        return DatasetError("invalid compressed cache '" + cache_path +
                            "': " + why);
    };
    std::ifstream in(cache_path, std::ios::binary);
    if (!in)
        throw reject("cannot open file");
    CacheHeader h;
    if (!in.read(reinterpret_cast<char *>(&h), sizeof(h)))
        throw reject("truncated header");
    if (std::memcmp(h.magic, kCacheMagic, sizeof(kCacheMagic)) != 0)
        throw reject("bad magic");
    if (h.rows < 0 || h.cols < 0 ||
        h.nnz > static_cast<std::uint64_t>(
                    std::numeric_limits<Index>::max()) ||
        h.payload_bytes >
            std::numeric_limits<std::uint32_t>::max())
        throw reject("header counts out of range");
    // The header's counts are untrusted until they match the cache
    // file's actual size; checking first keeps a bit-flipped header
    // from triggering multi-GB allocations.
    std::error_code ec;
    auto cache_size = fs::file_size(cache_path, ec);
    std::uint64_t expected =
        sizeof(CacheHeader) +
        sizeof(Index) * (static_cast<std::uint64_t>(h.rows) + 1) +
        h.payload_bytes + sizeof(Value) * h.nnz;
    if (ec || static_cast<std::uint64_t>(cache_size) != expected)
        throw reject("file size does not match header");
    std::vector<Index> entry_offsets(
        static_cast<std::size_t>(h.rows) + 1);
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(h.payload_bytes));
    std::vector<Value> values(static_cast<std::size_t>(h.nnz));
    auto readVec = [&](auto &vec) {
        return static_cast<bool>(in.read(
            reinterpret_cast<char *>(vec.data()),
            static_cast<std::streamsize>(vec.size() *
                                         sizeof(vec[0]))));
    };
    if (!readVec(entry_offsets) || !readVec(payload) ||
        !readVec(values))
        throw reject("truncated body");
    if (in.get() != std::ifstream::traits_type::eof())
        throw reject("trailing bytes after the body");
    if (bodyHash(entry_offsets, payload, values) != h.body_hash)
        throw reject("body checksum mismatch");
    try {
        return sparse::CompressedCsrMatrix::fromParts(
            h.rows, h.cols, std::move(entry_offsets),
            std::move(payload), std::move(values));
    } catch (const std::invalid_argument &e) {
        throw reject(e.what());
    }
}

namespace {

/** Whether a parsed text file of @p src_size bytes gets cached. */
bool
shouldWriteCache(CacheMode mode, std::uint64_t src_size)
{
    return mode == CacheMode::Force ||
           (mode == CacheMode::Auto && src_size >= kAutoCacheBytes);
}

/**
 * Parse the text form of @p path (throws DatasetError on failure),
 * feeding @p hash the bytes parsed: both readers run to the end of
 * input, so on success it has hashed the whole file, the same bytes
 * hashFileContents would read.
 */
CsrMatrix
parseRealFile(const std::string &path, WordHash &hash)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw DatasetError("cannot open dataset file '" + path + "'");
    LineCursor cur(in, &hash);
    CsrMatrix m = isMatrixMarketPath(path) ? parseMatrixMarket(cur, path)
                                           : parseEdgeList(cur, path);
    CAPSTAN_DCHECK(in.eof());
    if (in.bad())
        throw DatasetError("read error in dataset file '" + path + "'");
    return m;
}

} // namespace

CsrMatrix
loadRealMatrix(const std::string &path, CacheMode mode)
{
    std::uint64_t src_size = 0;
    std::int64_t src_mtime = 0;
    if (!sourceStamp(path, src_size, src_mtime))
        throw DatasetError("cannot open dataset file '" + path + "'");

    std::string cache_path = matrixCachePath(path);
    if (mode != CacheMode::Off) {
        sparse::CompressedCsrMatrix comp;
        if (readFreshCache(cache_path, path, src_size, src_mtime, comp))
            return comp.toCsr();
    }

    // The source is read once: the cache records the hash of the very
    // bytes its matrix was parsed from, so a rewrite that lands during
    // the parse leaves a cache that misses instead of a stale one.
    WordHash src_hash;
    CsrMatrix m = parseRealFile(path, src_hash);
    if (shouldWriteCache(mode, src_size))
        writeCache(cache_path, src_size, src_mtime, src_hash.digest(),
                   sparse::CompressedCsrMatrix::fromCsr(m));
    return m;
}

sparse::MatrixStore
loadRealStore(const std::string &path, CacheMode mode)
{
    return loadRealMatrix(path, mode);
}

} // namespace capstan::workloads
