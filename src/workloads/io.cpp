#include "workloads/io.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <sstream>
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

/** Split a line into whitespace-separated tokens. */
std::vector<std::string_view>
tokenize(const std::string &line)
{
    std::vector<std::string_view> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        while (i < line.size() &&
               std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        std::size_t start = i;
        while (i < line.size() &&
               !std::isspace(static_cast<unsigned char>(line[i])))
            ++i;
        if (i > start)
            tokens.emplace_back(&line[start], i - start);
    }
    return tokens;
}

/**
 * Read the next non-blank, non-comment line into @p line, stripping a
 * trailing '\r' (CRLF tolerance). Lines starting with any character
 * in @p comment_chars are skipped. Returns false at end of input;
 * @p line_no tracks the physical line number for diagnostics.
 */
bool
nextDataLine(std::istream &in, std::string &line,
             const char *comment_chars, std::size_t &line_no)
{
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t i = line.find_first_not_of(" \t");
        if (i == std::string::npos)
            continue;
        if (std::strchr(comment_chars, line[i]))
            continue;
        return true;
    }
    return false;
}

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

} // namespace

CsrMatrix
readMatrixMarket(std::istream &in, const std::string &what)
{
    // Header: %%MatrixMarket object format field symmetry. It is a
    // comment line to every other tool, so read it raw (comments are
    // only skipped after the header).
    std::string line;
    std::size_t line_no = 1;
    if (!std::getline(in, line))
        throw DatasetError(what + ": empty Matrix Market file");
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
    auto header = tokenize(line);
    if (header.size() < 5 ||
        lower(std::string(header[0])) != "%%matrixmarket")
        fail(what, line_no,
             "missing '%%MatrixMarket object format field symmetry' "
             "header");
    std::string object = lower(std::string(header[1]));
    std::string format = lower(std::string(header[2]));
    std::string field = lower(std::string(header[3]));
    std::string symmetry = lower(std::string(header[4]));
    if (object != "matrix")
        fail(what, line_no, "unsupported object '" + object + "'");
    bool coordinate = format == "coordinate";
    if (!coordinate && format != "array")
        fail(what, line_no, "unsupported format '" + format + "'");
    bool pattern = field == "pattern";
    bool complex_field = field == "complex";
    if (!pattern && !complex_field && field != "real" &&
        field != "integer")
        fail(what, line_no,
             "unsupported field '" + field +
                 "' (real, integer, complex, or pattern)");
    bool symmetric = symmetry == "symmetric" || symmetry == "hermitian";
    bool skew = symmetry == "skew-symmetric";
    if (!symmetric && !skew && symmetry != "general")
        fail(what, line_no, "unsupported symmetry '" + symmetry + "'");
    if (pattern && !coordinate)
        fail(what, line_no, "array format cannot be pattern");

    if (!nextDataLine(in, line, "%", line_no))
        fail(what, line_no, "missing size line");
    auto size = tokenize(line);
    if (size.size() != (coordinate ? 3u : 2u))
        fail(what, line_no,
             coordinate ? "size line must be 'rows cols nnz'"
                        : "size line must be 'rows cols'");
    Index rows = parseDim(size[0], what, line_no, "row count");
    Index cols = parseDim(size[1], what, line_no, "column count");

    std::vector<Triplet> triplets;
    auto addEntry = [&](Index r, Index c, double v) {
        triplets.push_back({r, c, static_cast<Value>(v)});
        if (r != c && (symmetric || skew))
            triplets.push_back({c, r, static_cast<Value>(skew ? -v : v)});
    };

    if (coordinate) {
        long long nnz = 0;
        if (!parseLong(size[2], nnz) || nnz < 0 ||
            nnz > std::numeric_limits<Index>::max())
            fail(what, line_no,
                 "invalid entry count '" + std::string(size[2]) + "'");
        // The declared count is untrusted: cap the speculative
        // reserve so a malformed size line cannot trigger bad_alloc
        // before the per-entry "expected N entries" check fires.
        constexpr std::size_t kReserveCap = std::size_t{1} << 22;
        triplets.reserve(std::min(
            static_cast<std::size_t>(nnz) *
                (symmetric || skew ? 2 : 1),
            kReserveCap));
        for (long long e = 0; e < nnz; ++e) {
            if (!nextDataLine(in, line, "%", line_no))
                fail(what, line_no,
                     "expected " + std::to_string(nnz) +
                         " entries, got " + std::to_string(e));
            auto tok = tokenize(line);
            std::size_t want = pattern ? 2u : complex_field ? 4u : 3u;
            if (tok.size() != want)
                fail(what, line_no,
                     pattern
                         ? "pattern entry must be 'row col'"
                         : complex_field
                               ? "complex entry must be 'row col "
                                 "real imag'"
                               : "entry must be 'row col value'");
            long long r = 0, c = 0;
            if (!parseLong(tok[0], r) || !parseLong(tok[1], c))
                fail(what, line_no, "invalid index in '" + line + "'");
            if (r < 1 || r > rows || c < 1 || c > cols)
                fail(what, line_no,
                     "1-based index (" + std::to_string(r) + ", " +
                         std::to_string(c) + ") outside " +
                         std::to_string(rows) + "x" +
                         std::to_string(cols));
            double v = 1.0; // Pattern matrices carry unit values.
            if (!pattern && !parseDouble(tok[2], v))
                fail(what, line_no,
                     "invalid value '" + std::string(tok[2]) + "'");
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
                if (!nextDataLine(in, line, "%", line_no))
                    fail(what, line_no, "truncated array data");
                auto tok = tokenize(line);
                double v = 0;
                if (tok.size() != (complex_field ? 2u : 1u) ||
                    !parseDouble(tok[0], v))
                    fail(what, line_no,
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
    if (nextDataLine(in, line, "%", line_no))
        fail(what, line_no, "trailing data after the last entry");
    return CsrMatrix::fromTriplets(rows, cols, std::move(triplets));
}

CsrMatrix
readEdgeList(std::istream &in, const std::string &what)
{
    std::string line;
    std::size_t line_no = 0;
    std::vector<Triplet> triplets;
    long long max_id = -1;
    while (nextDataLine(in, line, "#%", line_no)) {
        auto tok = tokenize(line);
        if (tok.size() != 2 && tok.size() != 3)
            fail(what, line_no,
                 "edge must be 'src dst' or 'src dst weight'");
        long long src = 0, dst = 0;
        if (!parseLong(tok[0], src) || !parseLong(tok[1], dst))
            fail(what, line_no, "invalid node id in '" + line + "'");
        if (src < 0 || dst < 0 || src >= kMaxDim || dst >= kMaxDim)
            fail(what, line_no,
                 "node id out of range in '" + line + "'");
        double w = 1.0;
        if (tok.size() == 3 && !parseDouble(tok[2], w))
            fail(what, line_no,
                 "invalid edge weight '" + std::string(tok[2]) + "'");
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
 * Cache layout (v2): header, then entry_offsets (rows + 1 Index), the
 * encoded column payload (payload_bytes), and values (nnz Value),
 * host-endian (the cache is a local memoization, not an interchange
 * format). src_hash folds the *content* of the source file into the
 * cache key (size + mtime alone miss a same-size rewrite); body_hash
 * checksums the three array regions so a bit flip anywhere in the body
 * is detected even when it would decode cleanly. Any other magic,
 * including the retired v1 plain-CSR layout, is a miss: the text is
 * re-parsed and the cache rewritten.
 */
struct CacheHeaderV2
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

constexpr char kCacheMagicV2[8] = {'C', 'A', 'P', 'C',
                                   'S', 'R', 'v', '2'};

constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

std::uint64_t
bodyHash(const sparse::CompressedCsrMatrix &m)
{
    std::uint64_t h = kFnvOffset;
    const auto &off = m.entryOffsets();
    const auto &pay = m.encodedPayload();
    const auto &val = m.flatValues();
    h = fnv1a(h, off.data(), off.size() * sizeof(off[0]));
    h = fnv1a(h, pay.data(), pay.size());
    h = fnv1a(h, val.data(), val.size() * sizeof(val[0]));
    return h;
}

/**
 * Fresh-v2 read: magic + size/mtime stamp, then the source content
 * hash, then the strict structural read. false = re-parse the text.
 */
bool
readCacheV2(const std::string &cache_path, const std::string &path,
            std::uint64_t src_size, std::int64_t src_mtime,
            sparse::CompressedCsrMatrix &out)
{
    CacheHeaderV2 h;
    {
        std::ifstream in(cache_path, std::ios::binary);
        if (!in || !in.read(reinterpret_cast<char *>(&h), sizeof(h)))
            return false;
    }
    if (std::memcmp(h.magic, kCacheMagicV2, sizeof(kCacheMagicV2)) !=
            0 ||
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

/** Best-effort v2 cache write (atomic rename); failures are ignored. */
void
writeCacheV2(const std::string &cache_path, std::uint64_t src_size,
             std::int64_t src_mtime, std::uint64_t src_hash,
             const sparse::CompressedCsrMatrix &m)
{
    std::string tmp = cache_path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out)
            return;
        CacheHeaderV2 h;
        std::memcpy(h.magic, kCacheMagicV2, sizeof(kCacheMagicV2));
        h.src_size = src_size;
        h.src_mtime = src_mtime;
        h.src_hash = src_hash;
        h.body_hash = bodyHash(m);
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
    std::uint64_t h = kFnvOffset;
    char buf[64 * 1024];
    while (in) {
        in.read(buf, sizeof(buf));
        h = fnv1a(h, buf, static_cast<std::size_t>(in.gcount()));
    }
    if (in.bad())
        throw DatasetError("read error while hashing '" + path + "'");
    return h;
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
    CacheHeaderV2 h;
    if (!in.read(reinterpret_cast<char *>(&h), sizeof(h)))
        throw reject("truncated header");
    if (std::memcmp(h.magic, kCacheMagicV2, sizeof(kCacheMagicV2)) != 0)
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
        sizeof(CacheHeaderV2) +
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
    std::uint64_t body = kFnvOffset;
    body = fnv1a(body, entry_offsets.data(),
                 entry_offsets.size() * sizeof(entry_offsets[0]));
    body = fnv1a(body, payload.data(), payload.size());
    body = fnv1a(body, values.data(),
                 values.size() * sizeof(values[0]));
    if (body != h.body_hash)
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

/** Parse the text form of @p path (throws DatasetError on failure). */
CsrMatrix
parseRealFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw DatasetError("cannot open dataset file '" + path + "'");
    return isMatrixMarketPath(path) ? readMatrixMarket(in, path)
                                    : readEdgeList(in, path);
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
        if (readCacheV2(cache_path, path, src_size, src_mtime, comp))
            return comp.toCsr();
    }

    CsrMatrix m = parseRealFile(path);
    if (shouldWriteCache(mode, src_size))
        writeCacheV2(cache_path, src_size, src_mtime,
                     hashFileContents(path),
                     sparse::CompressedCsrMatrix::fromCsr(m));
    return m;
}

sparse::MatrixStore
loadRealStore(const std::string &path, CacheMode mode)
{
    return loadRealMatrix(path, mode);
}

} // namespace capstan::workloads
