/**
 * @file
 * Real-dataset ingestion: Matrix Market and SNAP edge-list readers
 * with a versioned binary on-disk cache.
 *
 * The paper evaluates on SuiteSparse and SNAP files (Table 6); this
 * module loads those files into the repo's CsrMatrix so every study
 * can run on the real structure instead of the synthetic stand-ins
 * (workloads/datasets.hpp picks between the two). Supported inputs:
 *
 *  - Matrix Market (`.mtx`): `coordinate` and `array` formats;
 *    `real` / `integer` / `pattern` / `complex` fields (complex
 *    entries keep their real part — the simulator's lanes carry one
 *    32-bit value, and structure is what drives timing); `general` /
 *    `symmetric` / `skew-symmetric` / `hermitian` symmetry
 *    (symmetric inputs are expanded to full storage); 1-based
 *    indices, `%` comments, blank lines, and CRLF line endings.
 *  - SNAP edge lists: whitespace-separated `src dst [weight]` rows
 *    with `#` (or `%`) comments; node ids are 0-based, dimensions are
 *    `max id + 1`, missing weights default to 1.
 *
 * Parsed matrices can be memoized next to the source file in a
 * versioned binary cache (`<path>.cbin`). The current v2 format
 * stores the delta + group-varint compressed form directly
 * (sparse/compressed.hpp) and is keyed on the source's size, mtime,
 * *and* an FNV-1a content hash, so a same-size, same-mtime,
 * different-content file cannot hit a stale cache. A stale, corrupt,
 * or legacy v1 (plain CSR) cache is never trusted: it is a miss, the
 * text is re-parsed, and a mode that writes caches rewrites it as v2.
 */

#pragma once

#include <cstdint>
#include <iosfwd>
#include <stdexcept>
#include <string>

#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"
#include "sparse/types.hpp"

namespace capstan::workloads {

/**
 * Thrown for every dataset-resolution failure: unknown Table 6 names,
 * missing or malformed dataset files, and invalid scales. Derives
 * from std::invalid_argument so existing catch sites keep working;
 * the driver binaries additionally catch it at their boundary and
 * turn it into a usage error (exit 2) that lists the valid dataset
 * names and the `file:` / `mtx:` schemes.
 */
class DatasetError : public std::invalid_argument
{
  public:
    using std::invalid_argument::invalid_argument;
};

/** How loadRealMatrix uses the binary on-disk cache. */
enum class CacheMode {
    Auto,  //!< Read when fresh; write only for large text files.
    Force, //!< Read when fresh; always (re)write after a parse.
    Off,   //!< Ignore the cache entirely.
};

/**
 * Parse a Matrix Market document from @p in. @p what names the input
 * in error messages (usually the file path). Throws DatasetError on
 * malformed input.
 */
sparse::CsrMatrix readMatrixMarket(std::istream &in,
                                   const std::string &what);

/**
 * Parse a SNAP-style edge list from @p in. @p what names the input in
 * error messages. Throws DatasetError on malformed input.
 */
sparse::CsrMatrix readEdgeList(std::istream &in,
                               const std::string &what);

/** Where loadRealMatrix caches a parsed file: `<path>.cbin`. */
std::string matrixCachePath(const std::string &path);

/**
 * Load a dataset file: `.mtx` parses as Matrix Market, anything else
 * as a SNAP edge list. In Auto/Force cache modes a fresh binary cache
 * (matrixCachePath) is preferred over re-parsing; Auto writes the
 * cache back only when the text file is large enough to be worth it,
 * Force always writes. Throws DatasetError when the file is missing
 * or malformed.
 */
sparse::CsrMatrix loadRealMatrix(const std::string &path,
                                 CacheMode mode = CacheMode::Auto);

/** loadRealMatrix wrapped in a MatrixStore. */
sparse::MatrixStore
loadRealStore(const std::string &path, CacheMode mode = CacheMode::Auto);

/**
 * Strictly read a v2 `.cbin` cache file. Every structural property is
 * validated before use — magic, counts, the exact file size the
 * header implies, an FNV-1a checksum over the array bytes, and a full
 * decode walk of the encoded payload — so a truncated or bit-flipped
 * file is rejected with DatasetError instead of crashing or
 * overreading (tests/test_property.cpp fuzzes exactly this entry
 * point). Freshness against the source file is the caller's concern;
 * loadRealMatrix layers the size/mtime/content-hash check on top.
 */
sparse::CompressedCsrMatrix
readCompressedCache(const std::string &cache_path);

/**
 * FNV-1a 64-bit hash of a file's bytes — the content component of the
 * v2 cache key. Throws DatasetError when the file cannot be read.
 */
std::uint64_t hashFileContents(const std::string &path);

} // namespace capstan::workloads

