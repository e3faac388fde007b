/**
 * @file
 * Delta + group-varint compressed CSR storage and the read seam.
 *
 * CompressedCsrMatrix keeps the column indices of each row
 * delta-encoded (posting-list style, the RediSearch qint scheme is the
 * exemplar): the first column of a row is stored absolutely, every
 * later one as `col[i] - col[i-1] - 1`, packed in groups of four
 * values behind a 1-byte control word (two bits per value selecting a
 * 1..4-byte little-endian payload). Rows longer than kSkipInterval
 * entries additionally carry skip points so at() stays logarithmic.
 * Values are kept as a flat array, exactly as CSR stores them.
 *
 * CompressedCsrMatrix is the body codec of the v3 `.cbin` cache
 * (workloads/io.hpp). Datasets live in a MatrixStore, which holds
 * plain CSR. MatrixView is the read interface the applications,
 * baselines, and tiling iterate; it serves either representation with
 * identical results (tests/test_compressed.cpp proves it
 * differentially). The paper's pointer compression (§3.4) is modeled
 * separately by sim::compressStream, whatever host layout holds the
 * matrix.
 */

#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse/matrix.hpp"
#include "sparse/types.hpp"

namespace capstan::sparse {

/**
 * CSR with per-row delta + group-varint encoded column indices.
 *
 * Layout (all rebuilt or validated by fromParts, so a deserialized
 * cache can never misindex):
 *  - entry_offsets_ : rows+1 cumulative entry counts (CSR row_ptr).
 *  - payload_       : the variable-length encoded column stream.
 *  - byte_off_      : rows+1 payload byte offsets, derived.
 *  - skip_*_        : skip points every kSkipInterval entries for rows
 *                     longer than that, derived; empty when no row
 *                     needs one (the common case at fixture scale).
 *  - values_        : flat values, row-major, same order as CSR.
 */
class CompressedCsrMatrix
{
  public:
    /** Entries between skip points; multiple of the group size (4). */
    static constexpr Index kSkipInterval = 64;

    CompressedCsrMatrix() = default;

    /** Encode an existing CSR matrix. Throws std::invalid_argument
     *  only when the encoded payload would overflow 32-bit offsets. */
    static CompressedCsrMatrix fromCsr(const CsrMatrix &m);

    /**
     * Adopt deserialized parts (the v3 .cbin cache, workloads/io.hpp).
     * Runs a full validating decode — monotone entry offsets,
     * strictly increasing in-range columns, payload consumed exactly —
     * and throws std::invalid_argument on any violation; the byte
     * offsets and skip tables are rebuilt during the same walk.
     */
    static CompressedCsrMatrix fromParts(Index rows, Index cols,
                                         std::vector<Index> entry_offsets,
                                         std::vector<std::uint8_t> payload,
                                         std::vector<Value> values);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const { return static_cast<Index>(values_.size()); }

    /** Number of stored entries in row @p r. */
    Index entryCount(Index r) const
    {
        return entry_offsets_[r + 1] - entry_offsets_[r];
    }

    /**
     * Decode the column indices of row @p r into @p out, which must
     * have room for entryCount(r) entries. Returns the count.
     */
    Index decodeRow(Index r, Index *out) const;

    /** Values of row @p r (flat storage, no decode needed). */
    std::span<const Value> valueSpan(Index r) const
    {
        return {values_.data() + entry_offsets_[r],
                static_cast<std::size_t>(entryCount(r))};
    }

    /** Stored value at (r, c), or 0. Skip-point search + short decode. */
    Value at(Index r, Index c) const;

    /** Full decode into a plain CSR matrix. */
    CsrMatrix toCsr() const;

    // Serialization accessors (workloads/io.hpp writes exactly these
    // three arrays; everything else is derived on load).
    const std::vector<Index> &entryOffsets() const { return entry_offsets_; }
    const std::vector<std::uint8_t> &encodedPayload() const { return payload_; }
    const std::vector<Value> &flatValues() const { return values_; }

    /** Measured bytes of this representation (all arrays). */
    std::uint64_t encodedBytes() const;

    /**
     * Bytes fromCsr(m).encodedBytes() would report, computed
     * arithmetically without building anything. This is the single
     * definition behind the dataset.encoded_bytes stat.
     */
    static std::uint64_t measureEncodedBytes(const CsrMatrix &m);

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<Index> entry_offsets_;
    std::vector<std::uint8_t> payload_;
    std::vector<std::uint32_t> byte_off_;
    std::vector<Index> skip_ptr_;           //!< rows+1, or empty.
    std::vector<Index> skip_prev_col_;      //!< col at entry 64k-1.
    std::vector<std::uint32_t> skip_byte_;  //!< payload offset of group 64k.
    std::vector<Value> values_;
};

/**
 * Owning matrix dataset storage: a plain CSR matrix plus its measured
 * compressed size. Immutable after construction, so sweeps can share
 * one store across worker threads; each thread reads through its own
 * MatrixView.
 */
class MatrixStore
{
  public:
    MatrixStore() : MatrixStore(CsrMatrix{}) {}
    /*implicit*/ MatrixStore(CsrMatrix m);

    Index rows() const { return csr_.rows(); }
    Index cols() const { return csr_.cols(); }
    Index nnz() const { return csr_.nnz(); }
    Value at(Index r, Index c) const { return csr_.at(r, c); }
    CsrMatrix transpose() const { return csr_.transpose(); }

    const CsrMatrix &csr() const { return csr_; }

    /** Bytes of the plain-CSR representation: 4*(rows+1) + 8*nnz. */
    std::uint64_t csrBytes() const;
    /** Bytes of the delta + group-varint form of this matrix (see
     *  CompressedCsrMatrix::measureEncodedBytes), cached at
     *  construction. */
    std::uint64_t encodedBytes() const { return encoded_bytes_; }

  private:
    CsrMatrix csr_;
    std::uint64_t encoded_bytes_ = 0;
};

/**
 * Read cursor over either backing — the seam every consumer outside
 * src/sparse/ iterates. Constructed implicitly from a CsrMatrix,
 * a CompressedCsrMatrix, or a MatrixStore, so call sites simply pass
 * the store.
 *
 * Spans returned by indices() point into a per-view scratch buffer
 * when the backing is compressed: a span stays valid until the next
 * indices() call *on the same view*. Holding two rows at once
 * therefore requires two views — which falls out naturally, because
 * every two-matrix app (M+M, SpMSpM) takes two view parameters and
 * each argument conversion creates its own view. A view is cheap to
 * construct and single-threaded; concurrent readers each build their
 * own view over the shared immutable store.
 */
class MatrixView
{
  public:
    /*implicit*/ MatrixView(const CsrMatrix &m) : csr_(&m) {}
    /*implicit*/ MatrixView(const CompressedCsrMatrix &m) : comp_(&m) {}
    /*implicit*/ MatrixView(const MatrixStore &s) : csr_(&s.csr()) {}

    Index rows() const;
    Index cols() const;
    Index nnz() const;

    /** Number of stored entries in row @p r. */
    Index length(Index r) const;

    /**
     * Column indices of row @p r. CSR: a span into the matrix.
     * Compressed: decoded into this view's scratch; invalidated by
     * the next indices() call on this view.
     */
    std::span<const Index> indices(Index r) const;

    /** Values of row @p r (stable under both backings). */
    std::span<const Value> values(Index r) const;

    /**
     * The full column-index stream, row-major — what a pointer-tile
     * DRAM stream of this matrix moves (apps feed it to
     * streamCompressionRatio). CSR: the col_idx array itself;
     * compressed: materialized once per view and cached.
     */
    const std::vector<Index> &columnStream() const;

    /** Stored value at (r, c), or 0. */
    Value at(Index r, Index c) const;

    /** Lossless conversion to COO (row-major order). */
    CooMatrix toCoo() const;

    /** Transpose as a plain CSR matrix. */
    CsrMatrix transposed() const;

  private:
    const CsrMatrix *csr_ = nullptr;
    const CompressedCsrMatrix *comp_ = nullptr;
    mutable std::vector<Index> scratch_;
    mutable std::vector<Index> stream_;
    mutable bool stream_ready_ = false;
};

} // namespace capstan::sparse
