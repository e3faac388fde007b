/**
 * @file
 * Compressed sparse matrix formats (Table 1): COO and CSR.
 *
 * Any multi-dimensional format is a hierarchy of per-dimension formats
 * (Section 2.1); these classes store the conventional array-of-arrays
 * layouts and provide lossless conversions between one another. Values are
 * kept in row-major iteration order. CSC is the CSR of the transpose
 * (CsrMatrix::transpose()): its rows are the original's columns.
 */

#pragma once

#include <span>
#include <vector>

#include "sparse/types.hpp"

namespace capstan::sparse {

/** One non-zero entry: (row, col, value). */
struct Triplet
{
    Index row;
    Index col;
    Value value;

    bool operator==(const Triplet &) const = default;
};

/**
 * Coordinate (COO) format: a flat, row-major-sorted list of non-zeros.
 * Best for extremely sparse data and value-order (edge-order) iteration;
 * this is the format the PR-Edge and COO-SpMV applications stream.
 */
class CooMatrix
{
  public:
    CooMatrix() = default;
    CooMatrix(Index rows, Index cols) : rows_(rows), cols_(cols) {}

    /** Build from unsorted triplets; duplicates are summed. */
    static CooMatrix fromTriplets(Index rows, Index cols,
                                  std::vector<Triplet> triplets);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const { return static_cast<Index>(entries_.size()); }

    const std::vector<Triplet> &entries() const { return entries_; }

  private:
    friend class CsrMatrix;
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<Triplet> entries_;
};

/**
 * Compressed sparse row (CSR): dense along rows, compressed columns.
 * row_ptr has rows()+1 entries; col_idx/values are sorted within a row.
 */
class CsrMatrix
{
  public:
    CsrMatrix() = default;

    /** Build from unsorted triplets; duplicates are summed. */
    static CsrMatrix fromTriplets(Index rows, Index cols,
                                  std::vector<Triplet> triplets);

    /** Build from a row-major-sorted COO matrix. */
    static CsrMatrix fromCoo(const CooMatrix &coo);

    /**
     * Adopt pre-built CSR arrays (e.g. a deserialized binary cache,
     * workloads/io.hpp). Validates every format invariant — pointer
     * monotonicity, aligned array lengths, in-range and sorted,
     * duplicate-free column indices — and throws std::invalid_argument
     * on any violation, so corrupt input can never produce a matrix
     * other methods would misindex.
     */
    static CsrMatrix fromParts(Index rows, Index cols,
                               std::vector<Index> row_ptr,
                               std::vector<Index> col_idx,
                               std::vector<Value> values);

    Index rows() const { return rows_; }
    Index cols() const { return cols_; }
    Index nnz() const { return static_cast<Index>(col_idx_.size()); }

    /** Number of stored entries in row @p r. */
    Index rowLength(Index r) const { return row_ptr_[r + 1] - row_ptr_[r]; }

    /** Column indices of row @p r. */
    std::span<const Index> rowIndices(Index r) const;

    /** Values of row @p r, aligned with rowIndices(). */
    std::span<const Value> rowValues(Index r) const;

    const std::vector<Index> &rowPtr() const { return row_ptr_; }
    const std::vector<Index> &colIdx() const { return col_idx_; }
    const std::vector<Value> &values() const { return values_; }

    /** Stored value at (r, c), or 0 if absent. Binary search within row. */
    Value at(Index r, Index c) const;

    /** Lossless conversion to COO (row-major order). */
    CooMatrix toCoo() const;

    /** Transpose; turns CSR of A into CSR of A^T (= CSC of A). */
    CsrMatrix transpose() const;

  private:
    Index rows_ = 0;
    Index cols_ = 0;
    std::vector<Index> row_ptr_;
    std::vector<Index> col_idx_;
    std::vector<Value> values_;
};

} // namespace capstan::sparse

