#include "sparse/matrix.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace capstan::sparse {

namespace {

/**
 * Stable counting sort of @p in into @p out (same size) by @p key,
 * which maps every triplet into [0, keys).
 */
template <typename Key>
void
countingSort(const std::vector<Triplet> &in, std::vector<Triplet> &out,
             Index keys, Key key)
{
    std::vector<Index> next(static_cast<std::size_t>(keys), 0);
    for (const Triplet &t : in)
        ++next[key(t)];
    Index at = 0;
    for (Index &n : next)
        at += std::exchange(n, at);
    for (const Triplet &t : in)
        out[next[key(t)]++] = t;
}

/**
 * Sort row-major and sum duplicate coordinates in place; a triplet
 * outside rows x cols throws std::out_of_range. The sort is a stable
 * counting sort, linear in the triplets, rows and columns, so
 * duplicates meet in input order and are summed left to right.
 * Triplets already strictly increasing in (row, col), as a file
 * written in row-major order lists them, are their own sorted and
 * merged form, so they are left as they are.
 */
void
canonicalize(Index rows, Index cols, std::vector<Triplet> &triplets)
{
    // Hard checks even in release builds: the sort's counts are
    // Index-wide, and an out-of-range triplet would index past them
    // and corrupt every format built from the result.
    CAPSTAN_CHECK(triplets.size() <=
                  static_cast<std::size_t>(
                      std::numeric_limits<Index>::max()));
    auto before = [](const Triplet &a, const Triplet &b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    };
    bool sorted = true;
    for (std::size_t i = 0; i < triplets.size(); ++i) {
        const Triplet &t = triplets[i];
        if (t.row < 0 || t.row >= rows || t.col < 0 || t.col >= cols)
            throw std::out_of_range(
                "fromTriplets: triplet outside matrix bounds");
        if (i > 0 && !before(triplets[i - 1], t))
            sorted = false;
    }
    if (sorted)
        return;
    {
        // Least significant key first: by column, then stably by row.
        std::vector<Triplet> by_col(triplets.size());
        countingSort(triplets, by_col, cols,
                     [](const Triplet &t) { return t.col; });
        countingSort(by_col, triplets, rows,
                     [](const Triplet &t) { return t.row; });
    }
    std::size_t out = 0;
    for (std::size_t i = 0; i < triplets.size(); ++i) {
        if (out > 0 && triplets[out - 1].row == triplets[i].row &&
            triplets[out - 1].col == triplets[i].col) {
            triplets[out - 1].value += triplets[i].value;
        } else {
            triplets[out++] = triplets[i];
        }
    }
    triplets.resize(out);
}

} // namespace

CooMatrix
CooMatrix::fromTriplets(Index rows, Index cols,
                        std::vector<Triplet> triplets)
{
    canonicalize(rows, cols, triplets);
    CooMatrix coo(rows, cols);
    coo.entries_ = std::move(triplets);
    return coo;
}

CsrMatrix
CsrMatrix::fromTriplets(Index rows, Index cols,
                        std::vector<Triplet> triplets)
{
    return fromCoo(CooMatrix::fromTriplets(rows, cols, std::move(triplets)));
}

CsrMatrix
CsrMatrix::fromCoo(const CooMatrix &coo)
{
    CsrMatrix csr;
    csr.rows_ = coo.rows();
    csr.cols_ = coo.cols();
    csr.row_ptr_.assign(csr.rows_ + 1, 0);
    csr.col_idx_.reserve(coo.nnz());
    csr.values_.reserve(coo.nnz());
    for (const Triplet &t : coo.entries()) {
        // Hard check even in release builds: silent out-of-range
        // triplets would corrupt the row-pointer array.
        if (t.row < 0 || t.row >= csr.rows_ || t.col < 0 ||
            t.col >= csr.cols_) {
            throw std::out_of_range(
                "CsrMatrix::fromCoo: triplet outside matrix bounds");
        }
        ++csr.row_ptr_[t.row + 1];
        csr.col_idx_.push_back(t.col);
        csr.values_.push_back(t.value);
    }
    for (Index r = 0; r < csr.rows_; ++r)
        csr.row_ptr_[r + 1] += csr.row_ptr_[r];
    return csr;
}

CsrMatrix
CsrMatrix::fromParts(Index rows, Index cols,
                     std::vector<Index> row_ptr,
                     std::vector<Index> col_idx,
                     std::vector<Value> values)
{
    auto invalid = [](const char *why) {
        throw std::invalid_argument(
            std::string("CsrMatrix::fromParts: ") + why);
    };
    if (rows < 0 || cols < 0)
        invalid("negative dimensions");
    if (row_ptr.size() != static_cast<std::size_t>(rows) + 1)
        invalid("row_ptr must have rows + 1 entries");
    if (row_ptr.front() != 0)
        invalid("row_ptr must start at 0");
    if (col_idx.size() != values.size() ||
        col_idx.size() != static_cast<std::size_t>(row_ptr.back()))
        invalid("row_ptr, col_idx, and values lengths disagree");
    Index total = static_cast<Index>(col_idx.size());
    for (Index r = 0; r < rows; ++r) {
        // Both bounds before the inner loop touches col_idx: a
        // corrupt row_ptr entry above the array length would
        // otherwise be read out-of-bounds before the next
        // iteration's monotonicity check could reject it.
        if (row_ptr[r + 1] < row_ptr[r])
            invalid("row_ptr must be non-decreasing");
        if (row_ptr[r + 1] > total)
            invalid("row_ptr entry exceeds the entry count");
        for (Index i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
            if (col_idx[i] < 0 || col_idx[i] >= cols)
                invalid("column index outside matrix bounds");
            if (i > row_ptr[r] && col_idx[i] <= col_idx[i - 1])
                invalid("columns must be strictly increasing per row");
        }
    }
    CsrMatrix csr;
    csr.rows_ = rows;
    csr.cols_ = cols;
    csr.row_ptr_ = std::move(row_ptr);
    csr.col_idx_ = std::move(col_idx);
    csr.values_ = std::move(values);
    return csr;
}

std::span<const Index>
CsrMatrix::rowIndices(Index r) const
{
    CAPSTAN_DCHECK(r >= 0 && r < rows_);
    return {col_idx_.data() + row_ptr_[r],
            static_cast<std::size_t>(rowLength(r))};
}

std::span<const Value>
CsrMatrix::rowValues(Index r) const
{
    CAPSTAN_DCHECK(r >= 0 && r < rows_);
    return {values_.data() + row_ptr_[r],
            static_cast<std::size_t>(rowLength(r))};
}

Value
CsrMatrix::at(Index r, Index c) const
{
    auto idx = rowIndices(r);
    auto it = std::lower_bound(idx.begin(), idx.end(), c);
    if (it == idx.end() || *it != c)
        return Value{0};
    return values_[row_ptr_[r] + (it - idx.begin())];
}

CooMatrix
CsrMatrix::toCoo() const
{
    CooMatrix coo(rows_, cols_);
    coo.entries_.reserve(nnz());
    for (Index r = 0; r < rows_; ++r) {
        auto idx = rowIndices(r);
        auto val = rowValues(r);
        for (std::size_t i = 0; i < idx.size(); ++i)
            coo.entries_.push_back({r, idx[i], val[i]});
    }
    return coo;
}

CsrMatrix
CsrMatrix::transpose() const
{
    CsrMatrix t;
    t.rows_ = cols_;
    t.cols_ = rows_;
    t.row_ptr_.assign(t.rows_ + 1, 0);
    t.col_idx_.resize(nnz());
    t.values_.resize(nnz());
    // Counting sort by column: stable, so rows stay sorted per output row.
    for (Index c : col_idx_)
        ++t.row_ptr_[c + 1];
    for (Index r = 0; r < t.rows_; ++r)
        t.row_ptr_[r + 1] += t.row_ptr_[r];
    std::vector<Index> cursor(t.row_ptr_.begin(), t.row_ptr_.end() - 1);
    for (Index r = 0; r < rows_; ++r) {
        for (Index i = row_ptr_[r]; i < row_ptr_[r + 1]; ++i) {
            Index slot = cursor[col_idx_[i]]++;
            t.col_idx_[slot] = r;
            t.values_[slot] = values_[i];
        }
    }
    return t;
}

} // namespace capstan::sparse
