/**
 * @file
 * Dense tensor containers used alongside the sparse formats.
 *
 * Capstan is a sparse-dense *hybrid*: output vectors, distance arrays,
 * activation planes and the like stay dense. These are thin, bounds-checked
 * row-major containers; nothing clever, just enough for the applications.
 */

#pragma once

#include <vector>

#include "sparse/types.hpp"

#include "common/check.hpp"

namespace capstan::sparse {

/** Dense 1-D vector of Values. */
class DenseVector
{
  public:
    DenseVector() = default;
    explicit DenseVector(Index size, Value fill = 0) : data_(size, fill) {}

    Index size() const { return static_cast<Index>(data_.size()); }

    Value operator[](Index i) const
    {
        CAPSTAN_DCHECK(i >= 0 && i < size());
        return data_[i];
    }
    Value &operator[](Index i)
    {
        CAPSTAN_DCHECK(i >= 0 && i < size());
        return data_[i];
    }

  private:
    std::vector<Value> data_;
};

/** Dense row-major 3-D tensor (channel, row, col) for convolutions. */
class DenseTensor3
{
  public:
    DenseTensor3() = default;
    DenseTensor3(Index d0, Index d1, Index d2, Value fill = 0)
        : d0_(d0), d1_(d1), d2_(d2), data_(Index64(d0) * d1 * d2, fill)
    {
    }

    Value operator()(Index i, Index j, Index k) const
    {
        CAPSTAN_DCHECK(inBounds(i, j, k));
        return data_[(Index64(i) * d1_ + j) * d2_ + k];
    }
    Value &operator()(Index i, Index j, Index k)
    {
        CAPSTAN_DCHECK(inBounds(i, j, k));
        return data_[(Index64(i) * d1_ + j) * d2_ + k];
    }

    const std::vector<Value> &data() const { return data_; }

    /** Number of non-zero elements. */
    Index64 nnz() const;

  private:
    bool inBounds(Index i, Index j, Index k) const
    {
        return i >= 0 && i < d0_ && j >= 0 && j < d1_ && k >= 0 && k < d2_;
    }

    Index d0_ = 0, d1_ = 0, d2_ = 0;
    std::vector<Value> data_;
};

/** Dense 4-D tensor (kr, kc, inCh, outCh) for convolution kernels. */
class DenseTensor4
{
  public:
    DenseTensor4() = default;
    DenseTensor4(Index d0, Index d1, Index d2, Index d3, Value fill = 0)
        : d1_(d1), d2_(d2), d3_(d3), data_(Index64(d0) * d1 * d2 * d3, fill)
    {
    }

    Value operator()(Index i, Index j, Index k, Index l) const
    {
        return data_[((Index64(i) * d1_ + j) * d2_ + k) * d3_ + l];
    }
    Value &operator()(Index i, Index j, Index k, Index l)
    {
        return data_[((Index64(i) * d1_ + j) * d2_ + k) * d3_ + l];
    }

    const std::vector<Value> &data() const { return data_; }

    Index64 nnz() const;

  private:
    Index d1_ = 0, d2_ = 0, d3_ = 0;
    std::vector<Value> data_;
};

} // namespace capstan::sparse

