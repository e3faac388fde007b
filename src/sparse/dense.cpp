#include "sparse/dense.hpp"

namespace capstan::sparse {

Index64
DenseTensor3::nnz() const
{
    Index64 n = 0;
    for (Value v : data_) {
        if (v != Value{0})
            ++n;
    }
    return n;
}

Index64
DenseTensor4::nnz() const
{
    Index64 n = 0;
    for (Value v : data_) {
        if (v != Value{0})
            ++n;
    }
    return n;
}

} // namespace capstan::sparse
