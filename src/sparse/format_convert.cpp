#include "sparse/format_convert.hpp"

namespace capstan::sparse {

BitVector
pointersToBitVector(std::span<const Index> pointers, Index space)
{
    BitVector bv(space);
    for (Index p : pointers) {
        if (p >= 0 && p < space)
            bv.set(p);
    }
    return bv;
}

BitTree
pointersToBitTree(std::span<const Index> pointers, Index space,
                  Index leaf_bits)
{
    BitTree tree(space, leaf_bits);
    for (Index p : pointers) {
        if (p >= 0 && p < space)
            tree.set(p);
    }
    return tree;
}

} // namespace capstan::sparse
