/**
 * @file
 * Format-conversion primitives (Section 3.4, "Format Conversion").
 *
 * Capstan's iterators consume bit-vector occupancy, but compressed pointer
 * lists are often more bandwidth-efficient in DRAM. Dedicated hardware in
 * the compute tile converts pointer lists to bit-vectors (doing it in the
 * SpMU would cause same-word bank conflicts). These are the functional
 * equivalents, into a flat bit-vector or a two-level bit-tree.
 */

#pragma once

#include <span>

#include "sparse/bittree.hpp"
#include "sparse/bitvector.hpp"
#include "sparse/types.hpp"

namespace capstan::sparse {

/**
 * Convert a sorted compressed pointer list into a bit-vector over
 * [0, space). Pointers outside the range are ignored.
 */
BitVector pointersToBitVector(std::span<const Index> pointers, Index space);

/** Convert a sorted pointer list into a two-level bit-tree. */
BitTree pointersToBitTree(std::span<const Index> pointers, Index space,
                          Index leaf_bits = 256);

} // namespace capstan::sparse

