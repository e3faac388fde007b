/**
 * @file
 * Two-level bit-tree format for extremely sparse vectors (Fig. 1, §2.3).
 *
 * Bit-vector sparsity breaks down below roughly 1% density: the scanner
 * would mostly traverse zero windows. The bit-tree adds a top-level
 * bit-vector with one bit per fixed-size leaf; a leaf bit-vector is stored
 * only for non-empty leaves. A two-level tree with 512-bit levels encodes
 * 262,144 positions in as little as 512 bits when empty.
 *
 * Streaming iteration uses the paper's two-pass algorithm: pass one scans
 * the top-level vectors (union or intersection) to realign leaves; pass two
 * runs nested sparse-sparse scans over the aligned leaves.
 */

#pragma once

#include <span>
#include <vector>

#include "sparse/bitvector.hpp"
#include "sparse/types.hpp"

namespace capstan::sparse {

/**
 * Two-level bit-tree over a fixed-length index space.
 *
 * The leaf width is a constructor parameter (the paper's scanner consumes
 * 256-bit windows, so 256 is the natural choice; tests also exercise other
 * widths).
 */
class BitTree
{
  public:
    /** Construct an empty tree covering @p size positions. */
    BitTree(Index size, Index leaf_bits = 256);

    /** Build from a flat bit-vector. */
    static BitTree fromBitVector(const BitVector &bv, Index leaf_bits = 256);

    /** Build from set-bit positions. */
    static BitTree fromPositions(Index size,
                                 const std::vector<Index> &positions,
                                 Index leaf_bits = 256);

    /** Number of addressable positions. */
    Index size() const { return size_; }

    /** Leaf width in bits. */
    Index leafBits() const { return leaf_bits_; }

    /** Set bit @p pos, materializing its leaf if needed. */
    void set(Index pos);

    /** True iff bit @p pos is set. */
    bool test(Index pos) const;

    /** Total number of set bits. */
    Index count() const;

    /** Top-level occupancy vector: one bit per leaf slot. */
    const BitVector &topLevel() const { return top_; }

    /** Leaf bit-vector for top-level slot @p leaf (must be occupied). */
    const BitVector &leaf(Index leaf_slot) const;

    /** Number of materialized (non-empty) leaves. */
    Index leafCount() const { return static_cast<Index>(leaves_.size()); }

    /** Flatten back to a plain bit-vector. */
    BitVector toBitVector() const;

    /** All set positions in ascending order. */
    std::vector<Index> toPositions() const;

    /**
     * Storage footprint in bytes: top-level words plus materialized leaf
     * words. This is what makes the format attractive below 1% density.
     */
    Index64 storageBytes() const;

  private:
    Index size_;
    Index leaf_bits_;
    BitVector top_;
    /** Compressed leaf array, one entry per set top-level bit. */
    std::vector<BitVector> leaves_;
};

/**
 * Result of realigning two bit-trees for streaming iteration (pass one of
 * the paper's two-pass algorithm). Each entry pairs leaf slots from the
 * two operands; kNoIndex marks an unmatched side, which the union
 * stands in with a zero leaf.
 */
struct AlignedLeafPair
{
    Index top_slot;  //!< Dense top-level position of this leaf.
    Index leaf_a;    //!< Compressed leaf index in A, or kNoIndex.
    Index leaf_b;    //!< Compressed leaf index in B, or kNoIndex.
};

/** Pass-one realignment in union mode: every leaf present in either. */
std::vector<AlignedLeafPair> alignUnion(const BitTree &a, const BitTree &b);

/**
 * Both passes of a union scan, counted straight from two sorted,
 * duplicate-free pointer lists: calls @p fn(top_slot, pop) for every
 * leaf slot occupied in either list, in ascending slot order, with the
 * union's population in that leaf. It visits the same slots, with the
 * same populations, as alignUnion() over the two lists' bit-trees
 * (pointersToBitTree) followed by (leaf_a | leaf_b).count() per pair,
 * in one merge of the lists and without building a tree.
 */
template <typename Fn>
void
forEachUnionLeaf(std::span<const Index> a, std::span<const Index> b,
                 Index leaf_bits, Fn &&fn)
{
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
        Index first = j == b.size() || (i < a.size() && a[i] < b[j])
                          ? a[i]
                          : b[j];
        Index slot = first / leaf_bits;
        Index end = (slot + 1) * leaf_bits;
        Index pop = 0;
        for (;;) {
            bool in_a = i < a.size() && a[i] < end;
            bool in_b = j < b.size() && b[j] < end;
            if (!in_a && !in_b)
                break;
            if (in_a && (!in_b || a[i] <= b[j])) {
                if (in_b && a[i] == b[j])
                    ++j; // One union position for both sides.
                ++i;
            } else {
                ++j;
            }
            ++pop;
        }
        fn(slot, pop);
    }
}

} // namespace capstan::sparse

