/**
 * @file
 * Packed bit-vector format for sparse vectors (Fig. 1).
 *
 * A bit-vector stores the occupancy pattern of a fixed-length region: bit i
 * is set iff element i is non-zero. Compressed payload values are stored
 * separately, in occupancy order; rank() maps a dense position to its
 * compressed slot, which is exactly the jA/jB index the Capstan scanner
 * produces (Section 2.2).
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sparse/types.hpp"

namespace capstan::sparse {

/**
 * Fixed-length packed bit-vector with rank support.
 *
 * Backing storage is a vector of 64-bit words; the tail word is kept
 * zero-padded beyond size() so popcount-style scans never see stray bits.
 */
class BitVector
{
  public:
    BitVector() = default;

    /** Construct an all-zero bit-vector of @p size bits. */
    explicit BitVector(Index size);

    /** Number of addressable bits. */
    Index size() const { return size_; }

    /** True iff bit @p pos is set. @pre 0 <= pos < size(). */
    bool test(Index pos) const;

    /** Set bit @p pos. @pre 0 <= pos < size(). */
    void set(Index pos);

    /** Total number of set bits. */
    Index count() const;

    /** Number of set bits strictly before @p pos (compressed index). */
    Index rank(Index pos) const;

    /**
     * Number of set bits in [@p begin, @p end). Equivalent to
     * rank(end) - rank(begin) but walks only the covered words, so
     * incremental scans stay linear instead of quadratic in the
     * prefix. @pre 0 <= begin <= end <= size().
     */
    Index countRange(Index begin, Index end) const;

    /** Position of the first set bit at or after @p pos, or kNoIndex. */
    Index nextSet(Index pos) const;

    /** All set-bit positions in ascending order. */
    std::vector<Index> toPositions() const;

    /** Bitwise intersection; sizes must match. */
    BitVector operator&(const BitVector &other) const;

    /** Bitwise union; sizes must match. */
    BitVector operator|(const BitVector &other) const;

    /**
     * Extract a window of up to 64 bits starting at @p pos.
     * Bits past size() read as zero. Used by the scanner model, which
     * consumes fixed-width windows per cycle.
     */
    std::uint64_t window64(Index pos) const;

    /** Storage footprint in bytes (what a DRAM transfer would move). */
    Index64 storageBytes() const
    {
        return static_cast<Index64>(words_.size()) * 8;
    }

  private:
    Index size_ = 0;
    std::vector<std::uint64_t> words_;
};

} // namespace capstan::sparse

