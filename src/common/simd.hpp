/**
 * @file
 * Portable SIMD/popcount shim for host hot loops.
 *
 * The simulator's serial residue is dominated by bit-set walks: bit-
 * vector/bit-tree rank scans, the separable allocator's lane-conflict
 * masks, and SpMU bank-hash batches. This header centralizes the
 * word-at-a-time idioms those loops share so call sites stay readable
 * and the compiler sees straight-line, unit-stride loops it can
 * vectorize (all helpers are branch-light over contiguous 64-bit
 * words, with no intrinsics, so the shim is portable to any C++20
 * target). std::popcount becomes a hardware instruction only where
 * the target ISA has one: the build sets no -march, and baseline
 * x86-64 has no POPCNT, so there GCC calls libgcc's __popcountdi2
 * instead.
 *
 * Everything here is purely functional over its inputs: results are
 * independent of call ordering, so vectorization is invisible to the
 * stats.
 */

#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace capstan::common::simd {

/** Sum of set bits over `n` contiguous words (4-way unrolled). */
inline std::int64_t popcountWords(const std::uint64_t *words,
                                  std::size_t n)
{
    std::int64_t c0 = 0;
    std::int64_t c1 = 0;
    std::int64_t c2 = 0;
    std::int64_t c3 = 0;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        c0 += std::popcount(words[i + 0]);
        c1 += std::popcount(words[i + 1]);
        c2 += std::popcount(words[i + 2]);
        c3 += std::popcount(words[i + 3]);
    }
    for (; i < n; ++i) {
        c0 += std::popcount(words[i]);
    }
    return c0 + c1 + c2 + c3;
}

/**
 * Set bits in the bit range [begin, end) of a packed little-endian
 * word array. Partial edge words are masked; interior words go
 * through popcountWords. Caller guarantees the range lies within the
 * array.
 */
inline std::int64_t popcountRange(const std::uint64_t *words,
                                  std::int64_t begin, std::int64_t end)
{
    if (begin >= end) {
        return 0;
    }
    const std::int64_t first = begin / 64;
    const std::int64_t last = (end - 1) / 64;
    const std::uint64_t head_mask = ~std::uint64_t{0} << (begin % 64);
    const std::uint64_t tail_mask =
        (end % 64) == 0 ? ~std::uint64_t{0}
                        : ((std::uint64_t{1} << (end % 64)) - 1);
    if (first == last) {
        return std::popcount(words[first] & head_mask & tail_mask);
    }
    std::int64_t total = std::popcount(words[first] & head_mask);
    total += popcountWords(words + first + 1,
                           static_cast<std::size_t>(last - first - 1));
    total += std::popcount(words[last] & tail_mask);
    return total;
}

/**
 * Invoke `fn(index)` for each set bit of `mask` in ascending index
 * order. Ascending order is a determinism guarantee, not an
 * optimization: arbiters and reductions rely on it for fixed
 * priority.
 */
template <typename Fn>
inline void forEachSetBit(std::uint32_t mask, Fn &&fn)
{
    while (mask != 0) {
        fn(std::countr_zero(mask));
        mask &= mask - 1;
    }
}

/** 64-bit variant of forEachSetBit, same ascending-order guarantee. */
template <typename Fn>
inline void forEachSetBit64(std::uint64_t mask, Fn &&fn)
{
    while (mask != 0) {
        fn(std::countr_zero(mask));
        mask &= mask - 1;
    }
}

/**
 * Capstan bank hash: XOR-fold the low four nibbles of an address
 * (a[0:3] ^ a[4:7] ^ a[8:11] ^ a[12:15]). Pure bit math so a batch
 * of lanes vectorizes; reduction modulo the bank count stays at the
 * call site, where the bank configuration lives.
 */
inline std::uint32_t xorFoldNibbles(std::uint32_t addr)
{
    const std::uint32_t folded = addr ^ (addr >> 8);
    return (folded ^ (folded >> 4)) & 0xF;
}

/** dst[i] = a[i] & b[i] over `n` words (unit-stride, vectorizable). */
inline void andWords(std::uint64_t *dst, const std::uint64_t *a,
                     const std::uint64_t *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i] & b[i];
    }
}

/** dst[i] = a[i] | b[i] over `n` words (unit-stride, vectorizable). */
inline void orWords(std::uint64_t *dst, const std::uint64_t *a,
                    const std::uint64_t *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i] | b[i];
    }
}

/** dst[i] = a[i] & ~b[i] over `n` words (unit-stride, vectorizable). */
inline void andNotWords(std::uint64_t *dst, const std::uint64_t *a,
                        const std::uint64_t *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = a[i] & ~b[i];
    }
}

} // namespace capstan::common::simd
