/**
 * @file
 * TileMask: one bit per tile or shuffle port, visited in ascending order.
 */

#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "sim/config.hpp"

namespace capstan::sim {

/**
 * One bit per tile of a machine (or port of its shuffle network, which
 * has at most kMaxTiles). forEach() visits the set bits in ascending
 * index order: like forEachSetBit, that order is a determinism
 * guarantee the machine loop and the shuffle's delivery rely on.
 */
class TileMask
{
  public:
    void set(int i) { words_[word(i)] |= bit(i); }
    void reset(int i) { words_[word(i)] &= ~bit(i); }
    void assign(int i, bool on) { on ? set(i) : reset(i); }
    bool test(int i) const { return (words_[word(i)] & bit(i)) != 0; }

    bool operator==(const TileMask &) const = default;

    /**
     * Call @p fn(i) for each bit set when forEach() starts, in
     * ascending order; @p fn may set or reset bits as it goes.
     */
    template <typename Fn> void forEach(Fn &&fn) const
    {
        const Words snapshot = words_;
        for (std::size_t w = 0; w < snapshot.size(); ++w) {
            for (std::uint64_t bits = snapshot[w]; bits != 0;
                 bits &= bits - 1) {
                fn(static_cast<int>(w * 64) + std::countr_zero(bits));
            }
        }
    }

  private:
    using Words = std::array<std::uint64_t, (kMaxTiles + 63) / 64>;

    static std::size_t word(int i) { return static_cast<std::size_t>(i) / 64; }
    static std::uint64_t bit(int i) { return std::uint64_t{1} << (i % 64); }

    Words words_{};
};

} // namespace capstan::sim
