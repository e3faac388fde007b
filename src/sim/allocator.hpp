/**
 * @file
 * Separable crossbar allocator for SpMU bank scheduling (Section 3.1.1).
 *
 * Every cycle, up to l*d candidate accesses (l lanes, d queue slots) bid
 * for b banks, but the crossbar can carry at most one request per lane and
 * one per bank. A separable allocator approximates maximum bipartite
 * matching with two stages of fixed-priority arbiters per iteration:
 *
 *   stage 1: every lane picks one requested bank (lowest index wins),
 *   stage 2: every bank picks one requesting lane (lowest index wins).
 *
 * Later iterations consider only requests that do not conflict with
 * already-established grants, so each iteration can add grants that the
 * greedy first pass missed. The model evaluates both stages in one
 * ascending pass over the ungranted lanes that request a bank: a lane's
 * bid goes to the lowest bank free at the start of the iteration, and
 * the first bidder wins it. The caller expresses age-based priority
 * classes by passing a *different request matrix per iteration*: older
 * queue slots appear in early iterations, younger ones only later
 * (Capstan's 16-slot queue: slots 0-4 bid in round one, 0-9 in round two,
 * all in round three).
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>

#include "sim/config.hpp"

namespace capstan::sim {

/** Upper bound on virtual input lanes (16 lanes x 2 input speedup). */
constexpr int kMaxVirtualLanes = 32;

/** One request matrix: requests[l] is a bank bitmask for virtual lane l. */
using RequestMatrix = std::array<std::uint32_t, kMaxVirtualLanes>;

/**
 * Invoke `fn(index)` for each set bit of `mask` in ascending index
 * order. Ascending order is a determinism guarantee, not an
 * optimization: arbiters and reductions rely on it for fixed
 * priority.
 */
template <typename Fn>
void
forEachSetBit(std::uint32_t mask, Fn &&fn)
{
    while (mask != 0) {
        fn(std::countr_zero(mask));
        mask &= mask - 1;
    }
}

/** Allocation outcome: per virtual lane, the granted bank or -1. */
struct AllocResult
{
    std::array<int, kMaxVirtualLanes> bank_for_lane;
    int grant_count = 0;
    /** Bit l set when virtual lane l holds a grant. */
    std::uint32_t granted = 0;

    AllocResult() { bank_for_lane.fill(-1); }
};

/**
 * Input-first separable allocator.
 *
 * Stateless combinational logic; one object per SpMU so configuration
 * travels with it.
 */
class SeparableAllocator
{
  public:
    /**
     * @param lanes  Virtual input lanes (crossbar inputs).
     * @param banks  Banks (crossbar outputs); at most 32.
     * @param iterations  Allocation iterations (Capstan uses 3).
     */
    SeparableAllocator(int lanes, int banks, int iterations);

    int iterations() const { return iterations_; }

    /**
     * Run the allocator.
     *
     * @param iter_requests One request matrix per iteration. Iteration i
     *        sees iter_requests[min(i, size-1)]; matrices are normally
     *        supersets of their predecessors (expanding priority window).
     * @return grants: at most one bank per lane and one lane per bank.
     */
    AllocResult allocate(std::span<const RequestMatrix> iter_requests) const;

  private:
    int lanes_;
    int iterations_;
    /** Bit b set for each bank b below the bank count. */
    std::uint32_t bank_mask_;
};

} // namespace capstan::sim

