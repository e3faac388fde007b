/**
 * @file
 * Vector-granularity work tokens for the dataflow executor.
 *
 * Capstan executes loop nests as streaming pipelines of 16-lane vectors.
 * A Token is one such vector travelling between pipeline stages: it knows
 * which lanes are live, the addresses a memory stage should touch, how
 * many DRAM bytes it represents, and whether it closes a reduction group.
 * Tokens carry no functional payload: applications execute functionally
 * on the host and emit tokens purely for timing (the co-simulation
 * pattern, src/apps/common.hpp).
 */

#pragma once

#include <array>
#include <bit>
#include <cstdint>

#include "sim/config.hpp"

namespace capstan::lang {

using sim::Cycle;

/** One 16-lane unit of work flowing through a tile pipeline. */
struct Token
{
    /** Lane occupancy; popcount is the useful-work lane count. */
    std::uint16_t valid_mask = 0xFFFF;

    /**
     * Per-lane word addresses, read by the memory stages for the lanes
     * in valid_mask (each stage adds its own addr_offset).
     */
    std::array<std::uint32_t, sim::kMaxLanes> addr{};

    /**
     * Per-lane owning tile for cross-tile memory stages; -1 means the
     * issuing tile's own memory.
     */
    std::array<std::int8_t, sim::kMaxLanes> lane_tile{};

    /** DRAM bytes that must stream in before this token can proceed. */
    std::uint32_t bytes = 0;

    /**
     * All-zero scanner windows the scan header must traverse before
     * this token's window (each costs one scanner cycle; the Scan
     * stall class of Fig. 7).
     */
    std::int32_t scan_skip = 0;

    /** Elements examined by a data-scan window (dense input length). */
    std::int32_t scan_elems = 0;

    /** Closes a reduction group (Reduce emits on seeing this). */
    bool end_group = false;

    /** Earliest cycle the next stage may consume this token. */
    Cycle ready_at = 0;

    int validLanes() const { return std::popcount(valid_mask); }

    /** Convenience: a plain compute token with @p lanes live lanes. */
    static Token compute(int lanes)
    {
        Token t;
        t.valid_mask =
            lanes >= sim::kMaxLanes
                ? 0xFFFF
                : static_cast<std::uint16_t>((1u << lanes) - 1);
        return t;
    }

};

} // namespace capstan::lang

