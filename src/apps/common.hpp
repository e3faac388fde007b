/**
 * @file
 * Shared types and helpers for the Capstan applications (Table 2).
 *
 * Every application has two halves. A golden `*Reference` function
 * computes its functional result on the host, and is what tests and
 * examples read. A `run*` function lowers each phase's loop body to one
 * linear stage chain that every tile runs, fed by a stream of
 * vector-granularity tokens (one lang::TokenStream per tile and phase,
 * which the Machine pulls as it consumes), and returns the timing the
 * Machine supplies. Only BFS and SSSP also return a functional result
 * from their runs: their frontier expansion is the run's own execution
 * and drives their token streams.
 */

#pragma once

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "lang/machine.hpp"
#include "lang/timing.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"

namespace capstan::apps {

using lang::AppTiming;
using lang::Machine;
using lang::StageKind;
using lang::StageSpec;
using lang::Token;
using lang::TokenStream;
using sim::CapstanConfig;
using sim::Cycle;

/** Latency of a vectorized arithmetic stage (CU pipeline depth). */
constexpr Cycle kMapLatency = 4;

/**
 * The chain of a phase that only moves data between DRAM and the
 * chip: a load ahead of a kernel, or a write-back after one.
 */
inline const std::vector<StageSpec> kDramOnlyChain = {
    {StageKind::DramStream, 1},
    {StageKind::Sink},
};

/**
 * Live lanes of the 16-lane chunk at item @p base of @p count work
 * items: apps chunk items with `base += sim::kMaxLanes`, and the last
 * chunk may be partial.
 */
inline int
chunkLanes(Index64 count, Index64 base)
{
    return static_cast<int>(
        std::min<Index64>(sim::kMaxLanes, count - base));
}

/**
 * @p count work items in 16-lane compute tokens, each carrying
 * @p bytes_per_lane DRAM bytes per live lane; with @p close_group the
 * last token closes a reduction group.
 */
TokenStream laneChunks(Index count, std::uint32_t bytes_per_lane,
                       bool close_group = false);

/** @p bytes of DRAM transfer in full-lane tokens of at most 4 KiB. */
TokenStream dramBursts(Index64 bytes);

/**
 * Effective whole-stream compression ratio when @p pointer_fraction of
 * the app's DRAM bytes are the given pointer array (compressed with the
 * base/offset burst code, Section 3.4) and the rest is incompressible
 * data. Used to parameterize Machine::setStreamCompression.
 */
double streamCompressionRatio(std::span<const Index> pointers,
                              double pointer_fraction);

} // namespace capstan::apps

