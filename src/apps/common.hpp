/**
 * @file
 * Shared types and helpers for the Capstan applications (Table 2).
 *
 * Every application has two halves. A golden `*Reference` function
 * computes its functional result on the host, and is what tests and
 * examples read. A `run*` function lowers each tile's work to a linear
 * stage chain fed with vector-granularity tokens, and returns the
 * timing the Machine supplies. Only BFS and SSSP also return a
 * functional result from their runs: their frontier expansion is the
 * run's own execution and drives their token streams.
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
using sim::CapstanConfig;
using sim::Cycle;

/** Default outer parallelism when the caller does not specify one. */
constexpr int kDefaultTiles = 16;

/** Latency of a vectorized arithmetic stage (CU pipeline depth). */
constexpr Cycle kMapLatency = 4;

/**
 * Chunk @p count work items into 16-lane tokens and hand each to
 * @p emit. The last token may be partial.
 */
template <typename EmitFn>
void
emitChunks(Index count, EmitFn &&emit)
{
    for (Index base = 0; base < count; base += sim::kMaxLanes) {
        int lanes = static_cast<int>(
            std::min<Index>(sim::kMaxLanes, count - base));
        emit(base, lanes);
    }
}

/**
 * Effective whole-stream compression ratio when @p pointer_fraction of
 * the app's DRAM bytes are the given pointer array (compressed with the
 * base/offset burst code, Section 3.4) and the rest is incompressible
 * data. Used to parameterize Machine::setStreamCompression.
 */
double streamCompressionRatio(std::span<const Index> pointers,
                              double pointer_fraction);

} // namespace capstan::apps

