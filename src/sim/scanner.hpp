/**
 * @file
 * Scanner: vectorized sparse loop headers (Section 3.3, Fig. 3f).
 *
 * The bit-vector scanner combines two occupancy inputs (union or
 * intersection), finds up to V set bits per cycle within a W-bit window,
 * and emits dense indices plus prefix-sum compressed indices. The data
 * scanner examines E elements per cycle; lang::Machine's DataScan stage
 * times it.
 *
 * The model is timing-only: a W-bit window costs at least one cycle even
 * when it holds no set bits (the Scan stall class in Fig. 7), and a
 * window with p set bits costs ceil(p / V) cycles.
 */

#pragma once

#include <cstdint>
#include <vector>

#include "sim/config.hpp"
#include "sparse/bitvector.hpp"

namespace capstan::sim {

/** Scan combine mode. */
enum class ScanMode { Intersect, Union };

/** Timing outcome of scanning a region. */
struct ScanTiming
{
    Cycle cycles = 0;          //!< Total scanner-occupied cycles.
    Cycle empty_window_cycles = 0; //!< Cycles spent on all-zero windows.
    std::uint64_t output_vectors = 0; //!< Emitted index vectors.
    std::uint64_t outputs = 0; //!< Emitted loop indices (set bits found).
};

/**
 * Cycle-cost model of the bit-vector scanner.
 *
 * Stateless; one instance per CU configuration.
 */
class ScannerModel
{
  public:
    explicit ScannerModel(const ScannerConfig &cfg) : cfg_(cfg) {}

    /** Cycles to drain one window containing @p popcount set bits. */
    Cycle cyclesForWindow(Index popcount) const;

    /**
     * Scan a whole region given per-window popcounts (after combining).
     * The region is walked window by window; empty windows still burn a
     * cycle each, which is how low-density inputs lose throughput.
     */
    ScanTiming scanRegion(const std::vector<Index> &window_popcounts) const;

    /** Convenience: scan the combination of two bit-vectors. */
    ScanTiming scanBitVectors(const sparse::BitVector &a,
                              const sparse::BitVector &b,
                              ScanMode mode) const;

  private:
    ScannerConfig cfg_;
};

} // namespace capstan::sim

