/**
 * @file
 * Architectural configuration for the Capstan simulator (Table 7).
 *
 * The paper evaluates one machine shape, so the parameters Table 7 fixes
 * (lanes, SRAM banks, clock, grid size, DRAM burst and banking) are
 * named constants here. A CapstanConfig holds only what a preset, option
 * or study varies: SpMU queue depth, crossbar speedup, priorities, bank
 * hashing, ordering and sparse extensions; scanner width and output
 * vectorization; shuffle merge mode; memory technology. What follows
 * from these (DRAM channels and timing, shuffle ports) is derived where
 * it is used. The named constructors produce the paper's design points.
 */

#pragma once

#include <compare>
#include <cstdint>
#include <string>

#include "sparse/types.hpp"

namespace capstan::sim {

/** Simulation time, in core clock cycles (kClockGhz). */
using Cycle = std::uint64_t;

/** SIMD lanes per compute/memory unit; Table 7 fixes l = 16. */
constexpr int kMaxLanes = 16;

/**
 * Most tiles a machine (and so a --tiles option) can have: a lane's
 * owning tile (lang::Token::lane_tile) and a shuffle path's stage and
 * merge unit are int8_t, so indices stop at 127.
 */
constexpr int kMaxTiles = 128;

/** SRAM banks per SpMU (1R1W each); Table 7 fixes b = 16. */
constexpr int kSpmuBanks = 16;

/**
 * Deepest SpMU issue queue (a --queue-depth option's upper bound): the
 * SpMU finds a grant's slot in a 64-bit mask of queue positions.
 * Table 4 sweeps depths 8-32.
 */
constexpr int kMaxQueueDepth = 64;

/** Separable-allocator iterations of the full allocator (Table 4). */
constexpr int kAllocIterations = 3;

/** Counters in the SpMU's address-order Bloom filter. */
constexpr int kBloomEntries = 128;

/** SpMU grant -> data-back latency in cycles (Fig. 3b). */
constexpr Cycle kSpmuPipelineLatency = 2;

/** Core clock of every design point, in GHz (Table 7). */
constexpr double kClockGhz = 1.6;

/** Compute and memory units on the chip (Table 7's 200 + 200 grid). */
constexpr int kGridComputeUnits = 200;
constexpr int kGridMemoryUnits = 200;

/** DRAM banks per channel. */
constexpr int kDramBanksPerChannel = 16;

/** DRAM burst size in bytes: the address generators' request unit. */
constexpr int kDramBurstBytes = 64;

/** Off-chip memory technology points evaluated in the paper (Table 7). */
enum class MemTech {
    DDR4,   //!< DDR4-2133, 68 GB/s.
    HBM2,   //!< HBM2, 900 GB/s.
    HBM2E,  //!< HBM2E, 1800 GB/s (primary design point).
    Ideal,  //!< Zero-latency, infinite-bandwidth (synthetic analyses).
};

/** Peak bandwidth for a technology point, in GB/s. */
double memTechBandwidth(MemTech tech);

/** Human-readable name. */
std::string memTechName(MemTech tech);

/** SpMU memory ordering modes (Table 3). */
enum class Ordering {
    Unordered,      //!< Accesses complete once, in arbitrary order.
    AddressOrdered, //!< Same-address accesses keep program order.
    FullyOrdered,   //!< All accesses complete in program order.
    Arbitrated,     //!< Plasticine-style baseline: one vector at a time,
                    //!< reordering only within the head vector.
};

std::string orderingName(Ordering mode);

/** Bank-index mapping for SpMU addresses (Section 3.1). */
enum class BankHash {
    Linear, //!< Naive low-bits mapping; pathological for 2^n strides.
    Xor,    //!< a[0:3] ^ a[4:7] ^ a[8:11] ^ a[12:15] nibble fold.
};

std::string bankHashName(BankHash hash);

/** Allocator strength points used in Table 9. */
enum class AllocatorKind {
    Full, //!< Multi-iteration, multi-priority separable allocator.
    Weak, //!< Single-iteration, single-priority (greedy) allocator.
};

std::string allocatorKindName(AllocatorKind kind);

/** Shuffle-network merge flexibility (Table 11). */
enum class MergeMode {
    None,  //!< No shuffle network: cross-tile accesses go through DRAM.
    Mrg0,  //!< Merge without lane shifting.
    Mrg1,  //!< Merge with +/- one lane of shifting (primary design).
    Mrg16, //!< Full-crossbar shifting.
};

std::string mergeModeName(MergeMode mode);

/** Sparse memory unit parameters (Section 3.1). */
struct SpmuConfig
{
    int queue_depth = 16;     //!< Issue-queue depth d (vectors).
    int input_speedup = 1;    //!< 1 => l x b crossbar; 2 => 2l x b.
    int priorities = 3;       //!< Age-priority classes (Table 4).
    BankHash hash = BankHash::Xor;
    AllocatorKind allocator = AllocatorKind::Full;
    Ordering ordering = Ordering::Unordered;
    bool ideal = false;       //!< Ideal SpMU: no bank conflicts (Table 9).
    /**
     * False for the Plasticine baseline (Section 5): a read-modify-write
     * lane issues twice (read, then write), an arbitrated memory serves
     * one access per cycle, and the DRAM address generators track no
     * pending bursts.
     */
    bool sparse_support = true;

    auto operator<=>(const SpmuConfig &) const = default;
};

/** Scanner parameters (Section 3.3). */
struct ScannerConfig
{
    int window_bits = 256; //!< Bits examined per cycle (bit scanner).
    int outputs = 16;      //!< Indices produced per cycle.
    int data_elements = 16;//!< Elements examined per cycle (data scanner).

    auto operator<=>(const ScannerConfig &) const = default;
};

/** Shuffle-network parameters (Section 3.2); a Machine derives its own. */
struct ShuffleConfig
{
    MergeMode mode = MergeMode::Mrg1;
    int ports = 16;         //!< Ports per network instance.
    int fifo_depth = 64;    //!< Inverse-permutation FIFO entries.

    auto operator<=>(const ShuffleConfig &) const = default;
};

/** DRAM parameters (Section 3.4); channels and timing follow `tech`. */
struct DramConfig
{
    MemTech tech = MemTech::HBM2E;
    bool compression = false; //!< Read-only pointer-tile compression.
    /** When positive, overrides the technology bandwidth (Fig. 5a). */
    double bandwidth_override_gbps = 0.0;

    auto operator<=>(const DramConfig &) const = default;
};

/** Whole-chip configuration (Table 7 defaults). */
struct CapstanConfig
{
    Cycle network_hop_latency = 4; //!< Per-hop pipelined link latency.

    SpmuConfig spmu;
    ScannerConfig scanner;
    MergeMode merge = MergeMode::Mrg1; //!< Shuffle-network merge mode.
    DramConfig dram;

    /**
     * Memberwise comparison: equal configs simulate identically, which
     * is what lets the report planner merge points (report/study.hpp).
     */
    auto operator<=>(const CapstanConfig &) const = default;

    /** The paper's primary Capstan design point. */
    static CapstanConfig capstan(MemTech tech = MemTech::HBM2E);

    /**
     * The Plasticine baseline: no SpMU scheduling (arbitrated, one vector
     * at a time), no scanner (scalar sparse iteration), no sparse
     * extensions (SpmuConfig::sparse_support), no shuffle network.
     */
    static CapstanConfig plasticine(MemTech tech = MemTech::HBM2E);

    /** Capstan with an ideal network and memory (Table 12, first row). */
    static CapstanConfig ideal();
};

} // namespace capstan::sim

