/**
 * @file
 * Off-chip memory model: channels, banks, row buffers, and the atomic
 * address-generator pipeline (Section 3.4).
 *
 * The paper drives its simulator with Ramulator; Ramulator is not
 * available offline, so this is a compact banked-DRAM substitute:
 * per-channel service queues at the technology's per-channel
 * bandwidth, a row-buffer hit/miss model per bank, 64 B bursts, and a
 * fixed pipeline latency, all set by the technology: DDR4-2133 (68 GB/s),
 * HBM2 (900 GB/s) or HBM2E (1800 GB/s); dram.cpp holds the timing table.
 *
 * The AddressGenerator layers Capstan's atomic-DRAM support on top: it
 * tracks outstanding bursts, coalesces accesses that hit a pending or
 * buffered burst, executes read-modify-writes against the buffered data,
 * and pends reads that would race an outstanding writeback.
 */

#pragma once

#include <cstdint>
#include <span>
#include <map>
#include <vector>

#include "sim/config.hpp"

namespace capstan::sim {

/** Aggregate DRAM statistics. */
struct DramStats
{
    std::uint64_t bursts = 0;
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t row_hits = 0;
    std::uint64_t row_misses = 0;
    std::uint64_t bytes = 0;

    double rowHitRate() const
    {
        std::uint64_t total = row_hits + row_misses;
        return total == 0 ? 0.0
                          : static_cast<double>(row_hits) / total;
    }
};

/**
 * Transaction-level banked DRAM model.
 *
 * access() returns the completion cycle of one 64 B burst given the
 * current cycle; the model advances channel occupancy internally, so
 * callers submit requests in non-decreasing `now` order per channel for
 * sensible results (the executor steps time monotonically).
 */
class DramModel
{
  public:
    /** Bandwidths convert to bytes per core cycle at kClockGhz. */
    explicit DramModel(const DramConfig &cfg);

    /** Completion cycle for a burst at @p byte_addr submitted at @p now. */
    Cycle access(std::uint64_t byte_addr, bool write, Cycle now);

    /**
     * Completion cycle for a sequential stream of @p bytes submitted at
     * @p now. Streams are bandwidth-limited and row-friendly: the bytes
     * are spread across every channel (no row-miss penalty), so streams
     * and random bursts share the same bandwidth ledger.
     */
    Cycle streamAccess(std::uint64_t bytes, Cycle now);

    const DramStats &stats() const { return stats_; }

  private:
    struct BankState
    {
        std::uint64_t open_row = ~0ull;
    };

    DramConfig cfg_;
    int channels_;                  //!< From the technology.
    Cycle latency_;                 //!< Closed-page access latency.
    Cycle row_miss_penalty_;
    double channel_bytes_per_cycle_;
    double burst_cycles_;           //!< Channel occupancy per burst.
    std::vector<double> channel_free_;
    /** [channel * kDramBanksPerChannel + bank]. */
    std::vector<BankState> banks_;
    DramStats stats_;
};

/**
 * DRAM address generator with atomic read-modify-write support.
 *
 * Tracks up to `table_entries` outstanding 64 B bursts. Accesses hitting
 * a buffered burst execute immediately; accesses to an in-flight burst
 * chain onto its arrival; misses fetch the burst (evicting the oldest
 * buffered burst with a writeback when full). A read arriving while its
 * burst is being written back pends until the write completes, so reads
 * never race writes.
 */
class AddressGenerator
{
  public:
    AddressGenerator(DramModel &dram, int table_entries = 64);

    /**
     * Execute one vector of atomic word accesses at @p now.
     * @return cycle when every lane has executed.
     */
    Cycle atomicVector(std::span<const std::uint64_t> byte_addrs, Cycle now);

    /** Flush buffered dirty bursts; returns completion of the last. */
    Cycle flush(Cycle now);

  private:
    struct BurstEntry
    {
        Cycle ready_at = 0;     //!< When the data is present.
        Cycle last_use = 0;
        bool dirty = false;
        Cycle writeback_done = 0; //!< Reads must wait past this.
    };

    DramModel &dram_;
    int table_entries_;
    /**
     * Ordered by burst address so every iteration — the LRU eviction
     * scan (tie-broken toward the lowest burst) and flush()'s writeback
     * order — is identical on every platform. A hash map here made
     * those orders depend on the standard library's bucket layout
     * (capstan-lint: determinism).
     * The table holds at most `table_entries` (<= 64) bursts, so the
     * tree's log-depth costs nothing measurable.
     */
    std::map<std::uint64_t, BurstEntry> table_;
};

} // namespace capstan::sim

