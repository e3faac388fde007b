#include "sim/dram.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace capstan::sim {

namespace {

/** Row size in bytes: what one activate opens in a bank. */
constexpr std::uint64_t kRowBytes = 2048;

/** A technology's channel count and closed-page timing (cycles). */
struct TechTiming
{
    int channels;
    Cycle latency;
    Cycle row_miss_penalty;
};

/** Indexed by MemTech. */
constexpr TechTiming kTechTiming[] = {
    {4, 96, 32},  // DDR4
    {16, 96, 32}, // HBM2
    {32, 96, 32}, // HBM2E
    {64, 0, 0},   // Ideal
};

} // namespace

DramModel::DramModel(const DramConfig &cfg) : cfg_(cfg)
{
    const TechTiming &t = kTechTiming[static_cast<int>(cfg.tech)];
    channels_ = t.channels;
    latency_ = t.latency;
    row_miss_penalty_ = t.row_miss_penalty;
    channel_bytes_per_cycle_ = (cfg.bandwidth_override_gbps > 0
                                    ? cfg.bandwidth_override_gbps
                                    : memTechBandwidth(cfg.tech)) /
                               kClockGhz / channels_;
    burst_cycles_ = std::max(1.0, kDramBurstBytes /
                                      channel_bytes_per_cycle_);
    channel_free_.assign(channels_, 0);
    banks_.resize(static_cast<std::size_t>(channels_) *
                  kDramBanksPerChannel);
}

Cycle
DramModel::access(std::uint64_t byte_addr, bool write, Cycle now)
{
    ++stats_.bursts;
    stats_.bytes += kDramBurstBytes;
    if (write)
        ++stats_.writes;
    else
        ++stats_.reads;

    if (cfg_.tech == MemTech::Ideal)
        return now;

    std::uint64_t burst = byte_addr / kDramBurstBytes;
    int channel = static_cast<int>(burst % channels_);
    std::uint64_t per_channel = burst / channels_;
    int bank = static_cast<int>(per_channel % kDramBanksPerChannel);
    std::uint64_t row =
        byte_addr / (kRowBytes * channels_ * kDramBanksPerChannel);

    BankState &bs = banks_[static_cast<std::size_t>(channel) *
                               kDramBanksPerChannel +
                           bank];
    double service = burst_cycles_;
    if (bs.open_row != row) {
        service += static_cast<double>(row_miss_penalty_);
        bs.open_row = row;
        ++stats_.row_misses;
    } else {
        ++stats_.row_hits;
    }

    double start = std::max(static_cast<double>(now),
                            channel_free_[channel]);
    channel_free_[channel] = start + service;
    return static_cast<Cycle>(start + service) + latency_;
}

Cycle
DramModel::streamAccess(std::uint64_t bytes, Cycle now)
{
    ++stats_.bursts;
    stats_.bytes += bytes;
    ++stats_.reads;
    if (cfg_.tech == MemTech::Ideal)
        return now;
    // Spread the transfer over every channel so streams and random
    // bursts contend for the same bandwidth.
    double per_channel = static_cast<double>(bytes) / channels_ /
                         channel_bytes_per_cycle_;
    double done = 0.0;
    for (double &free : channel_free_) {
        free = std::max(static_cast<double>(now), free) + per_channel;
        done = std::max(done, free);
    }
    return static_cast<Cycle>(done) + latency_;
}

AddressGenerator::AddressGenerator(DramModel &dram, int table_entries)
    : dram_(dram), table_entries_(table_entries)
{
    CAPSTAN_CHECK(table_entries > 0);
}

Cycle
AddressGenerator::atomicVector(std::span<const std::uint64_t> byte_addrs,
                               Cycle now)
{
    Cycle done = now;
    for (std::uint64_t addr : byte_addrs) {
        std::uint64_t burst = addr / kDramBurstBytes;
        auto it = table_.find(burst);
        if (it != table_.end()) {
            BurstEntry &e = it->second;
            // Chain onto the burst's arrival; a read racing an in-flight
            // writeback pends until the write returns.
            Cycle exec = std::max({now, e.ready_at, e.writeback_done}) + 1;
            e.last_use = exec;
            e.dirty = true;
            done = std::max(done, exec);
            continue;
        }
        // Miss: evict the least-recently-used entry if full.
        if (static_cast<int>(table_.size()) >= table_entries_) {
            auto victim = table_.begin();
            for (auto j = table_.begin(); j != table_.end(); ++j) {
                if (j->second.last_use < victim->second.last_use)
                    victim = j;
            }
            if (victim->second.dirty)
                dram_.access(victim->first * kDramBurstBytes, true, now);
            table_.erase(victim);
        }
        Cycle ready = dram_.access(addr, false, now);
        BurstEntry e;
        e.ready_at = ready;
        e.last_use = ready + 1;
        e.dirty = true;
        table_.emplace(burst, e);
        done = std::max(done, ready + 1);
    }
    return done;
}

Cycle
AddressGenerator::flush(Cycle now)
{
    Cycle done = now;
    for (auto &[burst, e] : table_) {
        if (e.dirty) {
            done = std::max(done, dram_.access(burst * kDramBurstBytes, true,
                                               std::max(now, e.ready_at)));
            e.dirty = false;
        }
    }
    table_.clear();
    return done;
}

} // namespace capstan::sim
