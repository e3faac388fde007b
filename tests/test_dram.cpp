/**
 * @file
 * Tests for the DRAM model and the atomic address generator (Section 3.4).
 */

#include <gtest/gtest.h>

#include <random>
#include <set>
#include <vector>

#include "sim/dram.hpp"

using namespace capstan::sim;

namespace {

/** Random-burst completion time for a fixed number of bursts. */
Cycle
randomBurstDrain(DramModel &dram, int bursts, std::uint32_t seed)
{
    std::mt19937_64 rng(seed);
    Cycle done = 0;
    for (int i = 0; i < bursts; ++i) {
        std::uint64_t addr = (rng() % (1ull << 30)) & ~63ull;
        done = std::max(done, dram.access(addr, false, 0));
    }
    return done;
}

} // namespace

TEST(Dram, StreamThroughputApproachesPeakBandwidth)
{
    // A long stream moves the technology's bandwidth per core cycle;
    // only the access latency comes on top.
    for (MemTech tech : {MemTech::DDR4, MemTech::HBM2, MemTech::HBM2E}) {
        DramModel dram({.tech = tech});
        std::uint64_t bytes = 64ull << 20;
        Cycle done = dram.streamAccess(bytes, 0);
        double achieved = static_cast<double>(bytes) / done;
        double peak = memTechBandwidth(tech) / kClockGhz;
        EXPECT_LE(achieved, peak) << memTechName(tech);
        EXPECT_GT(achieved, 0.99 * peak) << memTechName(tech);
    }
}

TEST(Dram, RandomBurstsAreSlowerThanStreaming)
{
    DramModel d1({.tech = MemTech::DDR4});
    DramModel d2({.tech = MemTech::DDR4});
    int bursts = 4000;
    Cycle random_done = randomBurstDrain(d1, bursts, 42);
    Cycle stream_done = d2.streamAccess(
        static_cast<std::uint64_t>(bursts) * 64, 0);
    EXPECT_GT(random_done, stream_done)
        << "row misses must cost bandwidth";
    EXPECT_LT(d1.stats().rowHitRate(), 0.5);
}

TEST(Dram, SequentialBurstsHitOpenRows)
{
    DramModel dram({.tech = MemTech::HBM2E});
    // Enough bursts that the 32 channels x 16 banks of cold first
    // touches amortize away.
    for (int i = 0; i < 16384; ++i)
        dram.access(static_cast<std::uint64_t>(i) * 64, false, 0);
    EXPECT_GT(dram.stats().rowHitRate(), 0.9);
}

TEST(Dram, MoreBandwidthDrainsFaster)
{
    DramModel ddr4({.tech = MemTech::DDR4});
    DramModel hbm2e({.tech = MemTech::HBM2E});
    Cycle slow = randomBurstDrain(ddr4, 2000, 7);
    Cycle fast = randomBurstDrain(hbm2e, 2000, 7);
    EXPECT_LT(4 * fast, slow);
}

TEST(Dram, IdealMemoryIsInstant)
{
    DramModel dram({.tech = MemTech::Ideal});
    EXPECT_EQ(dram.access(12345 * 64, false, 77), 77u);
    EXPECT_EQ(dram.streamAccess(1 << 20, 99), 99u);
}

/**
 * Each technology's channel count and closed-page timing, as bursts
 * show them: the first burst on a closed row completes after one
 * burst's service time and the 32-cycle row-miss penalty, truncated to
 * a whole cycle, plus the 96-cycle access latency. Consecutive bursts
 * interleave over the channels, so one burst per channel completes at
 * once and the next waits behind channel 0.
 */
TEST(Dram, TechnologyTimingIsPinned)
{
    struct TechPoint
    {
        MemTech tech;
        int channels;
        Cycle first_burst;
    };
    const TechPoint points[] = {
        {MemTech::DDR4, 4, 6 + 32 + 96},   // 64 B at 10.6 B/cycle.
        {MemTech::HBM2, 16, 1 + 32 + 96},  // 64 B at 35.2 B/cycle.
        {MemTech::HBM2E, 32, 1 + 32 + 96}, // 64 B at 35.2 B/cycle.
    };
    const Cycle now = 1000;
    for (const TechPoint &p : points) {
        DramModel dram({.tech = p.tech});
        for (int c = 0; c < p.channels; ++c) {
            EXPECT_EQ(dram.access(static_cast<std::uint64_t>(c) * 64,
                                  false, now),
                      now + p.first_burst)
                << memTechName(p.tech) << " channel " << c;
        }
        EXPECT_GT(dram.access(static_cast<std::uint64_t>(p.channels) * 64,
                              false, now),
                  now + p.first_burst)
            << memTechName(p.tech);
        EXPECT_EQ(dram.stats().row_misses,
                  static_cast<std::uint64_t>(p.channels) + 1);
    }
}

TEST(Dram, DefaultConfigIsThePrimaryDesignPoint)
{
    EXPECT_TRUE(CapstanConfig{} == CapstanConfig::capstan());
}

TEST(Dram, StatsCountReadsAndWrites)
{
    DramModel dram({.tech = MemTech::DDR4});
    dram.access(0, false, 0);
    dram.access(64, true, 0);
    dram.access(128, true, 0);
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 2u);
    EXPECT_EQ(dram.stats().bursts, 3u);
    EXPECT_EQ(dram.stats().bytes, 192u);
}

TEST(AddressGenerator, CoalescesAccessesWithinABurst)
{
    DramModel dram({.tech = MemTech::DDR4});
    AddressGenerator ag(dram);
    // 16 words, all within one 64 B burst.
    std::vector<std::uint64_t> addrs;
    for (int i = 0; i < 16; ++i)
        addrs.push_back(1024 + 4 * i);
    ag.atomicVector(addrs, 0);
    // One fetch serves all sixteen lanes; nothing is written back yet.
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_EQ(dram.stats().writes, 0u);
}

TEST(AddressGenerator, ReusedBurstsStayBuffered)
{
    DramModel dram({.tech = MemTech::DDR4});
    AddressGenerator ag(dram);
    std::vector<std::uint64_t> addrs = {4096};
    Cycle first = ag.atomicVector(addrs, 0);
    Cycle second = ag.atomicVector(addrs, first);
    EXPECT_EQ(dram.stats().reads, 1u);
    EXPECT_GE(second, first);
    EXPECT_LE(second, first + 2) << "buffered burst executes immediately";
}

TEST(AddressGenerator, EvictionWritesBackDirtyBursts)
{
    DramModel dram({.tech = MemTech::DDR4});
    AddressGenerator ag(dram, /*table_entries=*/4);
    Cycle now = 0;
    for (int i = 0; i < 8; ++i) {
        std::vector<std::uint64_t> addrs = {
            static_cast<std::uint64_t>(i) * 64};
        now = ag.atomicVector(addrs, now);
    }
    EXPECT_EQ(dram.stats().reads, 8u);
    EXPECT_EQ(dram.stats().writes, 4u);
    ag.flush(now);
    EXPECT_EQ(dram.stats().writes, 8u);
}

TEST(AddressGenerator, FlushOnEmptyTableIsANoOp)
{
    DramModel dram({.tech = MemTech::DDR4});
    AddressGenerator ag(dram);
    EXPECT_EQ(ag.flush(5), 5u);
    EXPECT_EQ(dram.stats().bursts, 0u);
}

/** Property: completion cycles are monotone in submission time. */
TEST(DramProperty, CompletionMonotoneInTime)
{
    DramModel dram({.tech = MemTech::HBM2});
    std::mt19937_64 rng(11);
    Cycle prev_done = 0;
    Cycle now = 0;
    for (int i = 0; i < 500; ++i) {
        now += rng() % 4;
        std::uint64_t addr = (rng() % (1ull << 28)) & ~63ull;
        Cycle done = dram.access(addr, rng() % 2 == 0, now);
        ASSERT_GE(done, now);
        // Same-channel ordering is preserved by construction; global
        // completions may interleave, but never precede submission.
        prev_done = std::max(prev_done, done);
    }
    SUCCEED();
}

/**
 * Property: while the table holds every burst touched, the AG fetches
 * each burst once, whatever the access order, and writes each back
 * once at flush.
 */
TEST(AddressGeneratorProperty, BufferedBurstsAreFetchedOnce)
{
    DramModel dram({.tech = MemTech::HBM2E});
    AddressGenerator ag(dram, 32);
    std::mt19937_64 rng(23);
    std::set<std::uint64_t> bursts;
    Cycle now = 0;
    for (int v = 0; v < 100; ++v) {
        std::vector<std::uint64_t> addrs;
        for (int l = 0; l < 16; ++l) {
            // 512 words: the 32 bursts the table holds.
            addrs.push_back((rng() % 512) * 4);
            bursts.insert(addrs.back() / kDramBurstBytes);
        }
        now = ag.atomicVector(addrs, now);
    }
    EXPECT_EQ(dram.stats().reads, bursts.size());
    EXPECT_EQ(dram.stats().writes, 0u);
    ag.flush(now);
    EXPECT_EQ(dram.stats().writes, bursts.size());
}
