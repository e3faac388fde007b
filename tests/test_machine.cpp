/**
 * @file
 * Integration tests for the dataflow Machine (tile chains over the SpMU,
 * scanner, shuffle network, and DRAM models).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

#include "lang/machine.hpp"

using namespace capstan::lang;
using capstan::Index;
namespace sim = capstan::sim;
using sim::AccessOp;
using sim::CapstanConfig;
using sim::MemTech;

namespace {

CapstanConfig
idealConfig()
{
    return CapstanConfig::ideal();
}

CapstanConfig
hbmConfig()
{
    return CapstanConfig::capstan(MemTech::HBM2E);
}

Token
addrToken(const std::vector<std::uint32_t> &addrs)
{
    Token t;
    t.valid_mask = static_cast<std::uint16_t>((1u << addrs.size()) - 1);
    t.has_addr = true;
    for (std::size_t i = 0; i < addrs.size(); ++i)
        t.addr[i] = addrs[i];
    return t;
}

/**
 * Three phases on one machine, rebuilt through resetChains() with 4, 3
 * and 6 stages, so each chain takes over rings an earlier one grew:
 * cross-tile reads reduced in groups; scanner burns ahead of cross-tile
 * AddF32 updates; and a DRAM stream, a local SpMU read, a cross-tile
 * read and a cross-tile AddF32 in one chain. Every fifth tile idles;
 * a quarter of the lanes stay local. Returns the tokens the sinks must
 * retire.
 */
std::uint64_t
runCrossTileProgram(Machine &m, std::uint32_t seed)
{
    const int tiles = m.tiles();
    std::mt19937 rng(seed);
    auto tokensFor = [&](int t) {
        return t % 5 == 0 ? 0 : 1 + static_cast<int>(rng() % 40);
    };
    auto crossToken = [&]() {
        Token tok;
        int lanes = 1 + static_cast<int>(rng() % 16);
        tok.valid_mask = static_cast<std::uint16_t>((1u << lanes) - 1);
        tok.has_addr = true;
        tok.bytes = 64;
        for (int l = 0; l < lanes; ++l) {
            tok.addr[l] = rng() % 65536;
            tok.lane_tile[l] = static_cast<std::int8_t>(
                rng() % 4 == 0 ? -1 : static_cast<int>(rng() % tiles));
        }
        return tok;
    };
    std::uint64_t expected = 0;

    for (int t = 0; t < tiles; ++t) {
        m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::Read});
        m.addStage(t, {StageKind::Map, 2});
        m.addStage(t, {StageKind::Reduce, 1});
        m.addStage(t, {StageKind::Sink});
        int n = tokensFor(t);
        int groups = 0;
        for (int i = 0; i < n; ++i) {
            Token tok = crossToken();
            tok.end_group = i % 3 == 2 || i == n - 1;
            groups += tok.end_group ? 1 : 0;
            m.feed(t, tok);
        }
        expected += static_cast<std::uint64_t>((groups + 15) / 16);
    }
    m.runPhase();
    m.resetChains();

    for (int t = 0; t < tiles; ++t) {
        m.addStage(t, {StageKind::Scan, 1});
        m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::AddF32});
        m.addStage(t, {StageKind::Sink});
        int n = tokensFor(t);
        for (int i = 0; i < n; ++i) {
            Token tok = crossToken();
            tok.scan_skip = static_cast<std::int32_t>(rng() % 6);
            m.feed(t, tok);
        }
        expected += static_cast<std::uint64_t>(n);
    }
    m.runPhase();
    m.resetChains();

    for (int t = 0; t < tiles; ++t) {
        m.addStage(t, {StageKind::DramStream, 1});
        m.addStage(t, {StageKind::Spmu, 1, AccessOp::Read});
        m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::Read, 1024});
        m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::AddF32, 2048});
        m.addStage(t, {StageKind::Map, 1});
        m.addStage(t, {StageKind::Sink});
        int n = tokensFor(t);
        for (int i = 0; i < n; ++i)
            m.feed(t, crossToken());
        expected += static_cast<std::uint64_t>(n);
    }
    m.runPhase();
    return expected;
}

} // namespace

TEST(Machine, EmptyPhaseCostsNothing)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Sink});
    PhaseStats ps = m.runPhase();
    EXPECT_EQ(ps.cycles, 0u);
}

TEST(Machine, MapChainIsFullyPipelined)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Map, 3});
    m.addStage(0, {StageKind::Map, 3});
    m.addStage(0, {StageKind::Sink});
    const int n = 1000;
    for (int i = 0; i < n; ++i)
        m.feed(0, Token::compute(16));
    PhaseStats ps = m.runPhase();
    // II = 1: makespan ~ n + pipeline fill.
    EXPECT_GE(ps.cycles, static_cast<Cycle>(n));
    EXPECT_LT(ps.cycles, static_cast<Cycle>(n + 32));
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(n));
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 16.0 * n);
}

TEST(Machine, PartialVectorsCountVectorLengthIdle)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Map, 1});
    m.addStage(0, {StageKind::Sink});
    m.feed(0, Token::compute(4));
    m.feed(0, Token::compute(16));
    m.runPhase();
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 20.0);
    EXPECT_DOUBLE_EQ(m.totals().vector_idle_lane_cycles, 12.0);
}

TEST(Machine, ScanSkipBurnsScannerCycles)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Sink});
    Token t = Token::compute(16);
    t.scan_skip = 10;
    m.feed(0, t);
    PhaseStats ps = m.runPhase();
    EXPECT_DOUBLE_EQ(m.totals().scan_empty_cycles, 10.0);
    EXPECT_GE(ps.cycles, 11u);
}

TEST(Machine, FeedScanWindowsSplitsWideWindows)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Sink});
    // Windows: 0, 0, 40 bits, 0, 5 bits.
    m.feedScanWindows(0, {0, 0, 40, 0, 5});
    m.runPhase();
    // 40 bits -> tokens of 16/16/8; 5 bits -> one token of 5.
    EXPECT_EQ(m.totals().tokens, 4u);
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 45.0);
    EXPECT_DOUBLE_EQ(m.totals().scan_empty_cycles, 3.0);
}

TEST(Machine, NarrowScannerOutputsThrottle)
{
    CapstanConfig narrow = idealConfig();
    narrow.scanner.outputs = 4;
    Machine m4(narrow, 1);
    Machine m16(idealConfig(), 1);
    for (Machine *m : {&m4, &m16}) {
        m->addStage(0, {StageKind::Scan, 1});
        m->addStage(0, {StageKind::Sink});
        for (int i = 0; i < 200; ++i)
            m->feed(0, Token::compute(16));
    }
    Cycle c4 = m4.runPhase().cycles;
    Cycle c16 = m16.runPhase().cycles;
    EXPECT_GT(c4, 3 * c16);
}

TEST(Machine, SpmuStageRoundTripsTokens)
{
    Machine m(hbmConfig(), 1);
    m.addStage(0, {StageKind::Spmu, 1, AccessOp::Read});
    m.addStage(0, {StageKind::Sink});
    std::mt19937 rng(3);
    const int n = 300;
    for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(rng() % 65536);
        m.feed(0, addrToken(addrs));
    }
    PhaseStats ps = m.runPhase();
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(n));
    // Random banking cannot be faster than 1 vector/cycle and should be
    // near the SpMU's ~80% bank utilization bound.
    EXPECT_GE(ps.cycles, static_cast<Cycle>(n));
    EXPECT_LT(ps.cycles, static_cast<Cycle>(2.2 * n));
}

TEST(Machine, ArbitratedSpmuIsSlower)
{
    CapstanConfig fast = hbmConfig();
    CapstanConfig slow = hbmConfig();
    slow.spmu.ordering = sim::Ordering::Arbitrated;
    Machine mf(fast, 1);
    Machine ms(slow, 1);
    std::mt19937 rng(17);
    for (Machine *m : {&mf, &ms}) {
        m->addStage(0, {StageKind::Spmu, 1, AccessOp::Read});
        m->addStage(0, {StageKind::Sink});
    }
    for (int i = 0; i < 300; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(rng() % 65536);
        Token t = addrToken(addrs);
        mf.feed(0, t);
        ms.feed(0, t);
    }
    Cycle cf = mf.runPhase().cycles;
    Cycle cs = ms.runPhase().cycles;
    EXPECT_GT(cs, 2 * cf);
}

TEST(Machine, CrossTileAccessesRouteThroughShuffle)
{
    Machine m(hbmConfig(), 4);
    for (int t = 0; t < 4; ++t) {
        m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::AddF32});
        m.addStage(t, {StageKind::Sink});
    }
    std::mt19937 rng(7);
    const int n = 100;
    for (int t = 0; t < 4; ++t) {
        for (int i = 0; i < n; ++i) {
            Token tok = addrToken({});
            tok.valid_mask = 0xFFFF;
            tok.has_addr = true;
            for (int l = 0; l < 16; ++l) {
                tok.addr[l] = rng() % 65536;
                tok.lane_tile[l] = static_cast<std::int8_t>(rng() % 4);
            }
            m.feed(t, tok);
        }
    }
    PhaseStats ps = m.runPhase();
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(4 * n));
    EXPECT_GT(m.shuffle().stats().injected, 0u);
    EXPECT_GT(ps.cycles, 0u);
}

TEST(Machine, DramStreamIsBandwidthLimited)
{
    CapstanConfig ddr = CapstanConfig::capstan(MemTech::DDR4);
    Machine m(ddr, 1);
    m.addStage(0, {StageKind::DramStream, 1});
    m.addStage(0, {StageKind::Sink});
    const int n = 500;
    const std::uint32_t bytes_per_token = 256;
    for (int i = 0; i < n; ++i) {
        Token t = Token::compute(16);
        t.bytes = bytes_per_token;
        m.feed(0, t);
    }
    PhaseStats ps = m.runPhase();
    double bpc = ddr.dramBytesPerCycle(); // 42.5 B/cycle.
    double min_cycles = n * bytes_per_token / bpc;
    EXPECT_GT(ps.cycles, static_cast<Cycle>(0.9 * min_cycles));
    EXPECT_LT(ps.cycles, static_cast<Cycle>(1.5 * min_cycles));
}

TEST(Machine, HigherBandwidthDrainsStreamsFaster)
{
    auto run = [](MemTech tech) {
        CapstanConfig cfg = CapstanConfig::capstan(tech);
        Machine m(cfg, 1);
        m.addStage(0, {StageKind::DramStream, 1});
        m.addStage(0, {StageKind::Sink});
        for (int i = 0; i < 400; ++i) {
            Token t = Token::compute(16);
            t.bytes = 1024;
            m.feed(0, t);
        }
        return m.runPhase().cycles;
    };
    EXPECT_GT(run(MemTech::DDR4), 5 * run(MemTech::HBM2E));
}

TEST(Machine, DramAtomicCoalescesWithinBursts)
{
    CapstanConfig cfg = hbmConfig();
    Machine m(cfg, 1);
    m.addStage(0, {StageKind::DramAtomic, 1, AccessOp::AddF32});
    m.addStage(0, {StageKind::Sink});
    // All lanes in a token hit the same burst: one fetch per token.
    for (int i = 0; i < 50; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(i * 16 + l);
        m.feed(0, addrToken(addrs));
    }
    m.runPhase();
    EXPECT_EQ(m.totals().tokens, 50u);
    EXPECT_LT(m.dram().stats().bursts, 60u);
}

TEST(Machine, ReducePacksSixteenGroups)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Reduce, 2});
    m.addStage(0, {StageKind::Sink});
    // 32 groups of 3 tokens each.
    for (int g = 0; g < 32; ++g) {
        for (int i = 0; i < 3; ++i) {
            Token t = Token::compute(16);
            t.end_group = (i == 2);
            m.feed(0, t);
        }
    }
    m.runPhase();
    // 32 groups pack into two 16-lane result vectors.
    EXPECT_EQ(m.totals().tokens, 2u);
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 32.0);
}

TEST(Machine, ReduceFlushesPartialGroupsAtDrain)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Reduce, 2});
    m.addStage(0, {StageKind::Sink});
    for (int g = 0; g < 5; ++g) {
        Token t = Token::compute(16);
        t.end_group = true;
        m.feed(0, t);
    }
    m.runPhase();
    EXPECT_EQ(m.totals().tokens, 1u);
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 5.0);
}

TEST(Machine, ImbalanceCountsIdleTileTails)
{
    Machine m(idealConfig(), 2);
    for (int t = 0; t < 2; ++t) {
        m.addStage(t, {StageKind::Map, 1});
        m.addStage(t, {StageKind::Sink});
    }
    // Tile 0 gets 10x the work of tile 1.
    for (int i = 0; i < 1000; ++i)
        m.feed(0, Token::compute(16));
    for (int i = 0; i < 100; ++i)
        m.feed(1, Token::compute(16));
    PhaseStats ps = m.runPhase();
    EXPECT_GT(m.totals().imbalance_lane_cycles, 0.0);
    EXPECT_LT(ps.tile_finish[1], ps.tile_finish[0]);
}

TEST(Machine, MultiPhaseAccumulatesCycles)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Map, 1});
    m.addStage(0, {StageKind::Sink});
    for (int i = 0; i < 100; ++i)
        m.feed(0, Token::compute(16));
    Cycle c1 = m.runPhase().cycles;
    m.resetChains();
    m.addStage(0, {StageKind::Map, 1});
    m.addStage(0, {StageKind::Sink});
    for (int i = 0; i < 100; ++i)
        m.feed(0, Token::compute(16));
    Cycle c2 = m.runPhase().cycles;
    EXPECT_EQ(m.totals().cycles, c1 + c2);
    m.addBarrier(50);
    EXPECT_EQ(m.totals().cycles, c1 + c2 + 50);
}

TEST(Machine, MergeModeNoneForcesDramRoundTrips)
{
    CapstanConfig with_net = hbmConfig();
    CapstanConfig without = hbmConfig();
    without.shuffle.mode = sim::MergeMode::None;
    auto run = [](const CapstanConfig &cfg) {
        Machine m(cfg, 4);
        std::mt19937 rng(5);
        for (int t = 0; t < 4; ++t) {
            m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::AddF32});
            m.addStage(t, {StageKind::Sink});
        }
        for (int t = 0; t < 4; ++t) {
            for (int i = 0; i < 200; ++i) {
                Token tok;
                tok.valid_mask = 0xFFFF;
                tok.has_addr = true;
                for (int l = 0; l < 16; ++l) {
                    tok.addr[l] = rng() % 65536;
                    tok.lane_tile[l] =
                        static_cast<std::int8_t>(rng() % 4);
                }
                m.feed(t, tok);
            }
        }
        m.runPhase();
        return m.dram().stats().bursts;
    };
    EXPECT_EQ(run(with_net), 0u) << "shuffle keeps accesses on-chip";
    EXPECT_GT(run(without), 100u) << "no shuffle => DRAM atomics";
}

/** Property: token conservation through arbitrary random chains. */
TEST(MachineProperty, TokensConserved)
{
    std::mt19937 rng(99);
    for (int trial = 0; trial < 5; ++trial) {
        Machine m(hbmConfig(), 2);
        for (int t = 0; t < 2; ++t) {
            m.addStage(t, {StageKind::DramStream, 1});
            m.addStage(t, {StageKind::Spmu, 1, AccessOp::Read});
            m.addStage(t, {StageKind::Map, 2});
            m.addStage(t, {StageKind::Spmu, 1, AccessOp::AddF32});
            m.addStage(t, {StageKind::Sink});
        }
        int fed = 0;
        for (int t = 0; t < 2; ++t) {
            int n = 50 + static_cast<int>(rng() % 100);
            for (int i = 0; i < n; ++i) {
                Token tok;
                int lanes = 1 + static_cast<int>(rng() % 16);
                tok.valid_mask =
                    static_cast<std::uint16_t>((1u << lanes) - 1);
                tok.has_addr = true;
                tok.bytes = 64;
                for (int l = 0; l < lanes; ++l)
                    tok.addr[l] = rng() % 65536;
                m.feed(t, tok);
                ++fed;
            }
        }
        m.runPhase();
        ASSERT_EQ(m.totals().tokens, static_cast<std::uint64_t>(fed));
    }
}

/**
 * Property: a multi-phase cross-tile program on 64 tiles conserves
 * tokens, and its stats equal dense one-cycle stepping (CAPSTAN_NO_FF=1,
 * read per Machine): the work counters behind the jump horizons and the
 * refusal replay stay exact while rings change hands. Runs through the
 * shuffle (Mrg-1) and without it (two-leg reads, DRAM-atomic updates).
 */
TEST(MachineProperty, CrossTilePhasesMatchDenseStepping)
{
    ASSERT_EQ(std::getenv("CAPSTAN_NO_FF"), nullptr);
    for (sim::MergeMode mode : {sim::MergeMode::Mrg1, sim::MergeMode::None}) {
        SCOPED_TRACE(sim::mergeModeName(mode));
        CapstanConfig cfg = hbmConfig();
        cfg.shuffle.mode = mode;
        Machine fast(cfg, 64);
        std::uint64_t expected = runCrossTileProgram(fast, 41);
        ::setenv("CAPSTAN_NO_FF", "1", 1);
        Machine dense(cfg, 64);
        runCrossTileProgram(dense, 41);
        ::unsetenv("CAPSTAN_NO_FF");

        EXPECT_EQ(fast.totals().tokens, expected);
        EXPECT_EQ(dense.steppedCycles(), dense.totals().cycles);
        EXPECT_LT(fast.steppedTiles(), 64 * fast.steppedCycles());

        const RunTotals &a = fast.totals();
        const RunTotals &b = dense.totals();
        EXPECT_EQ(a.cycles, b.cycles);
        EXPECT_EQ(a.active_lane_cycles, b.active_lane_cycles);
        EXPECT_EQ(a.vector_idle_lane_cycles, b.vector_idle_lane_cycles);
        EXPECT_EQ(a.scan_empty_cycles, b.scan_empty_cycles);
        EXPECT_EQ(a.imbalance_lane_cycles, b.imbalance_lane_cycles);
        EXPECT_EQ(a.tokens, b.tokens);

        sim::SpmuStats sa = fast.spmuTotals();
        sim::SpmuStats sb = dense.spmuTotals();
        EXPECT_GT(sa.vectors_in, 0u);
        EXPECT_EQ(sa.cycles, sb.cycles);
        EXPECT_EQ(sa.grants, sb.grants);
        EXPECT_EQ(sa.vectors_in, sb.vectors_in);
        EXPECT_EQ(sa.vectors_out, sb.vectors_out);
        EXPECT_EQ(sa.enqueue_stalls, sb.enqueue_stalls);
        EXPECT_EQ(sa.elided_reads, sb.elided_reads);
        EXPECT_EQ(sa.splits, sb.splits);

        const sim::DramStats &da = fast.dram().stats();
        const sim::DramStats &db = dense.dram().stats();
        EXPECT_GT(da.bytes, 0u);
        EXPECT_EQ(da.bursts, db.bursts);
        EXPECT_EQ(da.reads, db.reads);
        EXPECT_EQ(da.writes, db.writes);
        EXPECT_EQ(da.row_hits, db.row_hits);
        EXPECT_EQ(da.row_misses, db.row_misses);
        EXPECT_EQ(da.bytes, db.bytes);
    }
}

TEST(Machine, SteppedCyclesVisitOnlyTilesWithWork)
{
    // Work on tile 0 only, and a token or a burn in its chain on every
    // cycle: each stepped cycle steps that one tile, not all 64.
    Machine m(hbmConfig(), 64);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Map, 3});
    m.addStage(0, {StageKind::DramStream, 1});
    m.addStage(0, {StageKind::Sink});
    for (int i = 0; i < 50; ++i) {
        Token t = Token::compute(16);
        t.scan_skip = i % 4;
        t.bytes = 64;
        m.feed(0, t);
    }
    m.runPhase();
    EXPECT_EQ(m.totals().tokens, 50u);
    EXPECT_GT(m.steppedCycles(), 0u);
    EXPECT_EQ(m.steppedTiles(), m.steppedCycles());
}
