/**
 * @file
 * Integration tests for the dataflow Machine (tile chains over the SpMU,
 * scanner, shuffle network, and DRAM models).
 */

#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lang/machine.hpp"
#include "token_streams.hpp"

using namespace capstan::lang;
using capstan::Index;
using capstan::test::repeated;
using capstan::test::scanWindows;
using capstan::test::tokenStream;
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
        std::vector<Token> toks;
        for (int i = 0; i < n; ++i) {
            Token tok = crossToken();
            tok.end_group = i % 3 == 2 || i == n - 1;
            groups += tok.end_group ? 1 : 0;
            toks.push_back(tok);
        }
        m.feed(t, tokenStream(std::move(toks)));
        expected += static_cast<std::uint64_t>((groups + 15) / 16);
    }
    m.runPhase();
    m.resetChains();

    for (int t = 0; t < tiles; ++t) {
        m.addStage(t, {StageKind::Scan, 1});
        m.addStage(t, {StageKind::SpmuCross, 1, AccessOp::AddF32});
        m.addStage(t, {StageKind::Sink});
        int n = tokensFor(t);
        std::vector<Token> toks;
        for (int i = 0; i < n; ++i) {
            Token tok = crossToken();
            tok.scan_skip = static_cast<std::int32_t>(rng() % 6);
            toks.push_back(tok);
        }
        m.feed(t, tokenStream(std::move(toks)));
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
        std::vector<Token> toks;
        for (int i = 0; i < n; ++i)
            toks.push_back(crossToken());
        m.feed(t, tokenStream(std::move(toks)));
        expected += static_cast<std::uint64_t>(n);
    }
    m.runPhase();
    return expected;
}

/** The statistics one run of runCrossTileProgram() exposes. */
struct CrossTileStats
{
    RunTotals totals;
    sim::SpmuStats spmu;
    sim::DramStats dram;
};

/**
 * @p n full tokens, counting each one yielded in @p yielded; the frame
 * holds a copy of the pointer until the stream is destroyed.
 */
TokenStream
countedTokens(std::shared_ptr<int> yielded, int n)
{
    for (int i = 0; i < n; ++i) {
        ++*yielded;
        co_yield Token::compute(16);
    }
}

/** @p n full tokens, then the producer throws. */
TokenStream
failingTokens(int n)
{
    for (int i = 0; i < n; ++i)
        co_yield Token::compute(16);
    throw std::runtime_error("producer failed");
}

/** A Map -> Sink chain on every tile of @p m. */
void
mapChains(Machine &m)
{
    for (int t = 0; t < m.tiles(); ++t) {
        m.addStage(t, {StageKind::Map, 1});
        m.addStage(t, {StageKind::Sink});
    }
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
    m.feed(0, repeated(Token::compute(16), n));
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
    m.feed(0, tokenStream({Token::compute(4), Token::compute(16)}));
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
    m.feed(0, tokenStream({t}));
    PhaseStats ps = m.runPhase();
    EXPECT_DOUBLE_EQ(m.totals().scan_empty_cycles, 10.0);
    EXPECT_GE(ps.cycles, 11u);
}

TEST(Machine, ScanWindowsSplitWideWindows)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Sink});
    // Windows: 0, 0, 40 bits, 0, 5 bits.
    m.feed(0, scanWindows({0, 0, 40, 0, 5}));
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
        m->feed(0, repeated(Token::compute(16), 200));
    }
    Cycle c4 = m4.runPhase().cycles;
    Cycle c16 = m16.runPhase().cycles;
    EXPECT_GT(c4, 3 * c16);
}

TEST(Machine, DataScanAdvancesDataElementsPerCycle)
{
    // A data-scan token sweeps scan_elems dense elements at
    // data_elements per cycle (at least one cycle each), whatever its
    // lane count: 64 elements cost 4 cycles at 16 per cycle and 64
    // cycles at Plasticine's 1.
    auto run = [](int data_elements, std::int32_t elems) {
        CapstanConfig cfg = idealConfig();
        cfg.scanner.data_elements = data_elements;
        Machine m(cfg, 1);
        m.addStage(0, {StageKind::DataScan, 1});
        m.addStage(0, {StageKind::Sink});
        Token t = Token::compute(2);
        t.scan_elems = elems;
        m.feed(0, repeated(t, 100));
        return m.runPhase().cycles;
    };
    Cycle c16 = run(16, 64);
    EXPECT_GE(c16, 100u * 4);
    EXPECT_LT(c16, 100u * 4 + 16);
    Cycle c1 = run(1, 64);
    EXPECT_GE(c1, 100u * 64);
    EXPECT_LT(c1, 100u * 64 + 16);
    // A partial last step still costs a cycle; an empty sweep costs one.
    Cycle c_partial = run(16, 65);
    EXPECT_GE(c_partial, 100u * 5);
    EXPECT_LT(c_partial, 100u * 5 + 16);
    Cycle c_empty = run(16, 0);
    EXPECT_GE(c_empty, 100u);
    EXPECT_LT(c_empty, 100u + 16);
}

TEST(Machine, SpmuStageRoundTripsTokens)
{
    Machine m(hbmConfig(), 1);
    m.addStage(0, {StageKind::Spmu, 1, AccessOp::Read});
    m.addStage(0, {StageKind::Sink});
    std::mt19937 rng(3);
    const int n = 300;
    std::vector<Token> toks;
    for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(rng() % 65536);
        toks.push_back(addrToken(addrs));
    }
    m.feed(0, tokenStream(std::move(toks)));
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
    std::vector<Token> toks;
    for (int i = 0; i < 300; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(rng() % 65536);
        toks.push_back(addrToken(addrs));
    }
    mf.feed(0, tokenStream(toks));
    ms.feed(0, tokenStream(toks));
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
        std::vector<Token> toks;
        for (int i = 0; i < n; ++i) {
            Token tok = addrToken({});
            tok.valid_mask = 0xFFFF;
            for (int l = 0; l < 16; ++l) {
                tok.addr[l] = rng() % 65536;
                tok.lane_tile[l] = static_cast<std::int8_t>(rng() % 4);
            }
            toks.push_back(tok);
        }
        m.feed(t, tokenStream(std::move(toks)));
    }
    PhaseStats ps = m.runPhase();
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(4 * n));
    // Every lane reaches its owner's SpMU through the network (AddF32
    // is never elided), and none goes through DRAM.
    EXPECT_EQ(m.spmuTotals().grants, static_cast<std::uint64_t>(4 * n * 16));
    EXPECT_EQ(m.dram().stats().bursts, 0u);
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
    Token t = Token::compute(16);
    t.bytes = bytes_per_token;
    m.feed(0, repeated(t, n));
    PhaseStats ps = m.runPhase();
    double bpc = sim::memTechBandwidth(MemTech::DDR4) /
                 sim::kClockGhz; // 42.5 B/cycle.
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
        Token t = Token::compute(16);
        t.bytes = 1024;
        m.feed(0, repeated(t, 400));
        return m.runPhase().cycles;
    };
    EXPECT_GT(run(MemTech::DDR4), 5 * run(MemTech::HBM2E));
}

TEST(Machine, ReducePacksSixteenGroups)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Reduce, 2});
    m.addStage(0, {StageKind::Sink});
    // 32 groups of 3 tokens each.
    std::vector<Token> toks;
    for (int g = 0; g < 32; ++g) {
        for (int i = 0; i < 3; ++i) {
            Token t = Token::compute(16);
            t.end_group = (i == 2);
            toks.push_back(t);
        }
    }
    m.feed(0, tokenStream(std::move(toks)));
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
    Token t = Token::compute(16);
    t.end_group = true;
    m.feed(0, repeated(t, 5));
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
    // Tile 0 gets 10x the work of tile 1, so tile 1 idles for about
    // 900 of the phase's cycles, each charged for all 16 lanes.
    m.feed(0, repeated(Token::compute(16), 1000));
    m.feed(1, repeated(Token::compute(16), 100));
    m.runPhase();
    EXPECT_GE(m.totals().imbalance_lane_cycles, 16.0 * 890);
    EXPECT_LE(m.totals().imbalance_lane_cycles, 16.0 * 910);

    // Equal work finishes together: only the phase's last cycle, after
    // the final sink, is charged.
    Machine even(idealConfig(), 2);
    for (int t = 0; t < 2; ++t) {
        even.addStage(t, {StageKind::Map, 1});
        even.addStage(t, {StageKind::Sink});
        even.feed(t, repeated(Token::compute(16), 100));
    }
    even.runPhase();
    EXPECT_LE(even.totals().imbalance_lane_cycles, 16.0 * 2);
}

TEST(Machine, MultiPhaseAccumulatesCycles)
{
    Machine m(idealConfig(), 1);
    m.addStage(0, {StageKind::Map, 1});
    m.addStage(0, {StageKind::Sink});
    m.feed(0, repeated(Token::compute(16), 100));
    Cycle c1 = m.runPhase().cycles;
    m.resetChains();
    m.addStage(0, {StageKind::Map, 1});
    m.addStage(0, {StageKind::Sink});
    m.feed(0, repeated(Token::compute(16), 100));
    Cycle c2 = m.runPhase().cycles;
    EXPECT_EQ(m.totals().cycles, c1 + c2);
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
            std::vector<Token> toks;
            for (int i = 0; i < 200; ++i) {
                Token tok;
                tok.valid_mask = 0xFFFF;
                for (int l = 0; l < 16; ++l) {
                    tok.addr[l] = rng() % 65536;
                    tok.lane_tile[l] =
                        static_cast<std::int8_t>(rng() % 4);
                }
                toks.push_back(tok);
            }
            m.feed(t, tokenStream(std::move(toks)));
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
            std::vector<Token> toks;
            for (int i = 0; i < n; ++i) {
                Token tok;
                int lanes = 1 + static_cast<int>(rng() % 16);
                tok.valid_mask =
                    static_cast<std::uint16_t>((1u << lanes) - 1);
                tok.bytes = 64;
                for (int l = 0; l < lanes; ++l)
                    tok.addr[l] = rng() % 65536;
                toks.push_back(tok);
                ++fed;
            }
            m.feed(t, tokenStream(std::move(toks)));
        }
        m.runPhase();
        ASSERT_EQ(m.totals().tokens, static_cast<std::uint64_t>(fed));
    }
}

/**
 * Property and golden: a multi-phase cross-tile program on 64 tiles
 * conserves tokens, and its stats stay pinned while rings change hands
 * between phases and the busy masks skip idle tiles and SpMUs. Runs
 * through the shuffle (Mrg-1) and without it (two-leg reads,
 * DRAM-atomic updates). Recorded on a build where these runs equalled
 * one-cycle-at-a-time stepping in every field.
 */
TEST(MachineProperty, CrossTilePhasesMatchTheirGoldens)
{
    const std::pair<sim::MergeMode, CrossTileStats> goldens[] = {
        {sim::MergeMode::Mrg1,
         {{485, 27069, 23843, 2728, 122144, 2120},
          {16772, 43417, 14329, 14329, 95, 0, 0},
          {970, 970, 0, 0, 0, 62080}}},
        {sim::MergeMode::None,
         {{26719, 27069, 23843, 2728, 8747312, 2120},
          {7483, 43456, 6787, 6787, 500, 0, 0},
          {23780, 13976, 9804, 548, 22262, 1521920}}},
    };
    for (const auto &[mode, want] : goldens) {
        SCOPED_TRACE(sim::mergeModeName(mode));
        CapstanConfig cfg = hbmConfig();
        cfg.shuffle.mode = mode;
        Machine m(cfg, 64);
        std::uint64_t expected = runCrossTileProgram(m, 41);
        EXPECT_EQ(m.totals().tokens, expected);
        EXPECT_LT(m.steppedTiles(), 64 * m.totals().cycles);

        const RunTotals &a = m.totals();
        EXPECT_EQ(a.cycles, want.totals.cycles);
        EXPECT_EQ(a.active_lane_cycles, want.totals.active_lane_cycles);
        EXPECT_EQ(a.vector_idle_lane_cycles,
                  want.totals.vector_idle_lane_cycles);
        EXPECT_EQ(a.scan_empty_cycles, want.totals.scan_empty_cycles);
        EXPECT_EQ(a.imbalance_lane_cycles,
                  want.totals.imbalance_lane_cycles);
        EXPECT_EQ(a.tokens, want.totals.tokens);

        sim::SpmuStats sa = m.spmuTotals();
        EXPECT_EQ(sa.cycles, want.spmu.cycles);
        EXPECT_EQ(sa.grants, want.spmu.grants);
        EXPECT_EQ(sa.vectors_in, want.spmu.vectors_in);
        EXPECT_EQ(sa.vectors_out, want.spmu.vectors_out);
        EXPECT_EQ(sa.enqueue_stalls, want.spmu.enqueue_stalls);
        EXPECT_EQ(sa.elided_reads, want.spmu.elided_reads);
        EXPECT_EQ(sa.splits, want.spmu.splits);

        const sim::DramStats &da = m.dram().stats();
        EXPECT_EQ(da.bursts, want.dram.bursts);
        EXPECT_EQ(da.reads, want.dram.reads);
        EXPECT_EQ(da.writes, want.dram.writes);
        EXPECT_EQ(da.row_hits, want.dram.row_hits);
        EXPECT_EQ(da.row_misses, want.dram.row_misses);
        EXPECT_EQ(da.bytes, want.dram.bytes);
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
    std::vector<Token> toks;
    for (int i = 0; i < 50; ++i) {
        Token t = Token::compute(16);
        t.scan_skip = i % 4;
        t.bytes = 64;
        toks.push_back(t);
    }
    m.feed(0, tokenStream(std::move(toks)));
    m.runPhase();
    EXPECT_EQ(m.totals().tokens, 50u);
    EXPECT_GT(m.totals().cycles, 0u);
    EXPECT_EQ(m.steppedTiles(), m.totals().cycles);
}

TEST(MachineDeathTest, WatchdogAbortsAPhasePastItsBound)
{
    // One token through a 500-cycle Map: the phase needs about 500
    // cycles, inside a 600-cycle watchdog and far past a 100-cycle one.
    auto latencyPhase = [](Cycle max_cycles) {
        Machine m(idealConfig(), 1);
        m.addStage(0, {StageKind::Map, 500});
        m.addStage(0, {StageKind::Sink});
        m.feed(0, tokenStream({Token::compute(4)}));
        return m.runPhase(max_cycles).cycles;
    };
    EXPECT_EQ(latencyPhase(600), 501u);
    EXPECT_DEATH(latencyPhase(100), "exceeded its watchdog");
}

TEST(MachineStream, FeedPullsOneTokenAheadOfTheSource)
{
    // The source ring holds one token: feed() pulls the first, and each
    // token the source stage consumes pulls the next. A drained stream's
    // frame is gone when the phase ends.
    auto yielded = std::make_shared<int>(0);
    Machine m(idealConfig(), 1);
    mapChains(m);
    m.feed(0, countedTokens(yielded, 1000));
    EXPECT_EQ(*yielded, 1);
    EXPECT_EQ(yielded.use_count(), 2);
    m.runPhase();
    EXPECT_EQ(*yielded, 1000);
    EXPECT_EQ(m.totals().tokens, 1000u);
    EXPECT_EQ(yielded.use_count(), 1);
    // An empty stream feeds nothing, and the tile can take another.
    m.resetChains();
    mapChains(m);
    m.feed(0, TokenStream());
    m.feed(0, countedTokens(yielded, 0));
    EXPECT_EQ(m.runPhase().cycles, 0u);
}

TEST(MachineStream, ProducerExceptionPropagatesAndTheMachineRunsOn)
{
    Machine m(idealConfig(), 2);
    mapChains(m);
    m.feed(0, failingTokens(20));
    m.feed(1, repeated(Token::compute(16), 100));
    try {
        m.runPhase();
        FAIL() << "runPhase() swallowed the producer's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "producer failed");
    }
    // resetChains() drops the aborted chains and the unfinished stream;
    // the next phase runs to completion and counts only its own tokens.
    std::uint64_t before = m.totals().tokens;
    Cycle cycles_before = m.totals().cycles;
    m.resetChains();
    mapChains(m);
    m.feed(0, repeated(Token::compute(16), 10));
    m.feed(1, repeated(Token::compute(16), 10));
    PhaseStats ps = m.runPhase();
    EXPECT_EQ(m.totals().tokens, before + 20);
    EXPECT_EQ(m.totals().cycles, cycles_before + ps.cycles);
}

TEST(MachineStream, UnfinishedStreamsAreDestroyed)
{
    // A frame holds a copy of the guard: the use count drops when
    // resetChains() or ~Machine destroys a stream that has tokens left.
    auto guard = std::make_shared<int>(0);
    {
        Machine m(idealConfig(), 1);
        mapChains(m);
        m.feed(0, countedTokens(guard, 100));
        EXPECT_EQ(guard.use_count(), 2);
        m.resetChains();
        EXPECT_EQ(guard.use_count(), 1) << "resetChains() kept the frame";
        mapChains(m);
        m.feed(0, countedTokens(guard, 100));
        EXPECT_EQ(guard.use_count(), 2);
    }
    EXPECT_EQ(guard.use_count(), 1) << "~Machine kept the frame";
    EXPECT_EQ(*guard, 2) << "each stream yields only when pulled";
}
