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
 * Three phases on one machine, with chains of 4, 3 and 6 stages, so
 * each chain takes over rings an earlier one grew: cross-tile reads
 * reduced in groups; scanner burns ahead of cross-tile AddF32 updates;
 * and a DRAM stream, a local SpMU read, a cross-tile read and a
 * cross-tile AddF32 in one chain. Every fifth tile idles; a quarter of
 * the lanes stay local. The sources draw their tokens from one RNG as
 * the machine makes each tile's stream, in tile order. Returns the
 * tokens the sinks must retire.
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

    m.runPhase({{StageKind::SpmuCross, 1, AccessOp::Read},
                {StageKind::Map, 2},
                {StageKind::Reduce, 1},
                {StageKind::Sink}},
               [&](int t) {
                   int n = tokensFor(t);
                   int groups = 0;
                   std::vector<Token> toks;
                   for (int i = 0; i < n; ++i) {
                       Token tok = crossToken();
                       tok.end_group = i % 3 == 2 || i == n - 1;
                       groups += tok.end_group ? 1 : 0;
                       toks.push_back(tok);
                   }
                   expected += static_cast<std::uint64_t>((groups + 15) / 16);
                   return tokenStream(std::move(toks));
               });

    m.runPhase({{StageKind::Scan, 1},
                {StageKind::SpmuCross, 1, AccessOp::AddF32},
                {StageKind::Sink}},
               [&](int t) {
                   int n = tokensFor(t);
                   std::vector<Token> toks;
                   for (int i = 0; i < n; ++i) {
                       Token tok = crossToken();
                       tok.scan_skip = static_cast<std::int32_t>(rng() % 6);
                       toks.push_back(tok);
                   }
                   expected += static_cast<std::uint64_t>(n);
                   return tokenStream(std::move(toks));
               });

    m.runPhase({{StageKind::DramStream, 1},
                {StageKind::Spmu, 1, AccessOp::Read},
                {StageKind::SpmuCross, 1, AccessOp::Read, 1024},
                {StageKind::SpmuCross, 1, AccessOp::AddF32, 2048},
                {StageKind::Map, 1},
                {StageKind::Sink}},
               [&](int t) {
                   int n = tokensFor(t);
                   std::vector<Token> toks;
                   for (int i = 0; i < n; ++i)
                       toks.push_back(crossToken());
                   expected += static_cast<std::uint64_t>(n);
                   return tokenStream(std::move(toks));
               });
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

/** A Map -> Sink chain. */
const std::vector<StageSpec> kMapChain = {{StageKind::Map, 1},
                                          {StageKind::Sink}};

} // namespace

TEST(Machine, EmptyPhaseCostsNothing)
{
    Machine m(idealConfig(), 1);
    EXPECT_EQ(m.runPhase({{StageKind::Sink}},
                         [](int) { return TokenStream(); }),
              0u);
}

TEST(Machine, MapChainIsFullyPipelined)
{
    Machine m(idealConfig(), 1);
    const int n = 1000;
    Cycle cycles = m.runPhase(
        {{StageKind::Map, 3}, {StageKind::Map, 3}, {StageKind::Sink}},
        [](int) { return repeated(Token::compute(16), n); });
    // II = 1: makespan ~ n + pipeline fill.
    EXPECT_GE(cycles, static_cast<Cycle>(n));
    EXPECT_LT(cycles, static_cast<Cycle>(n + 32));
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(n));
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 16.0 * n);
}

TEST(Machine, PartialVectorsCountVectorLengthIdle)
{
    Machine m(idealConfig(), 1);
    m.runPhase(kMapChain, [](int) {
        return tokenStream({Token::compute(4), Token::compute(16)});
    });
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 20.0);
    EXPECT_DOUBLE_EQ(m.totals().vector_idle_lane_cycles, 12.0);
}

TEST(Machine, ScanSkipBurnsScannerCycles)
{
    Machine m(idealConfig(), 1);
    Token t = Token::compute(16);
    t.scan_skip = 10;
    Cycle cycles = m.runPhase({{StageKind::Scan, 1}, {StageKind::Sink}},
                              [&](int) { return tokenStream({t}); });
    EXPECT_DOUBLE_EQ(m.totals().scan_empty_cycles, 10.0);
    EXPECT_GE(cycles, 11u);
}

TEST(Machine, ScanWindowsSplitWideWindows)
{
    Machine m(idealConfig(), 1);
    // Windows: 0, 0, 40 bits, 0, 5 bits.
    m.runPhase({{StageKind::Scan, 1}, {StageKind::Sink}},
               [](int) { return scanWindows({0, 0, 40, 0, 5}); });
    // 40 bits -> tokens of 16/16/8; 5 bits -> one token of 5.
    EXPECT_EQ(m.totals().tokens, 4u);
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 45.0);
    EXPECT_DOUBLE_EQ(m.totals().scan_empty_cycles, 3.0);
}

TEST(Machine, NarrowScannerOutputsThrottle)
{
    auto run = [](const CapstanConfig &cfg) {
        Machine m(cfg, 1);
        return m.runPhase({{StageKind::Scan, 1}, {StageKind::Sink}},
                          [](int) {
                              return repeated(Token::compute(16), 200);
                          });
    };
    CapstanConfig narrow = idealConfig();
    narrow.scanner.outputs = 4;
    EXPECT_GT(run(narrow), 3 * run(idealConfig()));
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
        Token t = Token::compute(2);
        t.scan_elems = elems;
        return m.runPhase({{StageKind::DataScan, 1}, {StageKind::Sink}},
                          [&](int) { return repeated(t, 100); });
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
    std::mt19937 rng(3);
    const int n = 300;
    std::vector<Token> toks;
    for (int i = 0; i < n; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(rng() % 65536);
        toks.push_back(addrToken(addrs));
    }
    Cycle cycles = m.runPhase(
        {{StageKind::Spmu, 1, AccessOp::Read}, {StageKind::Sink}},
        [&](int) { return tokenStream(std::move(toks)); });
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(n));
    // Random banking cannot be faster than 1 vector/cycle and should be
    // near the SpMU's ~80% bank utilization bound.
    EXPECT_GE(cycles, static_cast<Cycle>(n));
    EXPECT_LT(cycles, static_cast<Cycle>(2.2 * n));
}

TEST(Machine, ArbitratedSpmuIsSlower)
{
    std::mt19937 rng(17);
    std::vector<Token> toks;
    for (int i = 0; i < 300; ++i) {
        std::vector<std::uint32_t> addrs;
        for (int l = 0; l < 16; ++l)
            addrs.push_back(rng() % 65536);
        toks.push_back(addrToken(addrs));
    }
    auto run = [&](const CapstanConfig &cfg) {
        Machine m(cfg, 1);
        return m.runPhase(
            {{StageKind::Spmu, 1, AccessOp::Read}, {StageKind::Sink}},
            [&](int) { return tokenStream(toks); });
    };
    CapstanConfig slow = hbmConfig();
    slow.spmu.ordering = sim::Ordering::Arbitrated;
    EXPECT_GT(run(slow), 2 * run(hbmConfig()));
}

TEST(Machine, CrossTileAccessesRouteThroughShuffle)
{
    Machine m(hbmConfig(), 4);
    std::mt19937 rng(7);
    const int n = 100;
    Cycle cycles = m.runPhase(
        {{StageKind::SpmuCross, 1, AccessOp::AddF32}, {StageKind::Sink}},
        [&](int) {
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
            return tokenStream(std::move(toks));
        });
    EXPECT_EQ(m.totals().tokens, static_cast<std::uint64_t>(4 * n));
    // Every lane reaches its owner's SpMU through the network (AddF32
    // is never elided), and none goes through DRAM.
    EXPECT_EQ(m.spmuTotals().grants, static_cast<std::uint64_t>(4 * n * 16));
    EXPECT_EQ(m.dram().stats().bursts, 0u);
    EXPECT_GT(cycles, 0u);
}

TEST(Machine, DramStreamIsBandwidthLimited)
{
    CapstanConfig ddr = CapstanConfig::capstan(MemTech::DDR4);
    Machine m(ddr, 1);
    const int n = 500;
    const std::uint32_t bytes_per_token = 256;
    Token t = Token::compute(16);
    t.bytes = bytes_per_token;
    Cycle cycles =
        m.runPhase({{StageKind::DramStream, 1}, {StageKind::Sink}},
                   [&](int) { return repeated(t, n); });
    double bpc = sim::memTechBandwidth(MemTech::DDR4) /
                 sim::kClockGhz; // 42.5 B/cycle.
    double min_cycles = n * bytes_per_token / bpc;
    EXPECT_GT(cycles, static_cast<Cycle>(0.9 * min_cycles));
    EXPECT_LT(cycles, static_cast<Cycle>(1.5 * min_cycles));
}

TEST(Machine, HigherBandwidthDrainsStreamsFaster)
{
    auto run = [](MemTech tech) {
        CapstanConfig cfg = CapstanConfig::capstan(tech);
        Machine m(cfg, 1);
        Token t = Token::compute(16);
        t.bytes = 1024;
        return m.runPhase({{StageKind::DramStream, 1}, {StageKind::Sink}},
                          [&](int) { return repeated(t, 400); });
    };
    EXPECT_GT(run(MemTech::DDR4), 5 * run(MemTech::HBM2E));
}

TEST(Machine, ReducePacksSixteenGroups)
{
    Machine m(idealConfig(), 1);
    // 32 groups of 3 tokens each.
    std::vector<Token> toks;
    for (int g = 0; g < 32; ++g) {
        for (int i = 0; i < 3; ++i) {
            Token t = Token::compute(16);
            t.end_group = (i == 2);
            toks.push_back(t);
        }
    }
    m.runPhase({{StageKind::Reduce, 2}, {StageKind::Sink}},
               [&](int) { return tokenStream(std::move(toks)); });
    // 32 groups pack into two 16-lane result vectors.
    EXPECT_EQ(m.totals().tokens, 2u);
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 32.0);
}

TEST(Machine, ReduceFlushesPartialGroupsAtDrain)
{
    Machine m(idealConfig(), 1);
    Token t = Token::compute(16);
    t.end_group = true;
    m.runPhase({{StageKind::Reduce, 2}, {StageKind::Sink}},
               [&](int) { return repeated(t, 5); });
    EXPECT_EQ(m.totals().tokens, 1u);
    EXPECT_DOUBLE_EQ(m.totals().active_lane_cycles, 5.0);
}

TEST(Machine, ImbalanceCountsIdleTileTails)
{
    Machine m(idealConfig(), 2);
    // Tile 0 gets 10x the work of tile 1, so tile 1 idles for about
    // 900 of the phase's cycles, each charged for all 16 lanes.
    m.runPhase(kMapChain, [](int t) {
        return repeated(Token::compute(16), t == 0 ? 1000 : 100);
    });
    EXPECT_GE(m.totals().imbalance_lane_cycles, 16.0 * 890);
    EXPECT_LE(m.totals().imbalance_lane_cycles, 16.0 * 910);

    // Equal work finishes together: only the phase's last cycle, after
    // the final sink, is charged.
    Machine even(idealConfig(), 2);
    even.runPhase(kMapChain,
                  [](int) { return repeated(Token::compute(16), 100); });
    EXPECT_LE(even.totals().imbalance_lane_cycles, 16.0 * 2);
}

TEST(Machine, MultiPhaseAccumulatesCycles)
{
    Machine m(idealConfig(), 1);
    auto source = [](int) { return repeated(Token::compute(16), 100); };
    Cycle c1 = m.runPhase(kMapChain, source);
    Cycle c2 = m.runPhase(kMapChain, source);
    EXPECT_EQ(m.totals().cycles, c1 + c2);
}

TEST(Machine, MergeModeNoneForcesDramRoundTrips)
{
    CapstanConfig with_net = hbmConfig();
    CapstanConfig without = hbmConfig();
    without.merge = sim::MergeMode::None;
    auto run = [](const CapstanConfig &cfg) {
        Machine m(cfg, 4);
        std::mt19937 rng(5);
        m.runPhase({{StageKind::SpmuCross, 1, AccessOp::AddF32},
                    {StageKind::Sink}},
                   [&](int) {
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
                       return tokenStream(std::move(toks));
                   });
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
        int fed = 0;
        m.runPhase({{StageKind::DramStream, 1},
                    {StageKind::Spmu, 1, AccessOp::Read},
                    {StageKind::Map, 2},
                    {StageKind::Spmu, 1, AccessOp::AddF32},
                    {StageKind::Sink}},
                   [&](int) {
                       int n = 50 + static_cast<int>(rng() % 100);
                       std::vector<Token> toks;
                       for (int i = 0; i < n; ++i) {
                           Token tok;
                           int lanes = 1 + static_cast<int>(rng() % 16);
                           tok.valid_mask = static_cast<std::uint16_t>(
                               (1u << lanes) - 1);
                           tok.bytes = 64;
                           for (int l = 0; l < lanes; ++l)
                               tok.addr[l] = rng() % 65536;
                           toks.push_back(tok);
                           ++fed;
                       }
                       return tokenStream(std::move(toks));
                   });
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
        cfg.merge = mode;
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
    // Every tile runs the chain, but tiles 1-63 get empty streams, and
    // tile 0 has a token or a burn in its chain on every cycle: each
    // stepped cycle steps that one tile, not all 64.
    Machine m(hbmConfig(), 64);
    std::vector<Token> toks;
    for (int i = 0; i < 50; ++i) {
        Token t = Token::compute(16);
        t.scan_skip = i % 4;
        t.bytes = 64;
        toks.push_back(t);
    }
    m.runPhase({{StageKind::Scan, 1},
                {StageKind::Map, 3},
                {StageKind::DramStream, 1},
                {StageKind::Sink}},
               [&](int t) {
                   return t == 0 ? tokenStream(std::move(toks))
                                 : TokenStream();
               });
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
        return m.runPhase(
            {{StageKind::Map, 500}, {StageKind::Sink}},
            [](int) { return tokenStream({Token::compute(4)}); },
            max_cycles);
    };
    EXPECT_EQ(latencyPhase(600), 501u);
    EXPECT_DEATH(latencyPhase(100), "exceeded its watchdog");
}

TEST(MachineDeathTest, TileCountOutsideItsRangeAborts)
{
    // 129 tiles would need a 256-port shuffle; the machine's own check
    // must fire before the shuffle's.
    for (int tiles : {0, sim::kMaxTiles + 1}) {
        SCOPED_TRACE(tiles);
        EXPECT_DEATH(Machine(idealConfig(), tiles),
                     "1 to sim::kMaxTiles tiles");
    }
}

TEST(MachineDeathTest, EmptyChainAborts)
{
    Machine m(idealConfig(), 1);
    EXPECT_DEATH(m.runPhase({}, [](int) { return TokenStream(); }),
                 "needs a chain of stages");
}

TEST(MachineStream, StreamsAreMadeAndPrimedInTileOrder)
{
    // The machine makes tile t's stream once tiles 0..t-1 have made
    // theirs and pulled exactly their first token; then each token a
    // source stage consumes pulls the next. A drained stream's frame
    // is gone when the phase ends.
    auto yielded = std::make_shared<int>(0);
    Machine m(idealConfig(), 4);
    std::vector<int> yielded_before;
    m.runPhase(kMapChain, [&](int) {
        yielded_before.push_back(*yielded);
        return countedTokens(yielded, 1000);
    });
    EXPECT_EQ(yielded_before, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(*yielded, 4000);
    EXPECT_EQ(m.totals().tokens, 4000u);
    EXPECT_EQ(yielded.use_count(), 1);
    // Empty streams feed nothing.
    EXPECT_EQ(m.runPhase(kMapChain,
                         [&](int t) {
                             return t % 2 == 0 ? TokenStream()
                                               : countedTokens(yielded, 0);
                         }),
              0u);
}

TEST(MachineStream, ProducerExceptionPropagatesAndTheMachineRunsOn)
{
    Machine m(idealConfig(), 2);
    try {
        m.runPhase(kMapChain, [](int t) {
            return t == 0 ? failingTokens(20)
                          : repeated(Token::compute(16), 100);
        });
        FAIL() << "runPhase() swallowed the producer's exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "producer failed");
    }
    // The next phase clears what the aborted one left (tile 1's queued
    // tokens and unfinished stream), runs to completion, and counts
    // only its own tokens.
    std::uint64_t before = m.totals().tokens;
    Cycle cycles_before = m.totals().cycles;
    Cycle cycles = m.runPhase(
        kMapChain, [](int) { return repeated(Token::compute(16), 10); });
    EXPECT_EQ(m.totals().tokens, before + 20);
    EXPECT_EQ(m.totals().cycles, cycles_before + cycles);
}

TEST(MachineStream, UnfinishedStreamsAreDestroyed)
{
    // Tile 1's producer throws on its first pull, leaving tile 0's
    // stream unfinished. Its frame holds a copy of the guard: the use
    // count drops when the next phase or ~Machine destroys it.
    auto guard = std::make_shared<int>(0);
    auto abortedPhase = [&](Machine &m) {
        EXPECT_THROW(m.runPhase(kMapChain,
                                [&](int t) {
                                    return t == 0 ? countedTokens(guard, 100)
                                                  : failingTokens(0);
                                }),
                     std::runtime_error);
    };
    {
        Machine m(idealConfig(), 2);
        abortedPhase(m);
        EXPECT_EQ(guard.use_count(), 2);
        m.runPhase(kMapChain, [](int) { return TokenStream(); });
        EXPECT_EQ(guard.use_count(), 1) << "the next phase kept the frame";
        abortedPhase(m);
        EXPECT_EQ(guard.use_count(), 2);
    }
    EXPECT_EQ(guard.use_count(), 1) << "~Machine kept the frame";
    EXPECT_EQ(*guard, 2) << "each stream yields only when pulled";
}
