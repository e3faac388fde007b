/**
 * @file
 * Golden timing tests for the fast-forward stepping engine.
 *
 * The Machine jumps over provably-idle cycles (lang/machine.hpp); these
 * tests pin whole-run cycle counts and Fig. 7 stall breakdowns for
 * representative (app x dataset x machine) points, captured from the
 * dense one-cycle-at-a-time executor before the fast-forward refactor.
 * Any behavioral drift in the stepping engine — overshooting an event
 * horizon, mis-attributing a skipped cycle, dropping a stall-counter
 * replay — shows up here as an exact-value mismatch. The same runs can
 * be reproduced densely with CAPSTAN_NO_FF=1 to bisect a failure; one
 * test flips that switch in-process and byte-compares the stats.
 *
 * Also covers the trailing-empty-window token of
 * Machine::feedScanWindows (valid_mask = 0), which must burn scanner
 * cycles without ever retiring at the sink.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/ring.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "lang/machine.hpp"

using namespace capstan;
using namespace capstan::driver;
using capstan::lang::Machine;
using capstan::common::RingQueue;
using capstan::lang::PhaseStats;
using capstan::lang::RunTotals;
using capstan::lang::StageKind;
using capstan::lang::Token;

namespace {

/** Expected timing facts for one golden point. */
struct Golden
{
    const char *name;
    std::vector<std::string> args; //!< capstan-run flags.
    std::uint64_t cycles;
    double active_lane_cycles;
    double vector_idle_lane_cycles;
    double scan_empty_cycles;
    double imbalance_lane_cycles;
    std::uint64_t tokens;
    std::uint64_t spmu_busy_cycles;
    std::uint64_t spmu_grants;
    std::uint64_t spmu_enqueue_stalls;
};

/**
 * Captured on the pre-fast-forward dense executor (PR 3 tree) via
 * `capstan-run <args> --json`; scales are bench-smoke sized so the
 * whole table runs in seconds. The bfs-scanbits1 and pagerank rows
 * were recaptured when dataset scaling switched from truncation to
 * round-to-nearest (their generated dimensions moved by one); both
 * were re-verified bit-identical against the dense executor with
 * CAPSTAN_NO_FF=1.
 */
const std::vector<Golden> &
goldens()
{
    static const std::vector<Golden> g = {
        {"spmv-capstan",
         {"--app", "spmv", "--scale", "0.05", "--tiles", "4"},
         290, 3947, 5989, 0, 80, 40, 637, 3947, 0},
        {"spmv-plasticine",
         {"--app", "spmv", "--scale", "0.05", "--tiles", "4",
          "--config", "plasticine"},
         1127, 3947, 5989, 0, 912, 40, 3951, 3947, 2919},
        {"spmv-address-ordered",
         {"--app", "spmv", "--scale", "0.05", "--tiles", "4",
          "--ordering", "address"},
         318, 3947, 5989, 0, 144, 40, 756, 3947, 130},
        {"spmv-fully-ordered",
         {"--app", "spmv", "--scale", "0.05", "--tiles", "4",
          "--ordering", "fully"},
         377, 3947, 5989, 0, 336, 40, 987, 3947, 272},
        {"spmv-ddr4",
         {"--app", "spmv", "--scale", "0.05", "--tiles", "4",
          "--memtech", "ddr4"},
         929, 3947, 5989, 0, 176, 40, 1582, 3947, 0},
        {"bfs-mrg16",
         {"--app", "bfs", "--scale", "0.1", "--tiles", "4"},
         8695, 2442, 12422, 149, 20160, 929, 3753, 7326, 6},
        {"bfs-merge-none",
         {"--app", "bfs", "--scale", "0.1", "--tiles", "4", "--merge",
          "none"},
         12022, 2442, 12422, 149, 118576, 929, 3433, 6924, 2},
        // Burn-heavy scanner geometry (1-bit windows): the fast-forward
        // engine must stop at every burn completion, not jump past it.
        {"bfs-scanbits1",
         {"--app", "bfs", "--scale", "0.02", "--tiles", "4",
          "--scan-bits", "1"},
         4950, 456, 2504, 6481, 15184, 185, 1333, 1368, 0},
        {"pagerank",
         {"--app", "pagerank", "--scale", "0.05", "--tiles", "4",
          "--iterations", "1"},
         306, 1208, 6872, 0, 560, 34, 754, 1713, 235},
        {"matadd",
         {"--app", "matadd", "--scale", "0.05", "--tiles", "4"},
         604, 3947, 10933, 621, 176, 930, 0, 0, 0},
        {"spmv-csc",
         {"--app", "spmv-csc", "--scale", "0.05", "--tiles", "4"},
         310, 1840, 1968, 0, 656, 238, 256, 1219, 37},
    };
    return g;
}

/**
 * The many-tile regime: idle tiles, more shuffle ports than tiles, and
 * the no-shuffle paths. Captured before runPhase() skipped idle tiles
 * and merge units; identical under CAPSTAN_NO_FF=1.
 */
const std::vector<Golden> &
manyTileGoldens()
{
    static const std::vector<Golden> g = {
        {"sssp-64-tiles",
         {"--app", "sssp", "--scale", "0.5", "--tiles", "64"},
         21562, 13254, 67578, 5957, 414800, 5052, 40045, 39762, 0},
        // Remote updates become DRAM atomics.
        {"bfs-64-tiles-merge-none",
         {"--app", "bfs", "--scale", "0.5", "--tiles", "64", "--merge",
          "none"},
         66327, 12582, 64298, 6022, 16525296, 4805, 21856, 20658, 0},
        // Remote reads stay on-chip with a reply leg.
        {"pagerank-64-tiles-merge-none",
         {"--app", "pagerank", "--scale", "0.5", "--tiles", "64",
          "--iterations", "1", "--merge", "none"},
         319, 12768, 67968, 0, 46976, 342, 10439, 23495, 26},
        // Reductions flush behind in-flight accesses.
        {"bicgstab-64-tiles",
         {"--app", "bicgstab", "--scale", "0.2", "--tiles", "64",
          "--iterations", "1"},
         1220, 37768, 48024, 0, 119392, 512, 16292, 32366, 92},
        // 5 tiles on 8 shuffle ports.
        {"spmv-5-tiles-mrg16",
         {"--app", "spmv", "--scale", "0.3", "--tiles", "5", "--merge",
          "mrg16"},
         885, 24682, 35030, 0, 304, 235, 3752, 24682, 0},
    };
    return g;
}

/** JSON stats of one in-process `capstan-run <args>`. */
std::string
runJson(const std::vector<std::string> &args)
{
    ParseResult pr = parseArgs(args);
    EXPECT_TRUE(pr.ok()) << pr.error;
    return statsToJson(runDriver(pr.options)).dump(2);
}

/**
 * One token through a 500-cycle Map: almost every cycle is an idle
 * latency wait. Returns (cycles stepped one at a time, phase cycles).
 */
std::pair<std::uint64_t, std::uint64_t>
idleLatencyPhase()
{
    Machine m(sim::CapstanConfig::ideal(), 1);
    m.addStage(0, {StageKind::Map, 500});
    m.addStage(0, {StageKind::Sink});
    m.feed(0, Token::compute(4));
    PhaseStats ps = m.runPhase();
    return {m.steppedCycles(), ps.cycles};
}

} // namespace

TEST(MachineGolden, CycleCountsAndStallBreakdownsAreBitIdentical)
{
    std::vector<Golden> all = goldens();
    all.insert(all.end(), manyTileGoldens().begin(),
               manyTileGoldens().end());
    for (const Golden &g : all) {
        SCOPED_TRACE(g.name);
        ParseResult pr = parseArgs(g.args);
        ASSERT_TRUE(pr.ok()) << pr.error;
        RunResult r = runDriver(pr.options);
        EXPECT_EQ(r.timing.cycles, g.cycles);
        EXPECT_EQ(r.timing.totals.active_lane_cycles,
                  g.active_lane_cycles);
        EXPECT_EQ(r.timing.totals.vector_idle_lane_cycles,
                  g.vector_idle_lane_cycles);
        EXPECT_EQ(r.timing.totals.scan_empty_cycles,
                  g.scan_empty_cycles);
        EXPECT_EQ(r.timing.totals.imbalance_lane_cycles,
                  g.imbalance_lane_cycles);
        EXPECT_EQ(r.timing.totals.tokens, g.tokens);
        EXPECT_EQ(r.timing.spmu.cycles, g.spmu_busy_cycles);
        EXPECT_EQ(r.timing.spmu.grants, g.spmu_grants);
        EXPECT_EQ(r.timing.spmu.enqueue_stalls,
                  g.spmu_enqueue_stalls);
    }
}

TEST(MachineGolden, NoFastForwardSwitchIsReadPerMachineAndExact)
{
    // CAPSTAN_NO_FF=1 is read at Machine construction, so flipping it
    // between in-process runs takes effect: a machine built before the
    // flip jumps over the idle wait, one built after steps every
    // cycle. Simulations run earlier in this process must not latch it.
    ASSERT_EQ(std::getenv("CAPSTAN_NO_FF"), nullptr);
    std::vector<std::vector<std::string>> points = {
        {"--app", "pagerank", "--scale", "0.02", "--tiles", "4",
         "--iterations", "1"},
        {"--app", "bfs", "--scale", "0.02", "--tiles", "4",
         "--iterations", "1"},
        {"--app", "spmspm", "--scale", "0.02", "--tiles", "4",
         "--iterations", "1"},
    };
    for (const Golden &g : manyTileGoldens())
        points.push_back(g.args);
    std::vector<std::string> fast;
    for (const auto &p : points)
        fast.push_back(runJson(p));
    auto [ff_stepped, ff_cycles] = idleLatencyPhase();

    ::setenv("CAPSTAN_NO_FF", "1", 1);
    auto [dense_stepped, dense_cycles] = idleLatencyPhase();
    std::vector<std::string> dense;
    for (const auto &p : points)
        dense.push_back(runJson(p));
    ::unsetenv("CAPSTAN_NO_FF");

    EXPECT_LT(ff_stepped, ff_cycles) << "fast-forward never engaged";
    EXPECT_EQ(dense_stepped, dense_cycles)
        << "CAPSTAN_NO_FF=1 did not force dense stepping";
    EXPECT_EQ(dense_cycles, ff_cycles);
    // Fast-forward is exact: the stats match byte for byte.
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(fast[i], dense[i]) << points[i][1];
}

TEST(MachineGolden, TrailingEmptyWindowsBurnScannerCycles)
{
    // pops = {3, 0, 0}: one 3-lane body token, then a valid_mask = 0
    // trailing token carrying scan_skip = 2. The trailing token burns
    // two Scan-stall cycles and must never retire at the sink.
    Machine m(sim::CapstanConfig::ideal(), 1);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Sink});
    m.feedScanWindows(0, {3, 0, 0});
    m.runPhase();
    const RunTotals &t = m.totals();
    EXPECT_EQ(t.tokens, 1u);
    EXPECT_EQ(t.scan_empty_cycles, 2.0);
    EXPECT_EQ(t.active_lane_cycles, 3.0);
}

TEST(MachineGolden, AllEmptyWindowsStillCostScannerTime)
{
    // Only empty windows: the phase is pure scanner burn. The
    // fast-forward engine must attribute every skipped cycle to the
    // Scan stall class and still account the phase makespan.
    Machine m(sim::CapstanConfig::ideal(), 1);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Sink});
    m.feedScanWindows(0, {0, 0, 0, 0, 0});
    auto ps = m.runPhase();
    EXPECT_EQ(m.totals().tokens, 0u);
    EXPECT_EQ(m.totals().scan_empty_cycles, 5.0);
    EXPECT_GE(ps.cycles, 5u);
}

TEST(MachineGolden, TrailingEmptyWindowCarriesPendingBytes)
{
    // A region ending in empty windows still streams those windows'
    // occupancy words from DRAM: the trailing token carries the bytes.
    Machine m(sim::CapstanConfig::capstan(sim::MemTech::HBM2E), 1);
    m.addStage(0, {StageKind::DramStream, 1});
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Sink});
    m.feedScanWindows(0, {0, 0}, 64);
    m.runPhase();
    EXPECT_EQ(m.totals().tokens, 0u);
    EXPECT_EQ(m.totals().scan_empty_cycles, 2.0);
    EXPECT_EQ(m.dram().stats().bytes, 128u);
}

TEST(MachineGolden, ReduceFlushGatedByTrailingBurnIsCycleExact)
{
    // A partial reduction whose flush is gated only by a trailing
    // scanner burn: the dense loop fires the flush in the very
    // iteration the burn counter reaches zero, so the fast-forward
    // engine must execute that final burn cycle densely instead of
    // bulk-replaying it (its horizon stops one cycle short). The cycle
    // count is pinned from dense stepping (CAPSTAN_NO_FF=1).
    Machine m(sim::CapstanConfig::ideal(), 1);
    m.addStage(0, {StageKind::Scan, 1});
    m.addStage(0, {StageKind::Reduce, 1});
    m.addStage(0, {StageKind::Sink});
    Token body = Token::compute(3);
    body.end_group = true;
    m.feed(0, body);
    Token trailing = Token::compute(0);
    trailing.valid_mask = 0;
    trailing.scan_skip = 40;
    m.feed(0, trailing);
    auto ps = m.runPhase();
    EXPECT_EQ(ps.cycles, 43u);
    EXPECT_EQ(m.totals().tokens, 1u);
    EXPECT_EQ(m.totals().scan_empty_cycles, 40.0);
}

TEST(MachineGolden, RingQueueGrowsAndKeepsFifoOrder)
{
    RingQueue<int> q;
    EXPECT_TRUE(q.empty());
    // Interleave pushes and pops so head/tail wrap across a growth.
    for (int i = 0; i < 10; ++i)
        q.push_back(i);
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    for (int i = 0; i < 1000; ++i)
        q.push_back(i);
    EXPECT_EQ(q.size(), 1000u);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(q.front(), i);
        q.pop_front();
    }
    EXPECT_TRUE(q.empty());
}

TEST(MachineGolden, PassiveUnitHorizonsReportPendingWork)
{
    // The DRAM model, address generator, and scanner model are passive
    // (invoked with an explicit cycle), so their horizons are
    // informational: kNoEventCycle when drained, the next completion
    // cycle while work is outstanding.
    sim::CapstanConfig cfg = sim::CapstanConfig::capstan();
    sim::ScannerModel scanner(cfg.scanner);
    EXPECT_EQ(scanner.nextEventCycle(0), sim::kNoEventCycle);

    sim::DramModel dram(cfg.dram, cfg.clock_ghz);
    EXPECT_EQ(dram.nextEventCycle(0), sim::kNoEventCycle);
    sim::Cycle done = dram.access(0, false, 0);
    sim::Cycle horizon = dram.nextEventCycle(0);
    EXPECT_GT(horizon, 0u);
    EXPECT_LE(horizon, done);
    EXPECT_EQ(dram.nextEventCycle(done), sim::kNoEventCycle);

    sim::AddressGenerator ag(dram, 4);
    EXPECT_EQ(ag.nextEventCycle(0), sim::kNoEventCycle);
    std::uint64_t addrs[] = {0, 256};
    sim::Cycle ag_done = ag.atomicVector(addrs, 0);
    EXPECT_GT(ag.nextEventCycle(0), 0u);
    ag.flush(ag_done);
    EXPECT_EQ(ag.nextEventCycle(ag_done + 1000), sim::kNoEventCycle);
}

TEST(MachineGolden, ShuffleHorizonPinsTheClockWhileBuffered)
{
    sim::ShuffleConfig cfg = sim::CapstanConfig::capstan().shuffle;
    cfg.ports = 4;
    sim::ShuffleNetwork net(cfg);
    EXPECT_EQ(net.nextEventCycle(17), sim::kNoEventCycle);
    sim::ShuffleVector v;
    v.id = 1;
    v.valid[0] = true;
    v.dst_port[0] = 2; // Remote: buffers in the butterfly.
    ASSERT_TRUE(net.tryInject(0, v));
    EXPECT_EQ(net.nextEventCycle(17), 17u); // Busy: step every cycle.
    while (!net.tryEject(2).has_value())
        net.step();
    EXPECT_EQ(net.nextEventCycle(17), sim::kNoEventCycle);
}

TEST(MachineGolden, SpmuNextEventCycleBoundsIdleSteps)
{
    // Enqueue one vector, let every lane issue, and check the horizon
    // points at the head-completion step: stepping to it (but not past
    // it) completes the vector, exactly as dense stepping would.
    sim::SpmuConfig cfg = sim::CapstanConfig::capstan().spmu;
    sim::SparseMemoryUnit spmu(cfg);
    sim::AccessVector av;
    av.id = 7;
    for (int l = 0; l < 4; ++l) {
        av.lane[l].valid = true;
        av.lane[l].addr = static_cast<std::uint32_t>(l); // 4 banks.
    }
    ASSERT_TRUE(spmu.tryEnqueue(av));
    ASSERT_EQ(spmu.nextEventCycle(), spmu.now()); // Issuable now.
    spmu.step(); // All four lanes issue (conflict-free banks).
    // With everything issued, the horizon points at the head-completion
    // step (equal to now() when the bank pipeline is already drained).
    sim::Cycle wake = spmu.nextEventCycle();
    ASSERT_GE(wake, spmu.now());
    // Skip the idle wait, then one step must complete the vector.
    spmu.skipCycles(wake - spmu.now());
    spmu.step();
    auto cv = spmu.tryDequeue();
    ASSERT_TRUE(cv.has_value());
    EXPECT_EQ(cv->id, 7u);
    EXPECT_TRUE(spmu.empty());
}
