/**
 * @file
 * Golden timing tests for the machine's stepping loop.
 *
 * The Machine steps every cycle and visits only the units with work
 * (lang/machine.hpp); these tests pin whole-run cycle counts and Fig. 7
 * stall breakdowns for representative (app x dataset x machine)
 * points, each captured from one-cycle-at-a-time stepping. Any
 * behavioral drift in the loop — a tile or SpMU with work left
 * unstepped, a stall cycle charged to the wrong class, a lost enqueue
 * refusal — shows up here as an exact-value mismatch.
 *
 * Also covers the trailing-empty-window token of a scanner-window
 * stream (valid_mask = 0), which must burn scanner cycles without ever
 * retiring at the sink.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/ring.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "lang/machine.hpp"
#include "token_streams.hpp"

using namespace capstan;
using namespace capstan::driver;
using capstan::lang::Machine;
using capstan::common::RingQueue;
using capstan::lang::RunTotals;
using capstan::lang::StageKind;
using capstan::lang::Token;
using capstan::test::scanWindows;
using capstan::test::tokenStream;

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
 * Captured from one-cycle-at-a-time stepping via `capstan-run <args>
 * --json`; scales are bench-smoke sized so the whole table runs in
 * seconds. The bfs-scanbits1 and pagerank rows were recaptured when
 * dataset scaling switched from truncation to round-to-nearest (their
 * generated dimensions moved by one). The two matadd-scan-bits rows
 * were captured while M+M still built bit-trees for every row pair,
 * before it counted the union populations from the sorted pointer
 * lists.
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
        // Burn-heavy scanner geometry (1-bit windows): a burn ends every
        // few cycles and re-arms the scanner.
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
        // A 3728-column row has a 15-slot top level: one 64-bit
        // scanner window, or four 4-bit windows charged on each row's
        // first token.
        {"matadd-scan-bits-64",
         {"--app", "matadd", "--scale", "0.3", "--tiles", "16",
          "--scan-bits", "64"},
         1180, 24682, 100518, 3728, 7024, 7825, 0, 0, 0},
        {"matadd-scan-bits-4",
         {"--app", "matadd", "--scale", "0.3", "--tiles", "16",
          "--scan-bits", "4"},
         1662, 24682, 100518, 14912, 7440, 7825, 0, 0, 0},
    };
    return g;
}

/**
 * The many-tile regime: idle tiles, more shuffle ports than tiles, and
 * the no-shuffle paths. Captured before runPhase() skipped idle tiles
 * and merge units.
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
        // The 128-port network: ports 64-127 and the upper half of
        // every port and tile mask. Captured before the shuffle pooled
        // its vectors.
        {"bfs-128-tiles",
         {"--app", "bfs", "--scale", "0.5", "--tiles", "128"},
         20712, 12582, 64298, 14596, 406608, 4805, 42393, 37746, 0},
        // 100 tiles on 128 ports: the upper 28 ports stay idle.
        {"pagerank-100-tiles-mrg1",
         {"--app", "pagerank", "--scale", "0.5", "--tiles", "100",
          "--merge", "mrg1"},
         656, 25536, 135936, 0, 187424, 740, 25772, 35438, 6},
    };
    return g;
}

/**
 * Saturated SpMUs: Conv keeps every issue queue full, so the Spmu stage
 * and the eject-hold loop are refused tens of thousands of times (27,817
 * to 194,400 refusals across the rows). Captured before a full queue
 * refused an enqueue without building its vector.
 */
const std::vector<Golden> &
saturatedSpmuGoldens()
{
    static const std::vector<Golden> g = {
        {"conv",
         {"--app", "conv", "--scale", "0.2", "--tiles", "4"},
         7442, 50518, 171578, 0, 6000, 13881, 27706, 99884, 31575},
        {"conv-plasticine",
         {"--app", "conv", "--scale", "0.2", "--tiles", "4", "--config",
          "plasticine"},
         41998, 50518, 171578, 0, 42208, 13881, 163676, 149826, 194400},
        // Bloom-filter refusals still go through tryEnqueue().
        {"conv-address-ordered",
         {"--app", "conv", "--scale", "0.2", "--tiles", "4", "--ordering",
          "address"},
         7560, 50518, 171578, 0, 6368, 13881, 28156, 99884, 37321},
        {"conv-weak-allocator",
         {"--app", "conv", "--scale", "0.2", "--tiles", "4", "--allocator",
          "weak"},
         9541, 50518, 171578, 0, 6128, 13881, 36081, 99884, 42442},
        {"conv-queue-depth-32",
         {"--app", "conv", "--scale", "0.2", "--tiles", "4",
          "--queue-depth", "32"},
         7444, 50518, 171578, 0, 5984, 13881, 27694, 99884, 27817},
    };
    return g;
}

} // namespace

TEST(MachineGolden, CycleCountsAndStallBreakdownsAreBitIdentical)
{
    std::vector<Golden> all = goldens();
    all.insert(all.end(), manyTileGoldens().begin(),
               manyTileGoldens().end());
    all.insert(all.end(), saturatedSpmuGoldens().begin(),
               saturatedSpmuGoldens().end());
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

TEST(MachineGolden, TrailingEmptyWindowsBurnScannerCycles)
{
    // pops = {3, 0, 0}: one 3-lane body token, then a valid_mask = 0
    // trailing token carrying scan_skip = 2. The trailing token burns
    // two Scan-stall cycles and must never retire at the sink.
    Machine m(sim::CapstanConfig::ideal(), 1);
    m.runPhase({{StageKind::Scan, 1}, {StageKind::Sink}},
               [](int) { return scanWindows({3, 0, 0}); });
    const RunTotals &t = m.totals();
    EXPECT_EQ(t.tokens, 1u);
    EXPECT_EQ(t.scan_empty_cycles, 2.0);
    EXPECT_EQ(t.active_lane_cycles, 3.0);
}

TEST(MachineGolden, AllEmptyWindowsStillCostScannerTime)
{
    // Only empty windows: the phase is pure scanner burn. Every burn
    // cycle is charged to the Scan stall class and counts in the phase
    // makespan.
    Machine m(sim::CapstanConfig::ideal(), 1);
    sim::Cycle cycles =
        m.runPhase({{StageKind::Scan, 1}, {StageKind::Sink}},
                   [](int) { return scanWindows({0, 0, 0, 0, 0}); });
    EXPECT_EQ(m.totals().tokens, 0u);
    EXPECT_EQ(m.totals().scan_empty_cycles, 5.0);
    EXPECT_GE(cycles, 5u);
}

TEST(MachineGolden, TrailingEmptyWindowCarriesPendingBytes)
{
    // A region ending in empty windows still streams those windows'
    // occupancy words from DRAM: the trailing token carries the bytes.
    Machine m(sim::CapstanConfig::capstan(sim::MemTech::HBM2E), 1);
    m.runPhase({{StageKind::DramStream, 1},
                {StageKind::Scan, 1},
                {StageKind::Sink}},
               [](int) { return scanWindows({0, 0}, 64); });
    EXPECT_EQ(m.totals().tokens, 0u);
    EXPECT_EQ(m.totals().scan_empty_cycles, 2.0);
    EXPECT_EQ(m.dram().stats().bytes, 128u);
}

TEST(MachineGolden, ReduceFlushGatedByTrailingBurnIsCycleExact)
{
    // A partial reduction whose flush is gated only by a trailing
    // scanner burn: the flush fires in the very cycle the burn counter
    // reaches zero.
    Machine m(sim::CapstanConfig::ideal(), 1);
    Token body = Token::compute(3);
    body.end_group = true;
    Token trailing = Token::compute(0);
    trailing.valid_mask = 0;
    trailing.scan_skip = 40;
    sim::Cycle cycles = m.runPhase(
        {{StageKind::Scan, 1}, {StageKind::Reduce, 1}, {StageKind::Sink}},
        [&](int) { return tokenStream({body, trailing}); });
    EXPECT_EQ(cycles, 43u);
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
