/**
 * @file
 * End-to-end integration smoke tests: every Table 6 dataset flows
 * through an application of its family on the full Capstan stack, and
 * the timing counters must be internally consistent (work
 * conservation, capacity bounds, SpMU vectors in equal vectors out).
 */

#include <gtest/gtest.h>

#include "apps/bicgstab.hpp"
#include "apps/conv.hpp"
#include "apps/graph.hpp"
#include "apps/matadd.hpp"
#include "apps/pagerank.hpp"
#include "apps/spmspm.hpp"
#include "apps/spmv.hpp"
#include "workloads/datasets.hpp"

using namespace capstan;
using namespace capstan::apps;
using namespace capstan::workloads;
namespace sim = capstan::sim;

namespace {

sim::CapstanConfig
cfg()
{
    return sim::CapstanConfig::capstan(sim::MemTech::HBM2E);
}

void
checkTiming(const AppTiming &t, const char *what)
{
    EXPECT_GT(t.cycles, 0u) << what;
    EXPECT_GT(t.totals.tokens, 0u) << what;
    EXPECT_GT(t.totals.active_lane_cycles, 0.0) << what;
    // Lane-cycles of useful work can never exceed the machine's
    // capacity over the run.
    EXPECT_LE(t.totals.active_lane_cycles,
              static_cast<double>(t.cycles) * 16.0 * 64.0)
        << what;
    // The SpMU issued exactly as many vectors as completed.
    EXPECT_EQ(t.spmu.vectors_in, t.spmu.vectors_out) << what;
    EXPECT_DOUBLE_EQ(t.runtime_ms,
                     static_cast<double>(t.cycles) / (1.6 * 1e6))
        << what;
}

} // namespace

TEST(Integration, LinearAlgebraDatasetsThroughSpmvAndSolver)
{
    for (const auto &name : linearAlgebraDatasetNames()) {
        auto d = loadMatrixDataset(name, 0.03);
        auto spmv = runSpmvCsr(d.matrix, cfg(), 8);
        checkTiming(spmv, name.c_str());
        // Matrix bytes must at least stream once.
        EXPECT_GE(spmv.dram.bytes,
                  static_cast<std::uint64_t>(8) * d.matrix.nnz())
            << name;
        checkTiming(runBicgstab(d.matrix, 1, cfg(), 8), name.c_str());
    }
}

TEST(Integration, GraphDatasetsThroughTraversalsAndPageRank)
{
    for (const auto &name : graphDatasetNames()) {
        auto d = loadMatrixDataset(name, 0.01);
        auto bfs = runBfs(d.matrix, 0, cfg(), 8);
        checkTiming(bfs.timing, name.c_str());
        auto want = bfsReference(d.matrix, 0);
        EXPECT_EQ(bfs.level, want) << name;
        checkTiming(runPageRankEdge(d.matrix, 1, cfg(), 8), name.c_str());
    }
}

TEST(Integration, SpmspmDatasetsThroughSpmspm)
{
    for (const auto &name : spmspmDatasetNames()) {
        auto d = loadMatrixDataset(name, 0.5);
        checkTiming(runSpmspm(d.matrix, d.matrix, cfg(), 8), name.c_str());
    }
}

TEST(Integration, ConvDatasetsThroughConv)
{
    for (const auto &name : convDatasetNames()) {
        auto d = loadConvDataset(name, 0.05);
        checkTiming(runConv(d.layer, cfg(), 8), name.c_str());
    }
}

TEST(Integration, MatAddOnLinearAlgebraDataset)
{
    auto d = loadMatrixDataset("ckt11752_dc_1", 0.05);
    auto bt = d.matrix.transpose();
    auto res = runMatAdd(d.matrix, bt, cfg(), 8);
    checkTiming(res, "M+M");
    // Bit-tree iteration should spend some scanner cycles on the
    // top-level pass but skip empty leaves entirely.
    EXPECT_GT(res.totals.scan_empty_cycles, 0.0);
}

TEST(Integration, CrossConfigCyclesDiffer)
{
    auto d = loadMatrixDataset("Trefethen_20000", 0.05);
    auto fast = runSpmvCoo(d.matrix, cfg(), 8);
    auto slow = runSpmvCoo(
        d.matrix, sim::CapstanConfig::plasticine(sim::MemTech::HBM2E), 8);
    EXPECT_NE(fast.cycles, slow.cycles);
}
