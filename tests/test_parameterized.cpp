/**
 * @file
 * Parameterized property sweeps (TEST_P) across the hardware models'
 * configuration spaces: every SpMU geometry must preserve matching and
 * conservation invariants, every scanner geometry must conserve set
 * bits, every shuffle mode/size must deliver every lane, and every
 * machine configuration must run SpMV and keep BFS's traversal correct
 * (timing never changes answers).
 */

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "apps/graph.hpp"
#include "apps/spmv.hpp"
#include "sim/scanner.hpp"
#include "sim/shuffle.hpp"
#include "sim/spmu.hpp"
#include "workloads/synth.hpp"

using namespace capstan;
namespace sim = capstan::sim;
namespace apps = capstan::apps;
namespace workloads = capstan::workloads;

// ---------------------------------------------------------------------
// SpMU geometry sweep: depth x priorities x speedup x ordering.
// ---------------------------------------------------------------------

using SpmuParam = std::tuple<int, int, int, sim::Ordering>;

class SpmuGeometry : public ::testing::TestWithParam<SpmuParam>
{
  protected:
    sim::SpmuConfig
    config() const
    {
        auto [depth, priorities, speedup, ordering] = GetParam();
        sim::SpmuConfig cfg;
        cfg.queue_depth = depth;
        cfg.priorities = priorities;
        cfg.input_speedup = speedup;
        cfg.ordering = ordering;
        return cfg;
    }
};

TEST_P(SpmuGeometry, ConservesVectorsAndAccessesUnderRandomLoad)
{
    sim::SparseMemoryUnit spmu(config());
    spmu.enableGrantTrace(true);
    std::mt19937 rng(1234);
    const int n = 150;
    // Valid lanes per vector; AddF32 is never elided, so each issues
    // exactly once.
    std::vector<std::uint16_t> valid;
    std::uint64_t deq = 0;
    int guard = 0;
    while ((static_cast<int>(valid.size()) < n || !spmu.empty()) &&
           ++guard < 200000) {
        if (static_cast<int>(valid.size()) < n) {
            sim::AccessVector av;
            av.id = valid.size();
            std::uint16_t lanes = 0;
            for (int l = 0; l < 16; ++l) {
                av.lane[l].valid = (rng() % 5) != 0;
                if (!av.lane[l].valid)
                    continue;
                av.lane[l].addr = rng() % 128;
                av.lane[l].op = sim::AccessOp::AddF32;
                lanes |= static_cast<std::uint16_t>(1u << l);
            }
            if (spmu.tryEnqueue(av))
                valid.push_back(lanes);
        }
        spmu.step();
        while (auto cv = spmu.tryDequeue()) {
            ASSERT_EQ(cv->id, deq) << "FIFO order broken";
            ++deq;
        }
    }
    ASSERT_LT(guard, 200000) << "SpMU failed to drain";
    ASSERT_EQ(deq, static_cast<std::uint64_t>(n));
    std::vector<std::uint16_t> issued(valid.size(), 0);
    for (const auto &g : spmu.grantTrace()) {
        ASSERT_LT(g.vector_id, issued.size());
        auto bit = static_cast<std::uint16_t>(1u << g.lane);
        ASSERT_FALSE(issued[g.vector_id] & bit)
            << "vector " << g.vector_id << " lane " << g.lane
            << " issued twice";
        issued[g.vector_id] |= bit;
    }
    ASSERT_EQ(issued, valid) << "an access never issued";
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SpmuGeometry,
    ::testing::Combine(
        ::testing::Values(4, 8, 16, 32),          // queue depth
        ::testing::Values(1, 2, 3),               // priorities
        ::testing::Values(1, 2),                  // input speedup
        ::testing::Values(sim::Ordering::Unordered,
                          sim::Ordering::AddressOrdered,
                          sim::Ordering::FullyOrdered,
                          sim::Ordering::Arbitrated)));

// ---------------------------------------------------------------------
// Scanner geometry sweep: window width x output vectorization.
// ---------------------------------------------------------------------

using ScannerParam = std::tuple<int, int>;

class ScannerGeometry : public ::testing::TestWithParam<ScannerParam>
{
};

TEST_P(ScannerGeometry, ConservesSetBitsAndBoundsCycles)
{
    auto [width, outputs] = GetParam();
    sim::ScannerConfig cfg;
    cfg.window_bits = width;
    cfg.outputs = outputs;
    sim::ScannerModel model(cfg);

    std::mt19937 rng(width * 131 + outputs);
    sparse::BitVector a(4096);
    sparse::BitVector b(4096);
    for (Index i = 0; i < 4096; ++i) {
        if (rng() % 7 == 0)
            a.set(i);
        if (rng() % 3 == 0)
            b.set(i);
    }
    auto t = model.scanBitVectors(a, b, sim::ScanMode::Union);
    EXPECT_EQ(t.outputs, static_cast<std::uint64_t>((a | b).count()));
    // Lower bounds: one cycle per window, one cycle per `outputs`.
    sim::Cycle windows = (4096 + width - 1) / width;
    EXPECT_GE(t.cycles, windows);
    EXPECT_GE(t.cycles * outputs, t.outputs);
    // Upper bound: never worse than one cycle per set bit plus one per
    // window.
    EXPECT_LE(t.cycles, windows + t.outputs);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ScannerGeometry,
    ::testing::Combine(::testing::Values(16, 64, 128, 256, 512),
                       ::testing::Values(1, 2, 4, 8, 16)));

// ---------------------------------------------------------------------
// Shuffle network sweep: ports x merge mode.
// ---------------------------------------------------------------------

using ShuffleParam = std::tuple<int, sim::MergeMode>;

class ShuffleGeometry : public ::testing::TestWithParam<ShuffleParam>
{
};

TEST_P(ShuffleGeometry, DeliversEveryLaneToItsPort)
{
    auto [ports, mode] = GetParam();
    sim::ShuffleConfig cfg;
    cfg.ports = ports;
    cfg.mode = mode;
    sim::ShuffleNetwork net(cfg);
    std::mt19937 rng(ports * 7 + static_cast<int>(mode));

    int sent = 0;
    int got = 0;
    std::uint64_t id = 0;
    int injected = 0;
    auto drainOutputs = [&]() {
        for (int p = 0; p < ports; ++p) {
            while (auto v = net.tryEject(p)) {
                for (int l = 0; l < sim::kMaxLanes; ++l) {
                    if (v->valid[l]) {
                        ASSERT_EQ(v->dst_port[l], p);
                        ++got;
                    }
                }
            }
        }
    };
    while (injected < 120) {
        sim::ShuffleVector v;
        v.src_port = static_cast<int>(rng() % ports);
        v.id = id;
        int lanes = 0;
        for (int l = 0; l < sim::kMaxLanes; ++l) {
            if (rng() % 2) {
                v.valid[l] = true;
                v.dst_port[l] = static_cast<int>(rng() % ports);
                v.src_lane[l] = l;
                ++lanes;
            }
        }
        if (lanes == 0)
            continue;
        if (net.tryInject(v.src_port, v)) {
            sent += lanes;
            ++injected;
            ++id;
        }
        net.step();
        drainOutputs();
    }
    for (int i = 0; i < 20000 && !net.empty(); ++i) {
        net.step();
        drainOutputs();
    }
    ASSERT_TRUE(net.empty());
    ASSERT_EQ(got, sent);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ShuffleGeometry,
    ::testing::Combine(::testing::Values(2, 4, 8, 16, 32),
                       ::testing::Values(sim::MergeMode::Mrg0,
                                         sim::MergeMode::Mrg1,
                                         sim::MergeMode::Mrg16)));

// ---------------------------------------------------------------------
// Applications under every machine configuration: SpMV runs, and BFS,
// whose traversal drives its token stream, keeps its reference levels.
// ---------------------------------------------------------------------

struct MachineCase
{
    const char *name;
    sim::CapstanConfig cfg;
};

class AppUnderConfig : public ::testing::TestWithParam<MachineCase>
{
};

TEST_P(AppUnderConfig, SpmvRunsAndBfsStaysCorrect)
{
    const sim::CapstanConfig &cfg = GetParam().cfg;
    auto m = workloads::uniformRandomMatrix(150, 150, 0.06, 77);
    EXPECT_GT(apps::runSpmvCsr(m, cfg, 4).cycles, 0u);
    EXPECT_GT(apps::runSpmvCoo(m, cfg, 4).cycles, 0u);

    auto g = workloads::roadGraph(400, 5);
    auto bfs = apps::runBfs(g, 0, cfg, 4);
    auto levels = apps::bfsReference(g, 0);
    EXPECT_EQ(bfs.level, levels);
}

INSTANTIATE_TEST_SUITE_P(
    Configs, AppUnderConfig,
    ::testing::Values(
        MachineCase{"hbm2e",
                    sim::CapstanConfig::capstan(sim::MemTech::HBM2E)},
        MachineCase{"ddr4",
                    sim::CapstanConfig::capstan(sim::MemTech::DDR4)},
        MachineCase{"ideal", sim::CapstanConfig::ideal()},
        MachineCase{"plasticine",
                    sim::CapstanConfig::plasticine(sim::MemTech::HBM2E)},
        MachineCase{"address_ordered",
                    [] {
                        auto c = sim::CapstanConfig::capstan(
                            sim::MemTech::HBM2E);
                        c.spmu.ordering =
                            sim::Ordering::AddressOrdered;
                        return c;
                    }()},
        MachineCase{"narrow_scanner",
                    [] {
                        auto c = sim::CapstanConfig::capstan(
                            sim::MemTech::HBM2E);
                        c.scanner.window_bits = 64;
                        c.scanner.outputs = 4;
                        c.scanner.data_elements = 2;
                        return c;
                    }()},
        MachineCase{"no_shuffle",
                    [] {
                        auto c = sim::CapstanConfig::capstan(
                            sim::MemTech::HBM2E);
                        c.merge = sim::MergeMode::None;
                        return c;
                    }()},
        MachineCase{"mrg16",
                    [] {
                        auto c = sim::CapstanConfig::capstan(
                            sim::MemTech::HBM2E);
                        c.merge = sim::MergeMode::Mrg16;
                        return c;
                    }()}),
    [](const ::testing::TestParamInfo<MachineCase> &case_info) {
        return case_info.param.name;
    });
