/**
 * @file
 * Tests for the Sparse Memory Unit (Section 3.1).
 *
 * Covers functional RMW semantics, repeated-read elision, ordering-mode
 * behaviour, refusal accounting, and the qualitative throughput claims
 * behind Table 4 and Fig. 4: deeper queues and more priorities raise
 * bank utilization, and Unordered > Address-Ordered > Arbitrated >
 * Fully-Ordered on random traces.
 */

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/spmu.hpp"

using namespace capstan::sim;
using capstan::Value;

namespace {

AccessVector
makeVector(std::uint64_t id,
           const std::vector<std::tuple<int, std::uint32_t, AccessOp,
                                        Value>> &lanes)
{
    AccessVector av;
    av.id = id;
    for (auto [lane, addr, op, operand] : lanes) {
        av.lane[lane].valid = true;
        av.lane[lane].addr = addr;
        av.lane[lane].op = op;
        av.lane[lane].operand = operand;
    }
    return av;
}

/** Run the unit until idle; returns completed vectors in dequeue order. */
std::vector<CompletedVector>
drain(SparseMemoryUnit &spmu, int max_cycles = 100000)
{
    std::vector<CompletedVector> out;
    for (int i = 0; i < max_cycles && !spmu.empty(); ++i) {
        spmu.step();
        while (auto cv = spmu.tryDequeue())
            out.push_back(*cv);
    }
    EXPECT_TRUE(spmu.empty()) << "SpMU failed to drain";
    return out;
}

/**
 * Measured bank utilization for a saturating random-access stream.
 * Mirrors the Table 4 microbenchmark: keep the issue queue full with
 * full 16-lane vectors of uniformly random addresses.
 */
double
randomTraceUtilization(const SpmuConfig &cfg, int vectors = 3000,
                       std::uint32_t seed = 1234)
{
    SparseMemoryUnit spmu(cfg);
    std::mt19937 rng(seed);
    std::uint64_t next_id = 0;
    int injected = 0;
    // Warm up, then measure from a steady state.
    spmu.resetStats();
    while (injected < vectors || !spmu.empty()) {
        if (injected < vectors) {
            AccessVector av;
            av.id = next_id++;
            for (int l = 0; l < cfg.lanes; ++l) {
                av.lane[l].valid = true;
                av.lane[l].addr = rng();
                av.lane[l].op = AccessOp::Read;
            }
            if (spmu.tryEnqueue(av))
                ++injected;
        }
        spmu.step();
        while (spmu.tryDequeue()) {
        }
    }
    return spmu.stats().bankUtilization(cfg.banks);
}

} // namespace

TEST(Spmu, SingleReadReturnsStoredValue)
{
    SpmuConfig cfg;
    SparseMemoryUnit spmu(cfg, /*with_storage=*/true);
    spmu.poke(100, 42.0f);
    auto av = makeVector(1, {{0, 100, AccessOp::Read, 0.0f}});
    ASSERT_TRUE(spmu.tryEnqueue(av));
    auto done = drain(spmu);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0].id, 1u);
    EXPECT_FLOAT_EQ(done[0].result[0], 42.0f);
}

TEST(Spmu, RmwOperationsFollowTheFpuSemantics)
{
    SpmuConfig cfg;
    SparseMemoryUnit spmu(cfg, true);
    spmu.poke(0, 10.0f);
    spmu.poke(1, 0.0f);
    spmu.poke(2, 5.0f);
    spmu.poke(3, 0.0f);
    spmu.poke(4, 7.0f);
    auto av = makeVector(1, {
        {0, 0, AccessOp::AddF32, 2.5f},          // 10 + 2.5 -> 12.5
        {1, 1, AccessOp::TestAndSet, 0.0f},      // old 0, set to 1
        {2, 2, AccessOp::Min, 3.0f},             // min(5,3) -> 3
        {3, 3, AccessOp::WriteIfZero, 9.0f},     // old 0, write 9
        {4, 4, AccessOp::Swap, 1.0f},            // old 7, write 1
    });
    ASSERT_TRUE(spmu.tryEnqueue(av));
    auto done = drain(spmu);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FLOAT_EQ(done[0].result[0], 12.5f);
    EXPECT_FLOAT_EQ(done[0].result[1], 0.0f);
    EXPECT_FLOAT_EQ(done[0].result[2], 3.0f);
    EXPECT_FLOAT_EQ(done[0].result[3], 0.0f);
    EXPECT_FLOAT_EQ(done[0].result[4], 7.0f);
    EXPECT_FLOAT_EQ(spmu.peek(0), 12.5f);
    EXPECT_FLOAT_EQ(spmu.peek(1), 1.0f);
    EXPECT_FLOAT_EQ(spmu.peek(2), 3.0f);
    EXPECT_FLOAT_EQ(spmu.peek(3), 9.0f);
    EXPECT_FLOAT_EQ(spmu.peek(4), 1.0f);
}

TEST(Spmu, MinReportChangedReportsOnlyImprovements)
{
    SpmuConfig cfg;
    SparseMemoryUnit spmu(cfg, true);
    spmu.poke(0, 5.0f);
    auto av1 = makeVector(1, {{0, 0, AccessOp::MinReportChanged, 3.0f}});
    ASSERT_TRUE(spmu.tryEnqueue(av1));
    auto d1 = drain(spmu);
    EXPECT_FLOAT_EQ(d1[0].result[0], 1.0f); // changed
    auto av2 = makeVector(2, {{0, 0, AccessOp::MinReportChanged, 4.0f}});
    ASSERT_TRUE(spmu.tryEnqueue(av2));
    auto d2 = drain(spmu);
    EXPECT_FLOAT_EQ(d2[0].result[0], 0.0f); // no change
    EXPECT_FLOAT_EQ(spmu.peek(0), 3.0f);
}

TEST(Spmu, RepeatedReadsAreElided)
{
    SpmuConfig cfg;
    SparseMemoryUnit spmu(cfg, true);
    spmu.poke(7, 3.25f);
    AccessVector av;
    av.id = 9;
    for (int l = 0; l < 16; ++l) {
        av.lane[l].valid = true;
        av.lane[l].addr = 7; // all lanes read the same word
        av.lane[l].op = AccessOp::Read;
    }
    ASSERT_TRUE(spmu.tryEnqueue(av));
    auto done = drain(spmu);
    ASSERT_EQ(done.size(), 1u);
    for (int l = 0; l < 16; ++l)
        EXPECT_FLOAT_EQ(done[0].result[l], 3.25f) << "lane " << l;
    EXPECT_EQ(spmu.stats().elided_reads, 15u);
    // One bank access served all sixteen lanes.
    EXPECT_EQ(spmu.stats().grants, 1u);
}

TEST(Spmu, ArbitratedModeDoesNotElide)
{
    SpmuConfig cfg;
    cfg.ordering = Ordering::Arbitrated;
    SparseMemoryUnit spmu(cfg, true);
    AccessVector av;
    av.id = 1;
    for (int l = 0; l < 4; ++l) {
        av.lane[l].valid = true;
        av.lane[l].addr = 7;
        av.lane[l].op = AccessOp::Read;
    }
    ASSERT_TRUE(spmu.tryEnqueue(av));
    drain(spmu);
    EXPECT_EQ(spmu.stats().elided_reads, 0u);
    EXPECT_EQ(spmu.stats().grants, 4u);
}

TEST(Spmu, VectorsDequeueInFifoOrder)
{
    SpmuConfig cfg;
    SparseMemoryUnit spmu(cfg);
    std::mt19937 rng(5);
    for (std::uint64_t id = 0; id < 8; ++id) {
        AccessVector av;
        av.id = id;
        for (int l = 0; l < 16; ++l) {
            av.lane[l].valid = true;
            av.lane[l].addr = rng();
        }
        ASSERT_TRUE(spmu.tryEnqueue(av));
        spmu.step(); // interleave to stress the pipeline
    }
    auto done = drain(spmu);
    ASSERT_EQ(done.size(), 8u);
    for (std::uint64_t id = 0; id < 8; ++id)
        EXPECT_EQ(done[id].id, id);
}

TEST(Spmu, QueueDepthBoundsOccupancy)
{
    SpmuConfig cfg;
    cfg.queue_depth = 4;
    SparseMemoryUnit spmu(cfg);
    AccessVector av;
    av.id = 0;
    for (int l = 0; l < 16; ++l) {
        av.lane[l].valid = true;
        av.lane[l].addr = 0; // worst case: every lane hits bank 0
    }
    int accepted = 0;
    for (int i = 0; i < 10; ++i) {
        av.id = i;
        if (spmu.tryEnqueue(av))
            ++accepted;
    }
    EXPECT_EQ(accepted, 4);
    EXPECT_GT(spmu.stats().enqueue_stalls, 0u);
    drain(spmu);
}

TEST(Spmu, XorHashSpreadsPowerOfTwoStrides)
{
    SpmuConfig hash_cfg;
    hash_cfg.hash = BankHash::Xor;
    SpmuConfig lin_cfg;
    lin_cfg.hash = BankHash::Linear;
    SparseMemoryUnit hashed(hash_cfg);
    SparseMemoryUnit linear(lin_cfg);
    // Stride of 16 words: linear mapping pins everything on one bank.
    std::set<int> hash_banks, lin_banks;
    for (int i = 0; i < 16; ++i) {
        hash_banks.insert(hashed.bankOf(16 * i));
        lin_banks.insert(linear.bankOf(16 * i));
    }
    EXPECT_EQ(lin_banks.size(), 1u);
    EXPECT_EQ(hash_banks.size(), 16u);
}

TEST(Spmu, AddressOrderedSerializesSameAddressRmw)
{
    SpmuConfig cfg;
    cfg.ordering = Ordering::AddressOrdered;
    SparseMemoryUnit spmu(cfg, true);
    // Two lanes increment the same word in one vector: both must land.
    auto av = makeVector(1, {{0, 50, AccessOp::AddF32, 1.0f},
                             {1, 50, AccessOp::AddF32, 1.0f},
                             {2, 51, AccessOp::AddF32, 1.0f}});
    ASSERT_TRUE(spmu.tryEnqueue(av));
    auto done = drain(spmu);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_FLOAT_EQ(spmu.peek(50), 2.0f);
    EXPECT_FLOAT_EQ(spmu.peek(51), 1.0f);
    EXPECT_GE(spmu.stats().splits, 1u);
}

TEST(Spmu, AddressOrderedBlocksConflictingVectors)
{
    SpmuConfig cfg;
    cfg.ordering = Ordering::AddressOrdered;
    SparseMemoryUnit spmu(cfg, true);
    auto av1 = makeVector(1, {{0, 123, AccessOp::AddF32, 1.0f}});
    auto av2 = makeVector(2, {{0, 123, AccessOp::AddF32, 1.0f}});
    ASSERT_TRUE(spmu.tryEnqueue(av1));
    // Same address still pending: the Bloom filter must refuse.
    EXPECT_FALSE(spmu.canEnqueue(av2));
    drain(spmu);
    EXPECT_TRUE(spmu.tryEnqueue(av2));
    drain(spmu);
    EXPECT_FLOAT_EQ(spmu.peek(123), 2.0f);
}

TEST(Spmu, FullQueueRefusesBeforeBuildAsTryEnqueueWould)
{
    // The machine skips building a vector for a full SpMU; the refusal
    // it records must be the one a refused tryEnqueue() records.
    for (Ordering mode : {Ordering::Unordered, Ordering::AddressOrdered,
                          Ordering::FullyOrdered, Ordering::Arbitrated}) {
        SCOPED_TRACE(orderingName(mode));
        SpmuConfig cfg;
        cfg.ordering = mode;
        cfg.queue_depth = 4;
        SparseMemoryUnit pre(cfg);
        SparseMemoryUnit tried(cfg);
        // With room, the pre-check passes and counts nothing.
        EXPECT_FALSE(pre.refuseIfFull());
        EXPECT_EQ(pre.stats().enqueue_stalls, 0u);
        // Fill both with identical offers of fresh addresses (the Bloom
        // filter may still refuse some under address ordering).
        std::uint32_t addr = 0;
        for (std::uint64_t id = 1; pre.occupancy() < cfg.queue_depth; ++id) {
            ASSERT_LT(id, 1000u) << "the queue never filled";
            AccessVector av;
            av.id = id;
            for (int l = 0; l < 4; ++l) {
                av.lane[l].valid = true;
                av.lane[l].addr = addr++;
            }
            ASSERT_EQ(pre.tryEnqueue(av), tried.tryEnqueue(av));
        }
        ASSERT_EQ(tried.occupancy(), cfg.queue_depth);
        std::uint64_t stalls = pre.stats().enqueue_stalls;

        EXPECT_TRUE(pre.refuseIfFull());
        EXPECT_FALSE(
            tried.tryEnqueue(makeVector(99, {{0, 5000, AccessOp::Read, 0}})));
        EXPECT_EQ(pre.stats().enqueue_stalls, stalls + 1);
        const SpmuStats &a = pre.stats();
        const SpmuStats &b = tried.stats();
        EXPECT_EQ(a.enqueue_stalls, b.enqueue_stalls);
        EXPECT_EQ(a.vectors_in, b.vectors_in);
        EXPECT_EQ(a.splits, b.splits);
        EXPECT_EQ(a.elided_reads, b.elided_reads);
        EXPECT_EQ(pre.occupancy(), tried.occupancy());
    }
}

TEST(Spmu, BloomConflictPassesThePreCheckAndTryEnqueueRefuses)
{
    SpmuConfig cfg;
    cfg.ordering = Ordering::AddressOrdered;
    SparseMemoryUnit spmu(cfg);
    ASSERT_TRUE(
        spmu.tryEnqueue(makeVector(1, {{0, 123, AccessOp::AddF32, 1.0f}})));
    // The queue has room, so only tryEnqueue() sees the conflict.
    EXPECT_FALSE(spmu.refuseIfFull());
    EXPECT_EQ(spmu.stats().enqueue_stalls, 0u);
    EXPECT_FALSE(
        spmu.tryEnqueue(makeVector(2, {{3, 123, AccessOp::AddF32, 1.0f}})));
    EXPECT_EQ(spmu.stats().enqueue_stalls, 1u);
    EXPECT_EQ(spmu.occupancy(), 1);
}

TEST(Spmu, IdealModeIgnoresBankConflicts)
{
    SpmuConfig cfg;
    cfg.ideal = true;
    double util = randomTraceUtilization(cfg, 500);
    EXPECT_GT(util, 0.95);
}

// ---- Qualitative reproduction of Table 4 / Fig. 4 trends ----

TEST(SpmuThroughput, DeeperQueuesRaiseUtilization)
{
    SpmuConfig d8, d16, d32;
    d8.queue_depth = 8;
    d16.queue_depth = 16;
    d32.queue_depth = 32;
    double u8 = randomTraceUtilization(d8, 2000);
    double u16 = randomTraceUtilization(d16, 2000);
    double u32 = randomTraceUtilization(d32, 2000);
    EXPECT_LT(u8, u16);
    EXPECT_LT(u16, u32);
    // Table 4 band check: depth-16, 3-priority lands near 80%.
    EXPECT_GT(u16, 0.60);
    EXPECT_LT(u16, 0.95);
}

TEST(SpmuThroughput, MorePrioritiesRaiseUtilization)
{
    SpmuConfig p1, p3;
    p1.priorities = 1;
    p3.priorities = 3;
    double u1 = randomTraceUtilization(p1, 2000);
    double u3 = randomTraceUtilization(p3, 2000);
    EXPECT_LT(u1, u3);
}

TEST(SpmuThroughput, InputSpeedupRaisesUtilization)
{
    SpmuConfig s1, s2;
    s1.input_speedup = 1;
    s2.input_speedup = 2;
    double u1 = randomTraceUtilization(s1, 2000);
    double u2 = randomTraceUtilization(s2, 2000);
    EXPECT_LT(u1, u2);
}

TEST(SpmuThroughput, OrderingModesRankAsInFigure4)
{
    SpmuConfig unord, addr, full, arb;
    unord.ordering = Ordering::Unordered;
    addr.ordering = Ordering::AddressOrdered;
    full.ordering = Ordering::FullyOrdered;
    arb.ordering = Ordering::Arbitrated;
    double uu = randomTraceUtilization(unord, 2000);
    double ua = randomTraceUtilization(addr, 2000);
    double uf = randomTraceUtilization(full, 2000);
    double ub = randomTraceUtilization(arb, 2000);
    // Fig. 4: Unordered 79.9% > Address-Ordered 34.2% ~ Arbitrated
    // 32.4% > Fully-Ordered 25.5%. We assert the ordering the paper
    // calls out explicitly (unordered fastest, fully-ordered slower
    // than the arbitrated baseline).
    EXPECT_GT(uu, ua);
    EXPECT_GT(ua, uf);
    EXPECT_GT(ub, uf);
    EXPECT_GT(uu, 2.0 * ub) << "scheduling should far outrun arbitration";
}

TEST(SpmuThroughput, ArbitratedNearPaperValue)
{
    SpmuConfig arb;
    arb.ordering = Ordering::Arbitrated;
    double u = randomTraceUtilization(arb, 3000);
    // Paper: 32.4% (random trace). Allow a generous modelling band.
    EXPECT_GT(u, 0.25);
    EXPECT_LT(u, 0.45);
}

/**
 * Property: every enqueued vector dequeues exactly once, in enqueue
 * order (tryDequeue()'s guarantee, which lang::Machine's completion
 * FIFO relies on), for every ordering mode and SpMU variant.
 */
TEST(SpmuProperty, ConservationOfVectors)
{
    std::mt19937 rng(91);
    std::vector<std::pair<std::string, SpmuConfig>> variants;
    for (Ordering mode : {Ordering::Unordered, Ordering::AddressOrdered,
                          Ordering::FullyOrdered, Ordering::Arbitrated}) {
        SpmuConfig cfg;
        cfg.ordering = mode;
        variants.emplace_back(orderingName(mode), cfg);
    }
    SpmuConfig ideal;
    ideal.ideal = true;
    variants.emplace_back("ideal", ideal);
    SpmuConfig speedup;
    speedup.input_speedup = 2;
    variants.emplace_back("input_speedup=2", speedup);
    // Arbitrated, weak allocator, rmw_blocks and single_access.
    variants.emplace_back("plasticine", CapstanConfig::plasticine().spmu);
    for (const auto &[name, cfg] : variants) {
        SparseMemoryUnit spmu(cfg, true);
        std::uint64_t id = 0;
        std::vector<CompletedVector> done;
        int enq = 0;
        while (enq < 200) {
            AccessVector av;
            av.id = id;
            for (int l = 0; l < 16; ++l) {
                av.lane[l].valid = (rng() % 4) != 0;
                av.lane[l].addr = rng() % 512;
                av.lane[l].op =
                    (rng() % 2) ? AccessOp::Read : AccessOp::AddF32;
                av.lane[l].operand = 1.0f;
            }
            if (spmu.tryEnqueue(av)) {
                ++enq;
                ++id;
            }
            spmu.step();
            while (auto cv = spmu.tryDequeue())
                done.push_back(*cv);
        }
        for (auto cv = spmu.tryDequeue(); !spmu.empty() || cv;
             cv = spmu.tryDequeue()) {
            if (cv)
                done.push_back(*cv);
            else
                spmu.step();
        }
        ASSERT_EQ(done.size(), 200u) << name;
        for (std::size_t i = 0; i < done.size(); ++i)
            ASSERT_EQ(done[i].id, i) << name;
    }
}

/**
 * Property: the sum of AddF32 increments equals the stored totals under
 * every ordering mode (atomicity of the RMW pipeline).
 */
TEST(SpmuProperty, RmwIncrementsNeverLost)
{
    std::mt19937 rng(17);
    for (Ordering mode : {Ordering::Unordered, Ordering::AddressOrdered,
                          Ordering::FullyOrdered}) {
        SpmuConfig cfg;
        cfg.ordering = mode;
        SparseMemoryUnit spmu(cfg, true);
        std::vector<int> expected(64, 0);
        std::uint64_t id = 0;
        int enq = 0;
        while (enq < 300) {
            AccessVector av;
            av.id = id;
            std::vector<int> staged;
            for (int l = 0; l < 16; ++l) {
                av.lane[l].valid = true;
                int a = static_cast<int>(rng() % 64);
                av.lane[l].addr = static_cast<std::uint32_t>(a);
                av.lane[l].op = AccessOp::AddF32;
                av.lane[l].operand = 1.0f;
                staged.push_back(a);
            }
            if (spmu.tryEnqueue(av)) {
                for (int a : staged)
                    ++expected[a];
                ++enq;
                ++id;
            }
            spmu.step();
            while (spmu.tryDequeue()) {
            }
        }
        drain(spmu);
        for (int a = 0; a < 64; ++a) {
            ASSERT_FLOAT_EQ(spmu.peek(a), static_cast<float>(expected[a]))
                << orderingName(mode) << " addr " << a;
        }
    }
}
