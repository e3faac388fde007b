/**
 * @file
 * Tests for the Sparse Memory Unit (Section 3.1).
 *
 * The model is timing-only, so the tests observe it through what it
 * issues and when: the grant trace, completions and statistics. Covers
 * repeated-read elision, exactly-once issue and same-address order per
 * ordering mode, refusal accounting, and the qualitative throughput
 * claims behind Table 4 and Fig. 4: deeper queues and more priorities
 * raise bank utilization, and Unordered > Address-Ordered > Arbitrated >
 * Fully-Ordered on random traces.
 */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <random>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/config.hpp"
#include "sim/spmu.hpp"

using namespace capstan::sim;

namespace {

AccessVector
makeVector(std::uint64_t id,
           const std::vector<std::tuple<int, std::uint32_t, AccessOp>>
               &lanes)
{
    AccessVector av;
    av.id = id;
    for (auto [lane, addr, op] : lanes) {
        av.lane[lane].valid = true;
        av.lane[lane].addr = addr;
        av.lane[lane].op = op;
    }
    return av;
}

/** Grant-trace entries of vector @p id, in issue order. */
std::vector<SparseMemoryUnit::GrantRecord>
grantsOf(const SparseMemoryUnit &spmu, std::uint64_t id)
{
    std::vector<SparseMemoryUnit::GrantRecord> out;
    for (const auto &g : spmu.grantTrace()) {
        if (g.vector_id == id)
            out.push_back(g);
    }
    return out;
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
    while (injected < vectors || !spmu.empty()) {
        if (injected < vectors) {
            AccessVector av;
            av.id = next_id++;
            for (int l = 0; l < kMaxLanes; ++l) {
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
    return spmu.stats().bankUtilization();
}

} // namespace

TEST(Spmu, RepeatedReadsAreElided)
{
    SpmuConfig cfg;
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
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
    EXPECT_EQ(spmu.stats().elided_reads, 15u);
    // One bank access, the first lane's, served all sixteen lanes.
    EXPECT_EQ(spmu.stats().grants, 1u);
    ASSERT_EQ(spmu.grantTrace().size(), 1u);
    EXPECT_EQ(spmu.grantTrace()[0].lane, 0);
}

TEST(Spmu, FullOrderingIssuesAReadAfterAWrite)
{
    // [Read a, AddF32 a, Read a]: program order puts the second read
    // after the update, so under full ordering it issues rather than
    // being elided onto the first. Unordered may still elide it.
    auto issued = [](Ordering mode) {
        SpmuConfig cfg;
        cfg.ordering = mode;
        SparseMemoryUnit spmu(cfg);
        spmu.enableGrantTrace(true);
        AccessVector av;
        av.id = 1;
        const AccessOp ops[] = {AccessOp::Read, AccessOp::AddF32,
                                AccessOp::Read};
        for (int l = 0; l < 3; ++l) {
            av.lane[l].valid = true;
            av.lane[l].addr = 7;
            av.lane[l].op = ops[l];
        }
        EXPECT_TRUE(spmu.tryEnqueue(av));
        EXPECT_EQ(drain(spmu).size(), 1u);
        std::vector<int> lanes;
        for (const auto &g : spmu.grantTrace())
            lanes.push_back(g.lane);
        return lanes;
    };
    EXPECT_EQ(issued(Ordering::FullyOrdered), (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(issued(Ordering::Unordered), (std::vector<int>{0, 1}));
}

TEST(Spmu, ArbitratedModeDoesNotElide)
{
    SpmuConfig cfg;
    cfg.ordering = Ordering::Arbitrated;
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
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
    // One bank serves the four lanes one per cycle, lowest lane first.
    auto grants = grantsOf(spmu, 1);
    ASSERT_EQ(grants.size(), 4u);
    for (int l = 0; l < 4; ++l)
        EXPECT_EQ(grants[static_cast<std::size_t>(l)].lane, l);
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

TEST(Spmu, FullDeepestQueueGrantsOldestFirstAcrossTheRing)
{
    // Every vector holds one access to bank 0, so each cycle grants one
    // access, to the oldest slot. The queue stays full at the deepest
    // depth while 300 vectors wrap its 64 ring positions several times,
    // so a slot found by ring position rather than age would issue out
    // of enqueue order.
    SpmuConfig cfg;
    cfg.queue_depth = kMaxQueueDepth;
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
    constexpr std::uint64_t kVectors = 300;
    std::uint64_t next_id = 0;
    int full_cycles = 0;
    for (int cycle = 0; cycle < 10000 && !(next_id == kVectors &&
                                            spmu.empty());
         ++cycle) {
        while (next_id < kVectors &&
               spmu.tryEnqueue(makeVector(next_id, {{0, 0, AccessOp::Read}})))
            ++next_id;
        full_cycles += spmu.occupancy() == kMaxQueueDepth;
        spmu.step();
        while (spmu.tryDequeue()) {
        }
    }
    ASSERT_TRUE(spmu.empty());
    EXPECT_GT(full_cycles, 100);
    ASSERT_EQ(spmu.grantTrace().size(), kVectors);
    for (std::uint64_t i = 0; i < kVectors; ++i)
        EXPECT_EQ(spmu.grantTrace()[i].vector_id, i);
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
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
    // Two lanes increment the same word in one vector: the vector
    // splits, and both issue, lane 0 first.
    auto av = makeVector(1, {{0, 50, AccessOp::AddF32},
                             {1, 50, AccessOp::AddF32},
                             {2, 51, AccessOp::AddF32}});
    ASSERT_TRUE(spmu.tryEnqueue(av));
    auto done = drain(spmu);
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(spmu.stats().splits, 1u);
    std::map<int, Cycle> issued_at;
    for (const auto &g : grantsOf(spmu, 1))
        EXPECT_TRUE(issued_at.emplace(g.lane, g.cycle).second)
            << "lane " << g.lane << " issued twice";
    ASSERT_EQ(issued_at.size(), 3u);
    EXPECT_LT(issued_at.at(0), issued_at.at(1));
}

TEST(Spmu, AddressOrderedBlocksConflictingVectors)
{
    SpmuConfig cfg;
    cfg.ordering = Ordering::AddressOrdered;
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
    auto av1 = makeVector(1, {{0, 123, AccessOp::AddF32}});
    auto av2 = makeVector(2, {{0, 123, AccessOp::AddF32}});
    ASSERT_TRUE(spmu.tryEnqueue(av1));
    // Same address still pending: the Bloom filter must refuse.
    EXPECT_FALSE(spmu.tryEnqueue(av2));
    EXPECT_EQ(spmu.stats().enqueue_stalls, 1u);
    drain(spmu);
    EXPECT_TRUE(spmu.tryEnqueue(av2));
    drain(spmu);
    // Both increments issue once, in program order.
    auto first = grantsOf(spmu, 1);
    auto second = grantsOf(spmu, 2);
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_LT(first[0].cycle, second[0].cycle);
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
            tried.tryEnqueue(makeVector(99, {{0, 5000, AccessOp::Read}})));
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
        spmu.tryEnqueue(makeVector(1, {{0, 123, AccessOp::AddF32}})));
    // The queue has room, so only tryEnqueue() sees the conflict.
    EXPECT_FALSE(spmu.refuseIfFull());
    EXPECT_EQ(spmu.stats().enqueue_stalls, 0u);
    EXPECT_FALSE(
        spmu.tryEnqueue(makeVector(2, {{3, 123, AccessOp::AddF32}})));
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
    // Arbitrated, weak allocator, no sparse extensions.
    variants.emplace_back("plasticine", CapstanConfig::plasticine().spmu);
    for (const auto &[name, cfg] : variants) {
        SparseMemoryUnit spmu(cfg);
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

namespace {

/**
 * Issues the documented rules require of each valid lane of @p av: a
 * read is elided (never issued) when the first earlier lane of the
 * vector with its address is a read, except in the arbitrated baseline,
 * and under address and full ordering only while no earlier lane
 * modifies that address. A modification issues twice without the sparse
 * extensions (the read, then the write); every other valid lane issues
 * once.
 */
std::array<int, kMaxLanes>
requiredIssues(const AccessVector &av, const SpmuConfig &cfg)
{
    std::array<int, kMaxLanes> n{};
    for (int l = 0; l < kMaxLanes; ++l) {
        const LaneRequest &lr = av.lane[l];
        if (!lr.valid)
            continue;
        bool read = lr.op == AccessOp::Read;
        n[l] = !read && !cfg.sparse_support ? 2 : 1;
        if (!read || cfg.ordering == Ordering::Arbitrated)
            continue;
        int first = -1;
        bool modified = false;
        for (int e = 0; e < l; ++e) {
            if (!av.lane[e].valid || av.lane[e].addr != lr.addr)
                continue;
            if (first < 0)
                first = e;
            modified |= av.lane[e].op != AccessOp::Read;
        }
        bool ordered = cfg.ordering == Ordering::AddressOrdered ||
                       cfg.ordering == Ordering::FullyOrdered;
        if (first >= 0 && av.lane[first].op == AccessOp::Read &&
            !(ordered && modified)) {
            n[l] = 0;
        }
    }
    return n;
}

/**
 * Offer seeded random vectors (reads and AddF32 mixed within a vector,
 * on a 64-word set, so addresses repeat inside and across vectors) and
 * check the grant trace: every valid lane issues requiredIssues() times;
 * under full ordering every access issues in program order (vector,
 * then lane); under address ordering same-address accesses issue in
 * vector order. Within one split vector, address ordering does not
 * order the parts' same-address lanes against each other: the allocator
 * can grant a later part's lane its bank first (see ROADMAP.md).
 */
void
checkGrantTrace(const std::string &name, const SpmuConfig &cfg,
                std::uint32_t seed, int vectors)
{
    SCOPED_TRACE(name);
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
    std::mt19937 rng(seed);
    std::vector<AccessVector> offered; // Indexed by vector id.
    int guard = 0;
    while (static_cast<int>(offered.size()) < vectors || !spmu.empty()) {
        ASSERT_LT(++guard, 1000000) << "SpMU failed to drain";
        if (static_cast<int>(offered.size()) < vectors) {
            AccessVector av;
            av.id = offered.size();
            for (int l = 0; l < kMaxLanes; ++l) {
                av.lane[l].valid = (rng() % 4) != 0;
                av.lane[l].addr = rng() % 64;
                av.lane[l].op =
                    (rng() % 2) ? AccessOp::Read : AccessOp::AddF32;
            }
            if (spmu.tryEnqueue(av))
                offered.push_back(av);
        }
        spmu.step();
        while (spmu.tryDequeue()) {
        }
    }

    std::vector<std::array<int, kMaxLanes>> issued(offered.size());
    // The (vector, lane) of the latest issued access, overall and per
    // address.
    std::pair<std::uint64_t, int> previous{0, -1};
    std::map<std::uint32_t, std::uint64_t> latest_vector;
    for (const auto &g : spmu.grantTrace()) {
        ASSERT_LT(g.vector_id, offered.size());
        ++issued[g.vector_id][static_cast<std::size_t>(g.lane)];
        std::pair<std::uint64_t, int> at{g.vector_id, g.lane};
        if (cfg.ordering == Ordering::FullyOrdered) {
            EXPECT_LT(previous, at) << "vector " << g.vector_id << " lane "
                                    << g.lane
                                    << " issued out of program order";
        }
        previous = at;
        std::uint32_t addr = offered[g.vector_id].lane[g.lane].addr;
        auto [it, first] = latest_vector.emplace(addr, g.vector_id);
        if (!first && cfg.ordering == Ordering::AddressOrdered) {
            EXPECT_LE(it->second, g.vector_id)
                << "address " << addr << ": vector " << g.vector_id
                << " issued before an older vector's access";
        }
        it->second = g.vector_id;
    }
    std::uint64_t elided = 0;
    for (std::size_t v = 0; v < offered.size(); ++v) {
        std::array<int, kMaxLanes> want = requiredIssues(offered[v], cfg);
        for (int l = 0; l < kMaxLanes; ++l) {
            EXPECT_EQ(issued[v][l], want[l])
                << "vector " << v << " lane " << l;
            elided += offered[v].lane[l].valid && want[l] == 0 ? 1 : 0;
        }
    }
    EXPECT_EQ(spmu.stats().elided_reads, elided);
    EXPECT_EQ(spmu.stats().grants, spmu.grantTrace().size());
}

} // namespace

/**
 * Property: every valid, non-elided access issues exactly once (twice
 * for a modification without the sparse extensions, as in Plasticine),
 * elided reads never issue, and same-address accesses keep the order
 * their ordering mode promises.
 */
TEST(SpmuProperty, AccessesIssueOnceAndInOrder)
{
    std::vector<std::pair<std::string, SpmuConfig>> variants;
    for (Ordering mode : {Ordering::Unordered, Ordering::AddressOrdered,
                          Ordering::FullyOrdered, Ordering::Arbitrated}) {
        for (int speedup : {1, 2}) {
            SpmuConfig cfg;
            cfg.ordering = mode;
            cfg.input_speedup = speedup;
            variants.emplace_back(
                orderingName(mode) + " speedup " + std::to_string(speedup),
                cfg);
        }
    }
    SpmuConfig ideal;
    ideal.ideal = true;
    variants.emplace_back("ideal", ideal);
    variants.emplace_back("plasticine", CapstanConfig::plasticine().spmu);
    for (const auto &[name, cfg] : variants)
        checkGrantTrace(name, cfg, 17, 300);
}
