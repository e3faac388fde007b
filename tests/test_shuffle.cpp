/**
 * @file
 * Tests for the butterfly shuffle network (Section 3.2).
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <random>
#include <set>
#include <vector>

#include "sim/shuffle.hpp"

using namespace capstan::sim;

namespace {

ShuffleVector
makeVector(int src_port, std::uint64_t id,
           const std::vector<std::pair<int, int>> &lane_dst)
{
    ShuffleVector v;
    v.src_port = src_port;
    v.id = id;
    for (auto [lane, dst] : lane_dst) {
        v.valid[lane] = true;
        v.dst_port[lane] = dst;
        v.src_lane[lane] = lane;
        v.addr[lane] = static_cast<std::uint32_t>(dst * 1000 + lane);
    }
    return v;
}

int
validLanes(const ShuffleVector &v)
{
    return static_cast<int>(v.valid.count());
}

/** Step until every port has drained; returns ejections per port. */
std::map<int, std::vector<ShuffleVector>>
drain(ShuffleNetwork &net, int max_cycles = 10000)
{
    std::map<int, std::vector<ShuffleVector>> out;
    for (int i = 0; i < max_cycles && !net.empty(); ++i) {
        net.step();
        net.deliveredPorts().forEach([&](int p) {
            while (auto v = net.tryEject(p))
                out[p].push_back(*v);
        });
    }
    EXPECT_TRUE(net.empty()) << "network failed to drain";
    return out;
}

} // namespace

TEST(Shuffle, LocalVectorBypasses)
{
    ShuffleConfig cfg;
    cfg.ports = 4;
    ShuffleNetwork net(cfg);
    auto v = makeVector(2, 1, {{0, 2}, {5, 2}});
    ASSERT_TRUE(net.tryInject(2, v));
    // Ejectable before any step: the vector never entered the butterfly.
    auto got = net.tryEject(2);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->id, 1u);
    EXPECT_TRUE(net.empty());
}

TEST(Shuffle, RoutesEachLaneToItsDestination)
{
    ShuffleConfig cfg;
    cfg.ports = 4;
    ShuffleNetwork net(cfg);
    // One vector from port 0 with lanes to all four destinations.
    auto v = makeVector(0, 7, {{0, 0}, {1, 1}, {2, 2}, {3, 3}});
    ASSERT_TRUE(net.tryInject(0, v));
    auto out = drain(net);
    std::map<int, int> lanes_at_port;
    for (auto &[port, vecs] : out) {
        for (const ShuffleVector &sv : vecs) {
            for (int l = 0; l < kMaxLanes; ++l) {
                if (sv.valid[l]) {
                    EXPECT_EQ(sv.dst_port[l], port);
                    ++lanes_at_port[port];
                }
            }
        }
    }
    EXPECT_EQ(lanes_at_port[0], 1);
    EXPECT_EQ(lanes_at_port[1], 1);
    EXPECT_EQ(lanes_at_port[2], 1);
    EXPECT_EQ(lanes_at_port[3], 1);
}

TEST(Shuffle, MergesNonConflictingVectors)
{
    ShuffleConfig cfg;
    cfg.ports = 4;
    cfg.mode = MergeMode::Mrg1;
    ShuffleNetwork net(cfg);
    // Ports 0 and 1 both send to port 3, on distinct lanes: lanes merge
    // into a single vector at the first stage.
    ASSERT_TRUE(net.tryInject(0, makeVector(0, 1, {{0, 3}, {2, 3}})));
    ASSERT_TRUE(net.tryInject(1, makeVector(1, 2, {{1, 3}, {3, 3}})));
    auto out = drain(net);
    ASSERT_EQ(out[3].size(), 1u) << "fragments should merge";
    EXPECT_EQ(validLanes(out[3][0]), 4);
    EXPECT_NE(out[3][0].id, 1u) << "a merged vector takes a fresh id";
    EXPECT_NE(out[3][0].id, 2u);
}

TEST(Shuffle, Mrg0CannotResolveLaneCollisions)
{
    // Same-lane conflicts need a shift; Mrg-0 must serialize them.
    ShuffleConfig m0;
    m0.ports = 4;
    m0.mode = MergeMode::Mrg0;
    ShuffleNetwork net0(m0);
    ASSERT_TRUE(net0.tryInject(0, makeVector(0, 1, {{5, 3}})));
    ASSERT_TRUE(net0.tryInject(1, makeVector(1, 2, {{5, 3}})));
    auto out0 = drain(net0);
    EXPECT_EQ(out0[3].size(), 2u);

    ShuffleConfig m1 = m0;
    m1.mode = MergeMode::Mrg1;
    ShuffleNetwork net1(m1);
    ASSERT_TRUE(net1.tryInject(0, makeVector(0, 1, {{5, 3}})));
    ASSERT_TRUE(net1.tryInject(1, makeVector(1, 2, {{5, 3}})));
    auto out1 = drain(net1);
    EXPECT_EQ(out1[3].size(), 1u) << "one-lane shift resolves collision";
    EXPECT_EQ(validLanes(out1[3][0]), 2);
}

TEST(Shuffle, Mrg1ShiftRespectsLimit)
{
    // Three-deep pileup on one lane cannot pack into adjacent-only
    // shifts when neighbours are occupied.
    ShuffleConfig cfg;
    cfg.ports = 2;
    cfg.mode = MergeMode::Mrg1;
    ShuffleNetwork net(cfg);
    ASSERT_TRUE(
        net.tryInject(0, makeVector(0, 1, {{4, 1}, {5, 1}, {6, 1}})));
    ASSERT_TRUE(
        net.tryInject(1, makeVector(1, 2, {{4, 0}, {5, 0}, {6, 0}})));
    auto out = drain(net);
    // Port 0's vector heads to 1 and vice versa; no merge partners, so
    // each arrives whole.
    ASSERT_EQ(out[0].size(), 1u);
    ASSERT_EQ(out[1].size(), 1u);
    EXPECT_EQ(validLanes(out[0][0]), 3);
}

TEST(Shuffle, Mrg16PacksAnything)
{
    ShuffleConfig cfg;
    cfg.ports = 4;
    cfg.mode = MergeMode::Mrg16;
    ShuffleNetwork net(cfg);
    // Ports 0 and 1 each send eight entries on lanes 0-7, all heading
    // to port 3; they meet in the stage-1 merge unit, where only a full
    // crossbar can pack all 16 entries into one vector. (Injecting from
    // port 3 itself would take the bypass path and skip the merge.)
    std::vector<std::pair<int, int>> low;
    for (int l = 0; l < 8; ++l)
        low.push_back({l, 3});
    ASSERT_TRUE(net.tryInject(0, makeVector(0, 1, low)));
    ASSERT_TRUE(net.tryInject(1, makeVector(1, 2, low)));
    auto out = drain(net);
    ASSERT_EQ(out[3].size(), 1u);
    EXPECT_EQ(validLanes(out[3][0]), 16);
}

TEST(Shuffle, SplitsVectorsWithMixedDestinations)
{
    ShuffleConfig cfg;
    cfg.ports = 8;
    ShuffleNetwork net(cfg);
    auto v = makeVector(0, 1, {{0, 1}, {1, 6}});
    ASSERT_TRUE(net.tryInject(0, v));
    auto out = drain(net);
    ASSERT_EQ(out[1].size(), 1u);
    ASSERT_EQ(out[6].size(), 1u);
    EXPECT_TRUE(out[1][0].valid[0]);
    EXPECT_TRUE(out[6][0].valid[1]);
}

/** Property: lanes are conserved and delivered to the right ports. */
TEST(ShuffleProperty, ConservationAcrossRandomTraffic)
{
    std::mt19937 rng(1234);
    for (MergeMode mode :
         {MergeMode::Mrg0, MergeMode::Mrg1, MergeMode::Mrg16}) {
        ShuffleConfig cfg;
        cfg.ports = 8;
        cfg.mode = mode;
        ShuffleNetwork net(cfg);
        int lanes_sent = 0;
        std::map<int, int> expect_per_port;
        std::uint64_t id = 0;
        int injected = 0;
        std::map<int, int> got_per_port;
        auto drain_outputs = [&]() {
            for (int p = 0; p < cfg.ports; ++p) {
                while (auto v = net.tryEject(p)) {
                    for (int l = 0; l < kMaxLanes; ++l) {
                        if (v->valid[l]) {
                            EXPECT_EQ(v->dst_port[l], p);
                            ++got_per_port[p];
                        }
                    }
                }
            }
        };
        while (injected < 200) {
            int port = static_cast<int>(rng() % cfg.ports);
            ShuffleVector v;
            v.src_port = port;
            v.id = id;
            int n = 0;
            for (int l = 0; l < kMaxLanes; ++l) {
                if (rng() % 3 == 0) {
                    v.valid[l] = true;
                    v.dst_port[l] = static_cast<int>(rng() % cfg.ports);
                    v.src_lane[l] = l;
                    ++n;
                }
            }
            if (n == 0)
                continue;
            if (net.tryInject(port, v)) {
                ++injected;
                ++id;
                lanes_sent += n;
                for (int l = 0; l < kMaxLanes; ++l) {
                    if (v.valid[l])
                        ++expect_per_port[v.dst_port[l]];
                }
            }
            net.step();
            drain_outputs();
        }
        for (int i = 0; i < 5000 && !net.empty(); ++i) {
            net.step();
            drain_outputs();
        }
        ASSERT_TRUE(net.empty());
        int total_got = 0;
        for (auto &[p, n] : got_per_port) {
            EXPECT_EQ(n, expect_per_port[p]) << "port " << p;
            total_got += n;
        }
        ASSERT_EQ(total_got, lanes_sent);
    }
}

/** Property: Mrg-1 needs no more cycles than Mrg-0 to drain hotspots. */
TEST(ShuffleProperty, ShiftingImprovesThroughput)
{
    auto run = [](MergeMode mode) -> Cycle {
        ShuffleConfig cfg;
        cfg.ports = 8;
        cfg.mode = mode;
        ShuffleNetwork net(cfg);
        std::mt19937 rng(5);
        std::uint64_t id = 0;
        int injected = 0;
        Cycle cycles = 0;
        while (injected < 300 || !net.empty()) {
            if (injected < 300) {
                int port = injected % cfg.ports;
                ShuffleVector v;
                v.src_port = port;
                v.id = id;
                for (int l = 0; l < kMaxLanes; ++l) {
                    v.valid[l] = true;
                    // Hotspot traffic: everything to ports 6 and 7.
                    v.dst_port[l] = 6 + static_cast<int>(rng() % 2);
                    v.src_lane[l] = l;
                }
                if (net.tryInject(port, v)) {
                    ++injected;
                    ++id;
                }
            }
            net.step();
            for (int p = 0; p < cfg.ports; ++p) {
                while (net.tryEject(p)) {
                }
            }
            ++cycles;
            if (cycles >= 100000u) {
                ADD_FAILURE() << "network livelocked";
                break;
            }
        }
        return cycles;
    };
    Cycle c0 = run(MergeMode::Mrg0);
    Cycle c1 = run(MergeMode::Mrg1);
    Cycle c16 = run(MergeMode::Mrg16);
    EXPECT_LE(c1, c0);
    EXPECT_LE(c16, c1 + c1 / 4) << "full crossbar adds little (Table 11)";
}

/**
 * Property: reading delivered vectors in place matches tryEject(). Two
 * networks take the same seeded split- and merge-heavy traffic (lanes
 * to random ports and to a two-port hotspot). One consumer ejects every
 * delivered vector into per-port holds; the other reads its outputs in
 * place with front() and pop(). Each cycle both take the same seeded
 * number of vectors per port, so a busy port leaves vectors waiting
 * across cycles. The injection answers, the vectors taken (lanes, tags
 * and ids) and their order and cycles must match. The
 * inverse-permutation FIFOs are shallow, so the credits gate the merge
 * units.
 */
TEST(ShuffleProperty, InPlaceDeliveryMatchesTryEject)
{
    for (MergeMode mode :
         {MergeMode::Mrg0, MergeMode::Mrg1, MergeMode::Mrg16}) {
        SCOPED_TRACE(::testing::Message() << "mode " << static_cast<int>(mode));
        ShuffleConfig cfg;
        cfg.ports = 16;
        cfg.mode = mode;
        cfg.fifo_depth = 3;
        ShuffleNetwork ejecting(cfg);
        ShuffleNetwork in_place(cfg);
        std::mt19937 rng(2029);
        std::vector<std::deque<ShuffleVector>> hold(cfg.ports);
        std::uint64_t next_id = 1;
        int taken = 0;
        int split = 0;
        int merged = 0;
        auto drained = [&] {
            for (const auto &h : hold) {
                if (!h.empty())
                    return false;
            }
            return ejecting.empty() && in_place.empty();
        };
        for (int cycle = 0; cycle < 50000; ++cycle) {
            if (cycle >= 400 && drained())
                break;
            int offers = cycle < 400 ? static_cast<int>(rng() % 6) : 0;
            for (int k = 0; k < offers; ++k) {
                int port = static_cast<int>(rng() % cfg.ports);
                ShuffleVector v;
                v.src_port = port;
                v.id = next_id;
                for (int l = 0; l < kMaxLanes; ++l) {
                    if (rng() % 4 == 0)
                        continue;
                    v.valid[l] = true;
                    v.addr[l] = rng();
                    v.dst_port[l] =
                        rng() % 2 == 0
                            ? static_cast<int>(14 + rng() % 2)
                            : static_cast<int>(rng() % cfg.ports);
                    v.src_lane[l] = l;
                    v.tag[l] = next_id * kMaxLanes + l;
                }
                bool ok = ejecting.tryInject(port, v);
                ASSERT_EQ(in_place.tryInject(port, v), ok);
                if (ok)
                    ++next_id;
            }
            ejecting.step();
            in_place.step();
            for (int p = 0; p < cfg.ports; ++p) {
                while (auto v = ejecting.tryEject(p))
                    hold[p].push_back(*v);
            }
            for (int p = 0; p < cfg.ports; ++p) {
                int take = static_cast<int>(rng() % 3);
                for (; take > 0 && !hold[p].empty(); --take) {
                    ASSERT_TRUE(in_place.deliveredPorts().test(p));
                    const ShuffleVector &want = hold[p].front();
                    const ShuffleVector &got = in_place.front(p);
                    ASSERT_EQ(got.id, want.id) << "cycle " << cycle;
                    ASSERT_EQ(got.valid, want.valid);
                    std::set<std::uint64_t> sources;
                    for (int l = 0; l < kMaxLanes; ++l) {
                        if (!want.valid[l])
                            continue;
                        ASSERT_EQ(got.addr[l], want.addr[l]);
                        ASSERT_EQ(got.dst_port[l], want.dst_port[l]);
                        ASSERT_EQ(got.dst_port[l], p);
                        ASSERT_EQ(got.src_lane[l], want.src_lane[l]);
                        ASSERT_EQ(got.tag[l], want.tag[l]);
                        sources.insert(want.tag[l] / kMaxLanes);
                    }
                    if (sources.size() > 1)
                        ++merged;
                    else if (want.id >= (1ull << 48))
                        ++split;
                    hold[p].pop_front();
                    in_place.pop(p);
                    ++taken;
                }
                ASSERT_EQ(in_place.deliveredPorts().test(p),
                          !hold[p].empty());
            }
        }
        EXPECT_TRUE(drained()) << "the networks failed to drain";
        EXPECT_GT(taken, 1000);
        EXPECT_GT(split, 100) << "the traffic should split vectors";
        if (mode != MergeMode::Mrg0) {
            EXPECT_GT(merged, 100) << "the traffic should merge vectors";
        }
    }
}
