/**
 * @file
 * Golden digests for the SpMU and shuffle-network unit models.
 *
 * The machine goldens (test_machine_golden.cpp) pin whole runs; these
 * pin each unit model on its own, under seeded random traffic that
 * reaches the corners whole runs visit rarely: same-address splits and
 * elided reads, RMW second passes, full queues, refused enqueues,
 * back-pressured butterfly stages, failed merges and FIFO credits.
 * Every observable output is folded into one 64-bit FNV-1a digest per
 * mode:
 *
 *  - SpMU: tryEnqueue answers, the occupancy before every step, the
 *    grant trace (cycle, lane, bank, vector id), the dequeue order with
 *    each vector's completion cycle, and SpmuStats. The model is
 *    timing-only, so that is all it exposes.
 *  - Shuffle: tryInject answers and the ejection sequence (cycle,
 *    port, id, source port, and per valid lane its index, address,
 *    destination, src_lane and tag). That is all the network exposes.
 *
 * The shuffle table was recorded with these definitions on the last
 * build whose SpmuConfig still carried the lane, bank,
 * allocator-iteration, Bloom and latency fields (set to Table 7's
 * values, now the constants in sim/config.hpp) and whose shuffle still
 * kept statistics; its two 6-entry FIFO rows on the last build whose
 * shuffle could also hold credits until a caller retired an id. The
 * SpMU table was recorded on the last build whose SpMU still published
 * an event horizon for a fast-forwarding machine, with that horizon
 * left out of the digest; its six input-speedup-2 queue-depth rows on
 * the last build whose SpMU walked its slots to find a grant's oldest
 * requester; four of those, the depth-63 and depth-64 rows, were
 * re-recorded under traffic that fills the ring (Traffic::FillRing) on
 * the first build whose SpMU finds a grant's slot with ring-position
 * masks. A mismatch means a simulated bit moved. The
 * failure message prints the new digest, so an intended behaviour
 * change re-records by pasting it into the table.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <random>
#include <string>

#include "sim/config.hpp"
#include "sim/shuffle.hpp"
#include "sim/spmu.hpp"

using namespace capstan::sim;

namespace {

/** FNV-1a over the little-endian bytes of each folded word. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xFF;
            h_ *= 0x100000001b3ull;
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::string
hex(std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// ---------------------------------------------------------------------------
// SpMU
// ---------------------------------------------------------------------------

/**
 * Every lane op the bank FPU names. The timing model tells reads from
 * modifications (elision, splits, the Plasticine second pass).
 */
constexpr AccessOp kOps[] = {
    AccessOp::Read,   AccessOp::Write,  AccessOp::AddF32,
    AccessOp::AddI32, AccessOp::Min,    AccessOp::MinReportChanged,
    AccessOp::Max,    AccessOp::TestAndSet, AccessOp::WriteIfZero,
    AccessOp::Swap,   AccessOp::BitAnd, AccessOp::BitOr,
    AccessOp::BitXor,
};

/**
 * The seeded traffic a digest row offers.
 */
enum class Traffic {
    Mixed,    //!< spmuDigest's mix of densities and bank spreads.
    FillRing, //!< A dense two-word vector offered every cycle.
};

/**
 * Drive one SpMU with seeded random traffic and digest everything it
 * exposes. Addresses mix a 24-word hot set (duplicates inside a vector:
 * elision, same-address splits, bank conflicts) with a wide range, and
 * a quarter of the vectors aim every lane at one bank; half the
 * vectors are read-only, so most repeated reads are elided.
 * Offered load exceeds the bank throughput, so the queue fills and
 * enqueues are refused. Dequeues are sometimes skipped so completed
 * vectors pile up. Traffic::FillRing offers a vector every cycle with
 * all sixteen lanes on two words of one bank, the first two lanes'
 * (an address-ordered vector splits into many parts behind two Bloom
 * entries), so the queue holds every slot it has; the digest fails
 * unless it did.
 */
std::uint64_t
spmuDigest(const SpmuConfig &cfg, std::uint32_t seed,
           Traffic traffic = Traffic::Mixed)
{
    const bool fill = traffic == Traffic::FillRing;
    constexpr int kVectors = 700;
    constexpr std::uint32_t kWords = 4096;
    SparseMemoryUnit spmu(cfg);
    spmu.enableGrantTrace(true);
    std::mt19937 rng(seed);
    Digest d;
    std::uint64_t next_id = 1;
    int sent = 0;
    int most_held = 0;
    for (int cycle = 0; cycle < 400000; ++cycle) {
        if (sent >= kVectors && spmu.empty())
            break;
        if (sent < kVectors && (fill || rng() % 8 != 0)) {
            AccessVector av;
            av.id = next_id;
            bool read_only = rng() % 2 == 0;
            bool one_bank = fill || rng() % 4 == 0;
            int bank = static_cast<int>(rng() % kSpmuBanks);
            int density = fill ? 8 : 2 + static_cast<int>(rng() % 7);
            for (int l = 0; l < kMaxLanes; ++l) {
                if (static_cast<int>(rng() % 8) >= density)
                    continue;
                LaneRequest &lr = av.lane[l];
                lr.valid = true;
                if (fill && l >= 2) {
                    lr.addr = av.lane[rng() % 2].addr;
                } else {
                    lr.addr = rng() % 3 == 0 ? rng() % 24 : rng() % kWords;
                    while (one_bank && spmu.bankOf(lr.addr) != bank)
                        lr.addr = rng() % kWords;
                }
                lr.op = read_only ? AccessOp::Read
                                  : kOps[rng() % std::size(kOps)];
            }
            bool ok = spmu.tryEnqueue(av);
            d.add(ok);
            if (ok) {
                ++next_id;
                ++sent;
            }
        }
        d.add(static_cast<std::uint64_t>(spmu.occupancy()));
        most_held = std::max(most_held, spmu.occupancy());
        spmu.step();
        if (rng() % 3 == 0)
            continue; // Leave completed vectors waiting this cycle.
        while (auto cv = spmu.tryDequeue()) {
            d.add(static_cast<std::uint64_t>(cycle));
            d.add(cv->id);
            d.add(cv->completed_at);
        }
    }
    EXPECT_TRUE(spmu.empty()) << "SpMU failed to drain";
    if (fill) {
        EXPECT_EQ(most_held, cfg.queue_depth) << "the ring never filled";
    }
    for (const auto &g : spmu.grantTrace()) {
        d.add(g.cycle);
        d.add(static_cast<std::uint64_t>(g.lane));
        d.add(static_cast<std::uint64_t>(g.bank));
        d.add(g.vector_id);
    }
    const SpmuStats &s = spmu.stats();
    for (std::uint64_t v : {std::uint64_t{s.cycles}, s.grants, s.vectors_in,
                            s.vectors_out, s.enqueue_stalls, s.elided_reads,
                            s.splits}) {
        d.add(v);
    }
    return d.value();
}

struct SpmuGolden
{
    const char *name;
    SpmuConfig cfg;
    std::uint64_t digest;
    Traffic traffic = Traffic::Mixed;
};

SpmuConfig
spmuWith(void (*edit)(SpmuConfig &))
{
    SpmuConfig cfg;
    edit(cfg);
    return cfg;
}

TEST(UnitGolden, SpmuTrafficDigestsPerMode)
{
    const SpmuGolden goldens[] = {
        {"unordered", SpmuConfig{}, 0xfc5f1a0a098d0cfa},
        {"address-ordered",
         spmuWith([](SpmuConfig &c) {
             c.ordering = Ordering::AddressOrdered;
         }),
         0xf3a3b1c9c1afa9ae},
        {"fully-ordered",
         spmuWith([](SpmuConfig &c) { c.ordering = Ordering::FullyOrdered; }),
         0xd30f9bda2dbe26e9},
        {"arbitrated",
         spmuWith([](SpmuConfig &c) { c.ordering = Ordering::Arbitrated; }),
         0x2fd3a32297010468},
        {"ideal", spmuWith([](SpmuConfig &c) { c.ideal = true; }),
         0xaa4d4226244a6e6e},
        {"plasticine", CapstanConfig::plasticine().spmu, 0xfb771bc6193bc032},
        {"weak-allocator",
         spmuWith([](SpmuConfig &c) { c.allocator = AllocatorKind::Weak; }),
         0xc2b31d9760fcc399},
        {"input-speedup-2",
         spmuWith([](SpmuConfig &c) { c.input_speedup = 2; }),
         0x107363e983fb34b2},
        {"linear-hash",
         spmuWith([](SpmuConfig &c) { c.hash = BankHash::Linear; }),
         0xb7b03fd02f91c3b8},
        // Three priority windows of 16 slots over a 48-deep queue (at
        // most kAllocIterations windows, so the last reaches every slot).
        {"deep-queue",
         spmuWith([](SpmuConfig &c) {
             c.queue_depth = 48;
             c.ordering = Ordering::AddressOrdered;
         }),
         0x80eb8e2803eee99d},
        // A priority-window boundary inside a short queue.
        {"short-queue-two-windows",
         spmuWith([](SpmuConfig &c) {
             c.queue_depth = 5;
             c.priorities = 2;
         }),
         0x4c2a58a141abcca9},
        // The issue queue's extremes under input speedup 2, where queue
        // position parity picks each slot's lane group: a single slot,
        // and 63 and 64 slots that 700 vectors fill and wrap many
        // times.
        {"speedup-2-depth-1",
         spmuWith([](SpmuConfig &c) {
             c.input_speedup = 2;
             c.queue_depth = 1;
         }),
         0xe95eed09266329a8},
        {"speedup-2-depth-1-address-ordered",
         spmuWith([](SpmuConfig &c) {
             c.input_speedup = 2;
             c.queue_depth = 1;
             c.ordering = Ordering::AddressOrdered;
         }),
         0x9b8cdfb67b8b5ef8},
        {"speedup-2-depth-63",
         spmuWith([](SpmuConfig &c) {
             c.input_speedup = 2;
             c.queue_depth = 63;
         }),
         0xd44083d2712af163,
         Traffic::FillRing},
        {"speedup-2-depth-63-address-ordered",
         spmuWith([](SpmuConfig &c) {
             c.input_speedup = 2;
             c.queue_depth = 63;
             c.ordering = Ordering::AddressOrdered;
         }),
         0x8f28c65030d0a9e0,
         Traffic::FillRing},
        {"speedup-2-depth-64",
         spmuWith([](SpmuConfig &c) {
             c.input_speedup = 2;
             c.queue_depth = 64;
         }),
         0x6a846ba92d77c230,
         Traffic::FillRing},
        {"speedup-2-depth-64-address-ordered",
         spmuWith([](SpmuConfig &c) {
             c.input_speedup = 2;
             c.queue_depth = 64;
             c.ordering = Ordering::AddressOrdered;
         }),
         0xa7898f66ddad480f,
         Traffic::FillRing},
    };
    for (const SpmuGolden &g : goldens) {
        std::uint64_t got = spmuDigest(g.cfg, 2024, g.traffic);
        EXPECT_EQ(got, g.digest) << g.name << ": digest " << hex(got);
    }
}

// ---------------------------------------------------------------------------
// Shuffle network
// ---------------------------------------------------------------------------

/**
 * Drive one butterfly with seeded random traffic and digest every
 * ejection. Several vectors are offered per cycle and many lanes head
 * for a two-port hotspot, so stages back up (refused injections,
 * abandoned commits) and merges fail as well as succeed. With a
 * shallow inverse-permutation FIFO (@p fifo_depth well below the
 * default 64), credits gate the merge units.
 */
std::uint64_t
shuffleDigest(MergeMode mode, int ports, int fifo_depth, std::uint32_t seed)
{
    constexpr int kInjectCycles = 300;
    ShuffleConfig cfg;
    cfg.mode = mode;
    cfg.ports = ports;
    cfg.fifo_depth = fifo_depth;
    ShuffleNetwork net(cfg);
    std::mt19937 rng(seed);
    Digest d;
    std::uint64_t next_id = 1;
    for (int cycle = 0; cycle < 100000; ++cycle) {
        if (cycle >= kInjectCycles && net.empty())
            break;
        int offers = cycle < kInjectCycles
                         ? static_cast<int>(rng() % (ports / 2 + 2))
                         : 0;
        for (int k = 0; k < offers; ++k) {
            int port = static_cast<int>(rng() % ports);
            ShuffleVector v;
            v.src_port = port;
            v.id = next_id;
            // A quarter of the vectors send every lane to one port, so
            // some bypass the butterfly and some cross it unsplit.
            int density = 1 + static_cast<int>(rng() % 8);
            bool one_dst = rng() % 4 == 0;
            int dst = static_cast<int>(rng() % ports);
            for (int l = 0; l < kMaxLanes; ++l) {
                if (static_cast<int>(rng() % 8) >= density)
                    continue;
                v.valid[l] = true;
                v.addr[l] = rng();
                if (one_dst)
                    v.dst_port[l] = dst;
                else if (rng() % 3 == 0)
                    v.dst_port[l] = static_cast<int>(rng() % 2);
                else
                    v.dst_port[l] = static_cast<int>(rng() % ports);
                v.src_lane[l] = l;
                v.tag[l] = next_id * kMaxLanes + l;
            }
            bool ok = net.tryInject(port, v);
            d.add(ok);
            if (ok)
                ++next_id;
        }
        net.step();
        for (int p = 0; p < ports; ++p) {
            while (auto v = net.tryEject(p)) {
                d.add(static_cast<std::uint64_t>(cycle));
                d.add(static_cast<std::uint64_t>(p));
                d.add(v->id);
                d.add(static_cast<std::uint64_t>(v->src_port));
                for (int l = 0; l < kMaxLanes; ++l) {
                    if (!v->valid[l])
                        continue;
                    d.add(static_cast<std::uint64_t>(l));
                    d.add(v->addr[l]);
                    d.add(static_cast<std::uint64_t>(v->dst_port[l]));
                    d.add(static_cast<std::uint64_t>(v->src_lane[l]));
                    d.add(v->tag[l]);
                }
            }
        }
    }
    EXPECT_TRUE(net.empty()) << "network failed to drain";
    return d.value();
}

struct ShuffleGolden
{
    const char *name;
    MergeMode mode;
    int ports;
    int fifo_depth;
    std::uint64_t digest;
};

TEST(UnitGolden, ShuffleTrafficDigestsPerMode)
{
    const int fifo = ShuffleConfig{}.fifo_depth;
    const ShuffleGolden goldens[] = {
        {"mrg0/4", MergeMode::Mrg0, 4, fifo, 0xcf888f2e3afc1546},
        {"mrg0/16", MergeMode::Mrg0, 16, fifo, 0x6004c0698f6645ab},
        {"mrg0/64", MergeMode::Mrg0, 64, fifo, 0x457c8d896beb1d2d},
        {"mrg1/4", MergeMode::Mrg1, 4, fifo, 0xfb0701e1ac2442b6},
        {"mrg1/16", MergeMode::Mrg1, 16, fifo, 0x6058ad6122e1753e},
        {"mrg1/64", MergeMode::Mrg1, 64, fifo, 0x86f632832057ac97},
        {"mrg16/4", MergeMode::Mrg16, 4, fifo, 0xc65d7de003c73d43},
        {"mrg16/16", MergeMode::Mrg16, 16, fifo, 0xf7e70beaa49d9a81},
        {"mrg16/64", MergeMode::Mrg16, 64, fifo, 0xfb3c157d72350761},
        {"mrg1/16 fifo6", MergeMode::Mrg1, 16, 6, 0x8e866f6b8f0d14af},
        {"mrg16/64 fifo6", MergeMode::Mrg16, 64, 6, 0x18df1b4d37471e9f},
    };
    for (const ShuffleGolden &g : goldens) {
        std::uint64_t got = shuffleDigest(g.mode, g.ports, g.fifo_depth, 7);
        EXPECT_EQ(got, g.digest) << g.name << ": digest " << hex(got);
    }
}

} // namespace
