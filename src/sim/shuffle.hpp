/**
 * @file
 * Shuffle network: butterfly of merge units (Section 3.2, Fig. 3d/3e).
 *
 * The shuffle network carries vectorized memory requests from outer-
 * parallel compute units to the memory partition owning each address.
 * Each stage of the butterfly partitions request vectors on one address
 * bit and merges the two fragments heading the same way. Merge units may
 * shift valid entries by at most +/- `shift` lanes (Mrg-0 / Mrg-1 /
 * Mrg-16); when packing fails, the fragments serialize over two cycles.
 * Every merge unit records its decisions in an inverse-permutation FIFO
 * so replies can be un-shuffled; the FIFO depth bounds in-flight vectors
 * and is what lets the network tolerate long memory latencies.
 */

#pragma once

#include <array>
#include <bitset>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "common/ring.hpp"
#include "sim/config.hpp"
#include "sim/tile_mask.hpp"

namespace capstan::sim {

/**
 * A vector of requests travelling through the shuffle network. Lanes
 * are stored compactly (272 bytes): ports and lanes fit an int8_t,
 * since a network has at most kMaxTiles ports. src_lane and src_port
 * are carried along but read by no model; lang::Machine leaves them 0.
 */
struct ShuffleVector
{
    std::bitset<kMaxLanes> valid;
    std::array<std::uint32_t, kMaxLanes> addr{};
    std::array<std::int8_t, kMaxLanes> dst_port{};
    std::array<std::int8_t, kMaxLanes> src_lane{};
    /** Opaque per-lane tag (e.g. originating token id) carried along. */
    std::array<std::uint64_t, kMaxLanes> tag{};
    int src_port = 0;
    std::uint64_t id = 0;
    /** Merge units traversed, for inverse-permutation FIFO credits. */
    std::vector<std::pair<std::int8_t, std::int8_t>> path;
};

/**
 * Cycle-stepped butterfly shuffle network.
 *
 * Ports must be a power of two, at most kMaxTiles. Usage per cycle:
 * tryInject() work at the input ports, step(), then take delivered
 * vectors at the output ports: either tryEject() a copy, or read each
 * port's vectors in place with front() and pop(). The vectors a step()
 * delivers return their inverse-permutation FIFO credits at the end of
 * that step(), once every merge unit has stepped. lang::Machine models
 * a reply as a fixed latency outside the network, so delivery is the
 * last event the network sees of a vector.
 *
 * Each vector lives in one slot of a network-owned pool from
 * tryInject() until it is consumed; stage channels and output queues
 * carry 4-byte slot handles. A merge unit moves its heads' handles
 * on, and only a split's low fragment is copied, into a fresh slot.
 * Each stage keeps an occupancy mask of its merge units (bit u set
 * while one of unit u's two input channels holds a vector), so step()
 * visits only occupied units, in ascending unit order.
 */
class ShuffleNetwork
{
  public:
    explicit ShuffleNetwork(const ShuffleConfig &cfg);

    /**
     * Inject a request vector at input @p port. A vector whose every
     * valid lane is bound for @p port bypasses the butterfly and is
     * delivered at once; any other one is refused while inputFull().
     */
    bool tryInject(int port, const ShuffleVector &v);

    /** True while input @p port's first-stage channel has no room. */
    bool inputFull(int port) const;

    /**
     * Advance one cycle: each stage moves/merges/splits vectors, then
     * the vectors delivered return their FIFO credits.
     */
    void step();

    /** Pop a copy of the oldest delivered vector at @p port, if any. */
    std::optional<ShuffleVector> tryEject(int port);

    /** Output ports holding delivered vectors. */
    const TileMask &deliveredPorts() const { return delivered_ports_; }

    /** The oldest vector delivered at @p port, which must hold one. */
    const ShuffleVector &front(int port) const
    {
        return pool_[outputs_[static_cast<std::size_t>(port)].front()];
    }

    /** Consume front(@p port). */
    void pop(int port);

    /** True when nothing is buffered anywhere in the network. */
    bool empty() const { return live_ == 0 && delivered_ == 0; }

  private:
    /** Index of a vector's pool slot. */
    using Slot = std::uint32_t;
    using Fifo = common::RingQueue<Slot>;

    /**
     * Move, split and merge the heads of one merge unit's two inputs
     * (ports @p p0 and @p p1 of stage @p s, splitting on destination
     * bit @p bit). The unit is planned on lane masks; vectors are only
     * touched once the downstream buffers have room for the outputs.
     */
    void stepUnit(int s, int unit, int p0, int p1, int bit);

    /** Stage @p s's merge unit fed by input @p port. */
    int unitOf(int s, int port) const;

    /** Queue slot @p v in stage @p s's channel @p port. */
    void pushChannel(int s, int port, Slot v);

    /** Queue slot @p v at output @p port. */
    void deliver(int port, Slot v);

    /** A free pool slot (its buffers kept from earlier occupants). */
    Slot acquire();

    /** Return slot @p v's FIFO credits to the merge units on its path. */
    void retireSlot(Slot v);

    /**
     * Whether every count and mask equals the channel, output and pool
     * scan it summarizes (Debug cross-check).
     */
    bool bookkeepingMatchesScan() const;

    /**
     * Pack fragment @p b into fragment @p a (lane masks) with the
     * configured lane shift: each lane of b, in ascending order, takes
     * its own lane or the nearest free one within +/- shift, the lower
     * one on a tie. @return false if some lane finds no room;
     * otherwise place[l] is lane l's position in the merged vector.
     */
    bool planMerge(std::uint32_t a, std::uint32_t b,
                   std::array<std::int8_t, kMaxLanes> &place) const;

    int shiftLimit() const;

    ShuffleConfig cfg_;
    int stages_;
    /** Every vector in the network, by slot; free_ lists the unused. */
    std::vector<ShuffleVector> pool_;
    std::vector<Slot> free_;
    /** channels_[stage][port]: buffering entering each stage. */
    std::vector<std::vector<Fifo>> channels_;
    /** occupied_[stage]: bit u set while merge unit u has input. */
    std::vector<std::uint64_t> occupied_;
    /** Delivered vectors per output port, oldest first. */
    std::vector<Fifo> outputs_;
    /** Ports whose outputs_ are non-empty. */
    TileMask delivered_ports_;
    /** Slots the running step() delivered, retired as it ends. */
    std::vector<Slot> arrived_;
    /** In-flight counts per (stage, merge unit) for FIFO credits. */
    std::vector<std::vector<int>> in_flight_;
    /** Vectors buffered between stages; 0 makes step() an O(1) no-op. */
    int live_ = 0;
    /** Vectors waiting in outputs_. */
    int delivered_ = 0;
    std::uint64_t next_merged_id_ = 1ull << 48;
};

} // namespace capstan::sim
