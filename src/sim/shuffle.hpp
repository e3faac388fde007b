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
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/ring.hpp"
#include "sim/config.hpp"

namespace capstan::sim {

/** A vector of requests travelling through the shuffle network. */
struct ShuffleVector
{
    std::array<bool, kMaxLanes> valid{};
    std::array<std::uint32_t, kMaxLanes> addr{};
    std::array<int, kMaxLanes> dst_port{};
    std::array<int, kMaxLanes> src_lane{}; //!< For inverse permutation.
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
 * Ports must be a power of two. Usage per cycle: tryInject() work at the
 * input ports, step(), then tryEject() delivered vectors at the output
 * ports. retire() returns inverse-permutation FIFO credits once the
 * memory reply has been consumed.
 */
class ShuffleNetwork
{
  public:
    explicit ShuffleNetwork(const ShuffleConfig &cfg);

    int ports() const { return cfg_.ports; }
    int stages() const { return stages_; }

    /** Inject a request vector at input @p port. */
    bool tryInject(int port, const ShuffleVector &v);

    /** Advance one cycle: each stage moves/merges/splits vectors. */
    void step();

    /**
     * Event horizon for the fast-forward engine: a busy network must be
     * stepped every cycle (vectors move, merge, or serialize each step),
     * so this returns @p now while anything is buffered and
     * kNoEventCycle once the network has drained.
     */
    Cycle nextEventCycle(Cycle now) const
    {
        return empty() ? kNoEventCycle : now;
    }

    /** Pop a delivered vector at output @p port, if any. */
    std::optional<ShuffleVector> tryEject(int port);

    /**
     * Return one in-flight credit to every merge unit a delivered vector
     * traversed (identified by its id). Call when the reply completes.
     */
    void retire(std::uint64_t id);

    /**
     * Automatically retire vectors as they are ejected. Convenient for
     * callers that model reply latency externally; on by default.
     */
    void setAutoRetire(bool on) { auto_retire_ = on; }

    /** True when nothing is buffered anywhere in the network. */
    bool empty() const { return live_ == 0 && delivered_ == 0; }

    /** True when some output port holds a vector for tryEject(). */
    bool hasDelivered() const { return delivered_ > 0; }

  private:
    using Fifo = common::RingQueue<ShuffleVector>;

    /**
     * Move, split and merge the heads of one merge unit's two inputs
     * (ports @p p0 and @p p1 of stage @p s, splitting on destination
     * bit @p bit). The unit is planned on lane masks; vectors are only
     * touched once the downstream buffers have room for the outputs.
     */
    void stepUnit(int s, int unit, int p0, int p1, int bit);

    /** Vectors in stage @p s's channels, counted (Debug cross-check). */
    int bufferedScan(int s) const;

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
    /** channels_[stage][port]: buffering entering each stage. */
    std::vector<std::vector<Fifo>> channels_;
    /** Delivered vectors per output port. */
    std::vector<Fifo> outputs_;
    /** In-flight counts per (stage, merge unit) for FIFO credits. */
    std::vector<std::vector<int>> in_flight_;
    /** id -> traversed (stage, unit) pairs, for retire(). */
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int8_t, std::int8_t>>>
        paths_;
    /** Vectors buffered between stages; 0 makes step() an O(1) no-op. */
    int live_ = 0;
    /** Vectors in each stage's channels; step() skips stages at 0. */
    std::vector<int> stage_live_;
    /** Vectors waiting in outputs_ for tryEject(). */
    int delivered_ = 0;
    bool auto_retire_ = true;
    std::uint64_t next_merged_id_ = 1ull << 48;
};

} // namespace capstan::sim

