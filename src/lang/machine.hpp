/**
 * @file
 * The Capstan machine: a cycle-stepped executor for tile pipelines.
 *
 * Applications lower each phase's outer-parallel loop body to one
 * *linear chain* of pipeline stages (scan headers, vectorized
 * map/reduce bodies, SpMU accesses, DRAM streams), which every tile
 * runs over its own token stream. The Machine owns one SpMU and one
 * DRAM address generator per tile, a shared DRAM model, and a shared
 * shuffle network. runPhase() steps every cycle, one at a time, until
 * all chains drain; a cycle visits only the components that have work (a
 * tile with a queued token or a burning scanner, a SpMU holding
 * vectors, a merge unit with input). Busy tiles and SpMUs are
 * bitmasks kept as their counts leave and reach zero, visited in
 * ascending order; vectors the shuffle delivers are read in place from
 * its output queues and wait there while their SpMU is full. The
 * address generators carry remote updates when there is no shuffle
 * network (`--merge none`). Iterative applications run a *sequence of
 * phases* (one per loop level or kernel); the machine accumulates
 * cycles and the stall statistics behind Fig. 7.
 *
 * This mirrors the paper's methodology: a custom cycle-level simulator at
 * vector granularity with a loosely-timed network (Section 4).
 */

#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/ring.hpp"
#include "lang/token.hpp"
#include "lang/token_stream.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"
#include "sim/shuffle.hpp"
#include "sim/spmu.hpp"
#include "sim/tile_mask.hpp"

namespace capstan::lang {

using sim::CapstanConfig;
using sim::Cycle;

/** Inter-stage buffering (tokens); deep enough to hide DRAM latency. */
constexpr std::size_t kQueueCap = 128;

/** Pipeline-stage kinds a tile chain can contain. */
enum class StageKind {
    Map,        //!< Vectorized compute; fixed latency, II = 1.
    Scan,       //!< Bit-vector scan header; consumes window tokens.
    DataScan,   //!< Data scanner; consumes element-window tokens.
    Spmu,       //!< Access this tile's sparse memory.
    SpmuCross,  //!< Access other tiles' memories via the shuffle net.
    DramStream, //!< Sequential DRAM transfer (bytes on each token).
    Reduce,     //!< Tree reduction; emits one output per group.
    Sink,       //!< Terminal stage; counts completed work.
};

/** Static description of one stage in a chain. */
struct StageSpec
{
    StageKind kind = StageKind::Map;
    Cycle latency = 1;                        //!< Pipeline depth.
    sim::AccessOp op = sim::AccessOp::Read;   //!< For memory stages.
    /**
     * Added to every lane address at this stage; lets several memory
     * stages in one chain touch different arrays (e.g. BFS's reached
     * bitset, back pointers, and next frontier) from one token stream.
     */
    std::uint32_t addr_offset = 0;
};

/** Makes tile @p tile's source stream for one phase. */
using PhaseSource = std::function<TokenStream(int tile)>;

/** Accumulated statistics across phases (inputs to Fig. 7). */
struct RunTotals
{
    Cycle cycles = 0;                  //!< Sum of phase makespans.
    double active_lane_cycles = 0;     //!< Useful lanes at sinks.
    double vector_idle_lane_cycles = 0;//!< Dead lanes at sinks.
    double scan_empty_cycles = 0;      //!< All-zero scanner windows.
    double imbalance_lane_cycles = 0;  //!< Tiles idle at phase tails.
    std::uint64_t tokens = 0;          //!< Tokens retired at sinks.
};

/**
 * Cycle-stepped executor over a set of tile chains.
 *
 * Usage: construct, call runPhase() once per phase, then read
 * totals(). Components, totals and the stage rings' buffers persist
 * across phases. A source stage holds one token at a time and pulls
 * the next from its tile's stream as it consumes one.
 */
class Machine
{
  public:
    Machine(const CapstanConfig &cfg, int tiles);

    int tiles() const { return static_cast<int>(tiles_.size()); }

    /**
     * Run one phase: every tile runs @p chain (which must not be
     * empty), fed by the stream @p source makes for it. The streams
     * are made, and each one's first token pulled, in tile order; the
     * phase runs until every chain drains and every stream has run
     * dry, and returns its makespan. A producer's exception
     * propagates out of runPhase(); the next phase clears what the
     * aborted one left (tokens, burns, groups, unfinished streams),
     * which must not include an access in flight.
     * @param max_cycles Watchdog: a phase still holding work after
     *        this many cycles aborts, in every build.
     */
    Cycle runPhase(const std::vector<StageSpec> &chain,
                   const PhaseSource &source,
                   Cycle max_cycles = 1ull << 34);

    /**
     * Effective read-compression ratio applied to DramStream bytes
     * (Section 3.4's base/offset pointer compression). The caller
     * computes the ratio from the actual pointer streams; 1.0 (default)
     * means uncompressed. Only active when the DRAM config enables
     * compression.
     */
    void setStreamCompression(double ratio);

    const RunTotals &totals() const { return totals_; }

    /**
     * stepTile() calls runPhase() made: a cycle visits only the tiles
     * with a queued token or a burning scanner. A host-side counter,
     * never part of the stats.
     */
    std::uint64_t steppedTiles() const { return stepped_tiles_; }

    sim::DramModel &dram() { return dram_; }

    /** Aggregate SpMU statistics over all tiles. */
    sim::SpmuStats spmuTotals() const;

  private:
    /** A tile's state for one position of the chain. */
    struct Stage
    {
        common::RingQueue<Token> in;
        // Scan state: zero windows left to traverse, busy cycles left.
        std::int64_t scan_skip_remaining = 0;
        std::int64_t scan_occupied = 0;
        // Reduce packing state.
        int reduce_groups = 0;
        /** Memory accesses issued here and not yet delivered. */
        int in_flight = 0;
        // Stats.
        std::uint64_t tokens_out = 0;

        bool burning() const
        {
            return scan_skip_remaining > 0 || scan_occupied > 0;
        }
    };

    /** In-flight memory access awaiting completion (one table slot). */
    struct Pending
    {
        int stage = 0;
        /** Deliveries still owed; 0 marks a free slot. */
        int remaining = 0;
        /**
         * Earliest delivery cycle: the AG round trip of a SpmuCross
         * access whose remote lanes go through DRAM (no shuffle).
         */
        Cycle ready_floor = 0;
        Token token;
    };

    struct Tile
    {
        /**
         * One per chain position, grown to the longest chain run so far
         * and never shrunk, so a ring's buffer survives the phases.
         * Without that, many-phase runs (sssp at scale 4 on 64 tiles
         * runs 413 phases) regrow every downstream ring each phase and
         * take about a quarter longer.
         */
        std::vector<Stage> stages;
        /**
         * Producer of stage 0's tokens: stage 0's ring holds the one
         * token it last yielded while the stream is live, and is empty
         * once it has run dry.
         */
        TokenStream source;
        /**
         * Tokens queued in the stage rings plus burning Scan stages. Every
         * stepTile() case needs one or the other, so at zero the tile is
         * skipped.
         */
        std::int64_t work = 0;
        /** Reduce stages holding a partial group. */
        int reducing = 0;
        /**
         * In-flight accesses, indexed by the slot bits of their uid
         * (grown by doubling), and the free slots, reused last-freed
         * first.
         */
        std::vector<Pending> pending;
        std::vector<std::uint32_t> free_slots;
        Cycle last_active = 0;
    };

    /**
     * One vector a SpMU accepted: the uids of the pending accesses its
     * completion credits, one per valid lane for a vector ejected from
     * the shuffle network. A SpMU dequeues in enqueue order, so each
     * SpMU's records form a FIFO whose head is the dequeued vector's.
     */
    struct Completion
    {
        std::uint64_t vec_id = 0; //!< AccessVector id, checked on dequeue.
        int count = 0;
        std::array<std::uint64_t, sim::kMaxLanes> uid{};
    };

    void stepTile(int t);
    bool stageHasRoom(int t, int s) const;
    void advance(int t, int s, Token token, Cycle extra_latency);

    /** Queue @p token at stage @p s of tile @p t. */
    void pushInput(int t, int s, const Token &token);
    /**
     * Drop the head token of @p st, a stage of @p tile; a pop from the
     * source stage pulls the next token.
     */
    void popInput(Tile &tile, Stage &st);
    /** Queue @p tile's next source token, if its stream has one. */
    void pull(Tile &tile);
    /**
     * Add @p delta to @p tile's work (tokens queued, or a burn starting
     * at +1 or ending at -1), keeping busy_tiles_ in step.
     */
    void addWork(Tile &tile, std::int64_t delta);
    /** Set a Reduce stage's partial group count. */
    void setReduceGroups(Tile &tile, Stage &st, int groups);

    /**
     * The uid the next access issued by tile @p t takes: the tile tag
     * (t + 1) << 40 (disjoint from next_vec_id_'s ids) OR'd with the
     * pending slot it will occupy.
     */
    std::uint64_t nextUid(int t) const;

    /**
     * Issue the head token of stage @p s as access @p uid (which must be
     * nextUid(t)), owed @p parts deliveries no earlier than
     * @p ready_floor: take the slot, pop the token.
     */
    void issue(int t, int s, std::uint64_t uid, int parts,
               Cycle ready_floor = 0);

    /** Credit one delivery to access @p uid; the last one advances it. */
    void deliverPending(std::uint64_t uid);

    /**
     * tryEnqueue() @p av at SpMU @p t; when it is accepted, record the
     * accesses @p uids to credit when the vector dequeues.
     */
    bool enqueue(int t, const sim::AccessVector &av,
                 std::span<const std::uint64_t> uids);

    /** True while a token, burn, group, access or vector is in flight. */
    bool workRemains() const;

    /**
     * The full scans the counters replace, for the Debug cross-checks:
     * workRemains() recomputed from the rings, stages and units, and
     * whether every counter equals its scan and every source ring holds
     * exactly the token of a live stream.
     */
    bool workRemainsScan() const;
    bool countersMatchScan() const;

    CapstanConfig cfg_;
    /** The running phase's chain, shared by every tile. */
    std::vector<StageSpec> chain_;
    /** Where chain_ counts lane occupancy: its first Map, else its end. */
    int lane_stage_ = 0;
    sim::DramModel dram_;
    sim::ShuffleNetwork shuffle_;
    std::vector<std::unique_ptr<sim::SparseMemoryUnit>> spmus_;
    std::vector<std::unique_ptr<sim::AddressGenerator>> ags_;
    /** Blocking-AG state for configs without burst tracking. */
    std::vector<Cycle> ag_busy_until_;
    std::vector<Tile> tiles_;
    /** Per-SpMU completion records, in enqueue order. */
    std::vector<common::RingQueue<Completion>> completions_;
    /**
     * The tiles with work and the SpMUs with a completion record: the
     * ones a cycle steps, set and cleared as the counts leave and
     * reach zero.
     */
    sim::TileMask busy_tiles_;
    sim::TileMask busy_spmus_;
    // Counters behind workRemains(): the sums of Tile::work and
    // Tile::reducing, and live pending slots.
    std::int64_t tile_work_ = 0;
    int reducing_ = 0;
    std::uint64_t in_flight_ = 0;
    Cycle now_ = 0;
    std::uint64_t next_vec_id_ = 1;
    double stream_compression_ = 1.0;
    RunTotals totals_;
    std::uint64_t stepped_tiles_ = 0;
};

} // namespace capstan::lang

