/**
 * @file
 * The Capstan machine: a cycle-stepped executor for tile pipelines.
 *
 * Applications lower each outer-parallel tile to a *linear chain* of
 * pipeline stages (scan headers, vectorized map/reduce bodies, SpMU
 * accesses, DRAM streams and atomics). The Machine owns one SpMU per
 * tile, a shared DRAM model, and a shared shuffle network; each cycle it
 * steps the components that have work (a tile with a queued token or a
 * burning scanner, a SpMU holding vectors, a merge unit with input) until
 * all chains drain. Iterative applications run a *sequence of phases*
 * (one per loop level or kernel); the machine accumulates cycles and the
 * stall statistics behind Fig. 7.
 *
 * Stepping is cycle-exact but not cycle-by-cycle: when a cycle makes no
 * observable progress (every stage is waiting on a token's ready_at, a
 * scanner burn, or an in-flight memory access), the machine queries each
 * unit's nextEventCycle() horizon and jumps straight to the minimum,
 * attributing the skipped cycles to the same stall classes the dense
 * loop would have (see docs/ARCHITECTURE.md, "Stepping engine"). Results
 * and statistics are bit-identical to one-cycle-at-a-time stepping.
 *
 * CAPSTAN_NO_FF=1 forces dense one-cycle stepping; it is read at
 * construction, not cached, so tests can bisect in-process.
 *
 * This mirrors the paper's methodology: a custom cycle-level simulator at
 * vector granularity with a loosely-timed network (Section 4).
 */

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/ring.hpp"
#include "lang/token.hpp"
#include "sim/config.hpp"
#include "sim/dram.hpp"
#include "sim/scanner.hpp"
#include "sim/shuffle.hpp"
#include "sim/spmu.hpp"

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
    DramAtomic, //!< Random atomic DRAM access through an AG.
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

/** Timing results of one phase (all chains run to completion). */
struct PhaseStats
{
    Cycle cycles = 0;                 //!< Phase makespan.
    std::vector<Cycle> tile_finish;   //!< Last activity per tile.
};

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
 * Usage: construct, addStage() per tile to build chains, feed() tokens,
 * runPhase(); repeat (chains and feeds reset each phase, components,
 * totals and the stage rings' buffers persist), then read totals().
 */
class Machine
{
  public:
    Machine(const CapstanConfig &cfg, int tiles);

    int tiles() const { return static_cast<int>(tiles_.size()); }
    const CapstanConfig &config() const { return cfg_; }

    /** Append a stage to @p tile's chain; returns the stage index. */
    int addStage(int tile, const StageSpec &spec);

    /** Feed a source token into @p tile's chain (before runPhase). */
    void feed(int tile, const Token &token);

    /** Convenience: window the bit-vector @p pops into scan tokens. */
    void feedScanWindows(int tile, const std::vector<Index> &window_pops,
                         std::uint32_t bytes_per_window = 0);

    /**
     * Run until every chain drains.
     * @param max_cycles Watchdog; the phase aborts (and asserts in
     *        debug builds) if exceeded.
     */
    PhaseStats runPhase(Cycle max_cycles = 1ull << 34);

    /** Clear chains (but not totals) to build the next phase. */
    void resetChains();

    /** Add a synchronization barrier cost between phases. */
    void addBarrier(Cycle cycles);

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
     * Cycles runPhase() stepped one at a time; the remaining phase
     * cycles were fast-forwarded. It differs under CAPSTAN_NO_FF=1
     * (where it equals the phase cycles), so it is a host-side counter
     * and never part of the stats.
     */
    std::uint64_t steppedCycles() const { return stepped_cycles_; }

    /**
     * stepTile() calls runPhase() made: a stepped cycle visits only the
     * tiles with a queued token or a burning scanner. Host-side, like
     * steppedCycles(), and never part of the stats.
     */
    std::uint64_t steppedTiles() const { return stepped_tiles_; }

    sim::DramModel &dram() { return dram_; }
    sim::SparseMemoryUnit &spmu(int tile) { return *spmus_[tile]; }
    sim::ShuffleNetwork &shuffle() { return shuffle_; }

    /** Aggregate SpMU statistics over all tiles. */
    sim::SpmuStats spmuTotals() const;

  private:
    struct Stage
    {
        StageSpec spec;
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
        /** Earliest delivery cycle (e.g. a DRAM-atomic side leg). */
        Cycle ready_floor = 0;
        Token token;
    };

    struct Tile
    {
        std::vector<Stage> stages;
        /**
         * Input rings of earlier chains' stages, by position: addStage()
         * hands position s the ring position s had before, so a ring's
         * buffer survives resetChains().
         */
        std::vector<common::RingQueue<Token>> spare_rings;
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
        /** Stage where lane occupancy is counted (first Map or sink). */
        int lane_count_stage = -1;
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

    /** Enqueues one SpMU refused during one cycle. */
    struct Refusals
    {
        Cycle cycle = sim::kNoEventCycle;
        std::uint64_t count = 0;
    };

    /** Resolve (and cache) the lane-accounting stage for tile @p t. */
    int laneCountStage(int t);

    void stepTile(int t);
    void fireDramStage(int t, int s, const Token &tok);
    bool stageHasRoom(int t, int s) const;
    void advance(int t, int s, Token token, Cycle extra_latency);

    /** Queue @p token at stage @p s of tile @p t. */
    void pushInput(int t, int s, const Token &token);
    /** Drop the head token of @p st, a stage of @p tile. */
    void popInput(Tile &tile, Stage &st);
    /** Count a burn starting (+1) or ending (-1) on @p tile. */
    void addBurn(Tile &tile, int delta);
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
     * tryEnqueue() @p av at SpMU @p t. Accepted: record the accesses
     * @p uids to credit when the vector dequeues. Refused: count the
     * refusal for fastForwardTo().
     */
    bool enqueue(int t, const sim::AccessVector &av,
                 std::span<const std::uint64_t> uids);

    /** True while a token, burn, group, access or vector is in flight. */
    bool workRemains() const;

    /**
     * The full scans the counters replace, for the Debug cross-checks:
     * workRemains() recomputed from the rings, stages and units, and
     * whether every counter equals its scan.
     */
    bool workRemainsScan() const;
    bool countersMatchScan() const;

    /**
     * Earliest cycle >= now_ at which any stage or unit can do
     * observable work (consume a token, issue a memory access, finish a
     * scanner burn, complete a vector), or sim::kNoEventCycle when no
     * time-triggered event is pending. Only meaningful right after a
     * cycle that made no such progress: the machine state is then
     * frozen except for clocks and burn counters, so every cycle before
     * the returned horizon is provably identical.
     */
    Cycle nextEventCycle() const;

    /**
     * Jump the clock to @p target (a cycle <= nextEventCycle()),
     * emulating the skipped cycles exactly: scanner skip/occupancy
     * counters burn (attributed to the Scan stall class and to
     * last_active), busy SpMUs and the shuffle clock advance, and
     * refused enqueues replay into the stall statistics.
     */
    void fastForwardTo(Cycle target);

    CapstanConfig cfg_;
    sim::DramModel dram_;
    sim::ShuffleNetwork shuffle_;
    sim::ScannerModel scanner_;
    std::vector<std::unique_ptr<sim::SparseMemoryUnit>> spmus_;
    std::vector<std::unique_ptr<sim::AddressGenerator>> ags_;
    /** Blocking-AG state for configs without burst tracking. */
    std::vector<Cycle> ag_busy_until_;
    std::vector<Tile> tiles_;
    /** Per-SpMU completion records, in enqueue order. */
    std::vector<common::RingQueue<Completion>> completions_;
    /** Per-SpMU refusals of the last cycle that had any. */
    std::vector<Refusals> refusals_;
    /** Vectors ejected from the shuffle but refused by a busy SpMU. */
    std::vector<common::RingQueue<sim::ShuffleVector>> eject_hold_;
    // Counters behind workRemains(): the sums of Tile::work and
    // Tile::reducing, live pending slots, and vectors in eject_hold_.
    std::int64_t tile_work_ = 0;
    int reducing_ = 0;
    std::uint64_t in_flight_ = 0;
    std::uint64_t held_ = 0;
    /** Whether the current cycle did observable work (gates jumps). */
    bool cycle_progress_ = false;
    /** CAPSTAN_NO_FF=1 at construction: never fast-forward. */
    bool dense_stepping_ = false;
    Cycle now_ = 0;
    std::uint64_t next_vec_id_ = 1;
    double stream_compression_ = 1.0;
    RunTotals totals_;
    std::uint64_t stepped_cycles_ = 0;
    std::uint64_t stepped_tiles_ = 0;
};

} // namespace capstan::lang

