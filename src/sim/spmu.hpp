/**
 * @file
 * Sparse Memory Unit: dynamically scheduled banked scratchpad (Section 3.1).
 *
 * The SpMU extends a Plasticine memory unit with a reordering pipeline:
 * incoming 16-lane access vectors wait in a d-deep issue queue, every
 * pending access bids for its SRAM bank each cycle, and a separable
 * allocator picks a conflict-free lane/bank matching. Granted accesses
 * traverse the crossbar, execute a read-modify-write in their bank's
 * pipeline, and return through an inverse-permuting output crossbar.
 * A vector dequeues once all of its lanes have completed.
 *
 * The model is cycle-stepped and optionally functional: with backing
 * storage enabled it executes real RMW semantics (test-and-set,
 * write-if-zero, swap, min-report-changed, ...), which the unit tests and
 * examples use to validate ordering behaviour.
 */

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/ring.hpp"
#include "sim/allocator.hpp"
#include "sim/config.hpp"
#include "sparse/types.hpp"

namespace capstan::sim {

/** Read-modify-write operations supported by the bank FPU (Section 3.1). */
enum class AccessOp : std::uint8_t {
    Read,             //!< Plain load; returns the stored word.
    Write,            //!< Plain store; returns the stored operand.
    AddF32,           //!< word += operand; returns the new value.
    AddI32,           //!< Integer add on the raw bits; returns new value.
    Min,              //!< word = min(word, operand); returns new value.
    MinReportChanged, //!< Min; returns 1.0 if the word changed else 0.0.
    Max,              //!< word = max(word, operand); returns new value.
    TestAndSet,       //!< word = 1 if word == 0; returns the old value.
    WriteIfZero,      //!< word = operand if word == 0; returns old value.
    Swap,             //!< word = operand; returns the old value.
    BitAnd,           //!< Bitwise ops on the raw word bits; returns new.
    BitOr,
    BitXor,
};

/** True for operations that never modify memory. */
bool isReadOnly(AccessOp op);

/** One lane's access within a vector request. */
struct LaneRequest
{
    bool valid = false;
    std::uint32_t addr = 0; //!< Word address within the SpMU.
    AccessOp op = AccessOp::Read;
    Value operand = 0;
};

/** A 16-lane vectorized access request (one token from a CU). */
struct AccessVector
{
    std::array<LaneRequest, kMaxLanes> lane{};
    std::uint64_t id = 0;

    /** Convenience: count valid lanes. */
    int validCount() const;
};

/** A completed vector returned to the requesting pipeline. */
struct CompletedVector
{
    std::uint64_t id = 0;
    std::array<Value, kMaxLanes> result{};
    Cycle completed_at = 0;
};

/** Aggregate occupancy statistics (Table 4's bank-use metric). */
struct SpmuStats
{
    Cycle cycles = 0;          //!< Cycles stepped while work was present.
    std::uint64_t grants = 0;  //!< Accesses issued to banks.
    std::uint64_t vectors_in = 0;
    std::uint64_t vectors_out = 0;
    std::uint64_t enqueue_stalls = 0; //!< Cycles an enqueue was refused.
    std::uint64_t elided_reads = 0;   //!< Duplicate reads squashed.
    std::uint64_t splits = 0;  //!< Vector splits (address ordering).

    /** Fraction of bank slots doing useful work per busy cycle. */
    double bankUtilization(int banks) const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(grants) /
               (static_cast<double>(cycles) * banks);
    }
};

/**
 * Cycle-stepped sparse memory unit.
 *
 * Usage per cycle: tryEnqueue() new work (at most one vector), step(),
 * then tryDequeue() at most one completed vector.
 */
class SparseMemoryUnit
{
  public:
    /**
     * @param cfg           SpMU parameters (depth, banks, ordering, ...).
     * @param with_storage  Allocate functional backing storage; when
     *                      false the unit is timing-only and results are
     *                      returned as zero.
     */
    explicit SparseMemoryUnit(const SpmuConfig &cfg,
                              bool with_storage = false);

    const SpmuConfig &config() const { return cfg_; }

    /** True if the issue queue can accept @p av this cycle. */
    bool canEnqueue(const AccessVector &av) const;

    /**
     * Enqueue a vector (splitting it when address ordering demands).
     * @return false if refused (queue full or Bloom-filter conflict).
     */
    bool tryEnqueue(const AccessVector &av);

    /** Advance one clock cycle: allocate, issue, execute, complete. */
    void step();

    /**
     * Earliest local cycle at which a step() can do observable work:
     * issue a lane, convert an RMW second pass, or complete the head
     * vector. Returns now() when the very next step may make progress
     * (or when a completed vector is waiting to be dequeued); any step
     * strictly before the returned cycle is guaranteed to be a no-op.
     * The fast-forward engine uses this to jump over latency waits.
     */
    Cycle nextEventCycle() const;

    /**
     * Stand in for @p cycles consecutive no-op step() calls: advance the
     * local clock and the busy-cycle statistic without touching any
     * queue state. Only legal when nextEventCycle() >= now() + cycles.
     * @p repeated_enqueue_stalls additionally accounts the enqueue
     * refusals the skipped cycles would have recorded (the machine
     * replays one refused tryEnqueue() per blocked requester per cycle).
     */
    void skipCycles(Cycle cycles, std::uint64_t repeated_enqueue_stalls = 0);

    /**
     * Pop the oldest fully-completed vector, if any (one per cycle).
     * Guarantee: vectors leave in the order tryEnqueue() accepted them,
     * under every ordering mode and variant (ideal, input speedup, the
     * Plasticine handicaps), because only the issue queue's head
     * completes and a split vector's parts are queued back to back.
     * lang::Machine matches completions to requesters by this order.
     */
    std::optional<CompletedVector> tryDequeue();

    /** True when no work is in flight. */
    bool empty() const { return queue_.empty() && ready_.empty(); }

    /** Number of queued (incomplete) vectors. */
    int occupancy() const { return static_cast<int>(queue_.size()); }

    const SpmuStats &stats() const { return stats_; }
    void resetStats() { stats_ = SpmuStats{}; }

    Cycle now() const { return now_; }

    /** Map a word address to its bank under the configured hash. */
    int bankOf(std::uint32_t addr) const;

    /** Direct storage access for test setup (requires storage). */
    Value peek(std::uint32_t addr) const;
    void poke(std::uint32_t addr, Value v);

    /**
     * Grant trace hook: when enabled, records (cycle, lane, bank) for
     * every issued access. Used to regenerate Fig. 4.
     */
    void enableGrantTrace(bool on) { trace_enabled_ = on; }

    struct GrantRecord
    {
        Cycle cycle;
        int lane;
        int bank;
        std::uint64_t vector_id;
    };
    const std::vector<GrantRecord> &grantTrace() const { return trace_; }

  private:
    struct Slot
    {
        AccessVector av;
        std::uint16_t valid = 0;   //!< Lanes carrying an access.
        std::uint16_t dup = 0;     //!< Valid lanes elided onto a master.
        std::uint16_t pending = 0; //!< Valid, not elided, not yet issued.
        std::uint16_t rmw_second_pass = 0; //!< Write pass (rmw_blocks).
        std::array<Cycle, kMaxLanes> done_at{};
        std::array<std::int8_t, kMaxLanes> dup_of{}; //!< Elision master.
        /** bankOf(addr) per valid lane, hashed once at enqueue. */
        std::array<std::int8_t, kMaxLanes> bank{};
        std::array<Value, kMaxLanes> result{};
        /** Parts the vector was split into (1: completes directly). */
        std::uint8_t parts = 1;
    };

    /**
     * Split @p av into ordered parts with elision markers applied, in
     * parts_[0, n); returns n. The scratch is reused across calls.
     */
    int buildSlots(const AccessVector &av) const;

    /** Queue slots @p av would take this cycle, or 0 if refused. */
    int admit(const AccessVector &av) const;

    void allocateScheduled();
    void allocateFullyOrdered();
    void allocateArbitrated();
    void allocateIdeal();
    void issueLane(Slot &slot, int lane, int bank);
    void completeLanes();
    Value executeOp(std::uint32_t addr, AccessOp op, Value operand);

    /**
     * OR slot @p s's pending requests into @p req, recording in owner_
     * each (virtual lane, bank) request the slot is the first to make.
     */
    void addSlotRequests(RequestMatrix &req, int s);

    /** Priority window (slot count) for allocator iteration @p iter. */
    int priorityWindow(int iter) const;

    // Address-ordered support.
    bool bloomMayConflict(const AccessVector &av) const;
    std::size_t bloomIndex(std::uint32_t addr) const;

    SpmuConfig cfg_;
    SeparableAllocator alloc_;
    /** Reused per-iteration request matrices (no per-step allocation). */
    std::vector<RequestMatrix> mats_scratch_;
    /**
     * owner_[v][b]: the oldest queue slot requesting bank b on virtual
     * lane v in the matrices being built; read only for requests made
     * this cycle.
     */
    std::array<std::array<int, 32>, kMaxVirtualLanes> owner_{};
    /** buildSlots() output; canEnqueue() fills it too, hence mutable. */
    mutable std::vector<Slot> parts_;
    /** Issue queue; canEnqueue() bounds it at the queue depth. */
    common::RingQueue<Slot> queue_;
    /** Completed vectors awaiting tryDequeue(). */
    common::RingQueue<CompletedVector> ready_;
    /**
     * Results of a split vector's completed parts. Parts are queued
     * back to back and only the head completes, so at most one split
     * vector is being merged at a time.
     */
    CompletedVector merge_acc_;
    int merge_remaining_ = 0;
    std::vector<Value> storage_;
    std::vector<std::uint16_t> bloom_; //!< Counting Bloom filter.
    Cycle now_ = 0;
    SpmuStats stats_;
    bool trace_enabled_ = false;
    std::vector<GrantRecord> trace_;
};

} // namespace capstan::sim

