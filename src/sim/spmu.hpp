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
 * The model is cycle-stepped and timing-only: it decides when each
 * access issues to its bank and when each vector completes, and carries
 * no data (the apps' *Reference functions compute every functional
 * result). The grant trace (enableGrantTrace()) exposes the issue
 * order to the Fig. 4 study and the tests.
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

namespace capstan::sim {

/**
 * Read-modify-write operations supported by the bank FPU (Section 3.1).
 * The timing model tells only reads from modifications (isReadOnly()):
 * reads may be elided, and modifications split a vector under address
 * ordering and take a second pass without the sparse extensions.
 */
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
};

/** A 16-lane vectorized access request (one token from a CU). */
struct AccessVector
{
    std::array<LaneRequest, kMaxLanes> lane{};
    std::uint64_t id = 0;
};

/** A completed vector returned to the requesting pipeline. */
struct CompletedVector
{
    std::uint64_t id = 0;
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
    double bankUtilization() const
    {
        if (cycles == 0)
            return 0.0;
        return static_cast<double>(grants) /
               (static_cast<double>(cycles) * kSpmuBanks);
    }
};

/**
 * Cycle-stepped sparse memory unit.
 *
 * Usage per cycle: offer new work with tryEnqueue(), step(), then drain
 * completed vectors with tryDequeue(). lang::Machine offers up to two
 * vectors a cycle (its Spmu stage plus a vector ejected from the
 * shuffle network, or both legs of a no-shuffle remote read) and drains
 * every completed one.
 */
class SparseMemoryUnit
{
  public:
    /** @param cfg SpMU parameters (depth, ordering, hash, ...). */
    explicit SparseMemoryUnit(const SpmuConfig &cfg);

    /**
     * Enqueue a vector (splitting it when address ordering demands).
     * @return false if refused (queue full or Bloom-filter conflict).
     */
    bool tryEnqueue(const AccessVector &av);

    /**
     * Refuse before the vector is built: when the issue queue is full,
     * count one refused enqueue exactly as a refused tryEnqueue() would
     * and return true. With room it counts nothing and returns false;
     * tryEnqueue() may still refuse (a Bloom-filter conflict, or more
     * parts than free slots).
     */
    bool refuseIfFull();

    /** Advance one clock cycle: allocate, issue, execute, complete. */
    void step();

    /**
     * Pop the oldest fully-completed vector, if any.
     * Guarantee: vectors leave in the order tryEnqueue() accepted them,
     * under every ordering mode and variant (ideal, input speedup, the
     * Plasticine handicaps), because only the issue queue's head
     * completes and a split vector's parts are queued back to back (the
     * vector completes with its last part).
     * lang::Machine matches completions to requesters by this order.
     */
    std::optional<CompletedVector> tryDequeue();

    /** True when no work is in flight. */
    bool empty() const { return queue_.empty() && ready_.empty(); }

    /** Number of queued (incomplete) vectors. */
    int occupancy() const { return static_cast<int>(queue_.size()); }

    const SpmuStats &stats() const { return stats_; }

    /** Map a word address to its bank under the configured hash. */
    int bankOf(std::uint32_t addr) const;

    /**
     * Grant trace hook: when enabled, records (cycle, lane, bank, vector
     * id) for every issued access, an RMW second pass included.
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
    struct alignas(64) Slot
    {
        /**
         * Request row: 1 << bank for each pending lane, 0 elsewhere.
         * First, so the priority windows' OR reads one cache line per
         * slot.
         */
        std::array<std::uint32_t, kMaxLanes> req{};
        std::uint16_t valid = 0;   //!< Lanes carrying an access.
        std::uint16_t dup = 0;     //!< Valid lanes elided onto a master.
        std::uint16_t pending = 0; //!< Valid, not elided, not yet issued.
        std::uint16_t rmw_second_pass = 0; //!< Plasticine write pass.
        /**
         * Parts of the vector from this slot to its last (1: the vector
         * completes with this slot).
         */
        std::uint8_t parts_left = 1;
        /** Ring position: the slot's enqueue index mod 64. */
        std::uint8_t pos = 0;
        /** The latest done_at of an issued lane (0 before any issue). */
        Cycle last_done = 0;
        /** bankOf(addr) per pending lane, hashed once at enqueue. */
        std::array<std::int8_t, kMaxLanes> bank{};
        std::array<Cycle, kMaxLanes> done_at{};
        AccessVector av;
    };

    /** How an enqueue splits a vector into issue-queue slots. */
    struct SplitPlan
    {
        int parts = 1;
        std::array<std::uint16_t, kMaxLanes> valid{}; //!< Lanes per part.
        std::uint16_t dup = 0; //!< Part-0 reads elided onto an earlier one.
    };

    /**
     * Planning pass of an enqueue: give each valid lane of @p av its part
     * (under address ordering, same-address accesses go to successive
     * parts) or mark it elided, in @p plan; returns the part count.
     */
    int planSlots(const AccessVector &av, SplitPlan &plan) const;

    /** Fill pass: write @p av's planned parts straight into the queue. */
    void fillSlots(const AccessVector &av, const SplitPlan &plan);

    void allocateScheduled();
    void allocateFullyOrdered();
    void allocateArbitrated();
    void allocateIdeal();
    /** Make @p slot's @p lane pending on its bank again. */
    void armLane(Slot &slot, int lane);
    void issueLane(Slot &slot, int lane, int bank);
    void completeLanes();

    /**
     * The scans the request rows, ring masks and counts replace, for the
     * Debug cross-checks: whether every slot's row, every ring mask and
     * unissued_ match the pending lanes and banks; the oldest slot of
     * virtual lane @p v's group with that lane pending on @p bank (-1 if
     * none); and the latest done_at of @p slot's issued lanes.
     */
    bool rowsMatchPending() const;
    int oldestRequesterScan(int v, int bank) const;
    Cycle latestDoneScan(const Slot &slot) const;

    // Address-ordered support.
    bool bloomMayConflict(const AccessVector &av) const;
    std::size_t bloomIndex(std::uint32_t addr) const;

    SpmuConfig cfg_;
    SeparableAllocator alloc_;
    /** Priority window (slot count) of each allocator iteration. */
    std::array<int, kAllocIterations> windows_{};
    /** Per-iteration request matrices, rebuilt by each scheduled step. */
    std::array<RequestMatrix, kAllocIterations> mats_{};
    /**
     * pending_at_[lane][bank]: bit p set while the slot at ring
     * position p has @p lane pending on @p bank. Rotated by the head's
     * position, bit s stands for queue slot s, so a grant's oldest
     * slot is one count of trailing zeros away.
     */
    std::array<std::array<std::uint64_t, kSpmuBanks>, kMaxLanes>
        pending_at_{};
    /** Enqueue index of the queue's front slot (its position mod 64). */
    std::uint64_t head_pos_ = 0;
    /** Lanes pending or awaiting an RMW second pass, over all slots. */
    int unissued_ = 0;
    /** Issue queue; tryEnqueue() bounds it at the queue depth. */
    common::RingQueue<Slot> queue_;
    /** Completed vectors awaiting tryDequeue(). */
    common::RingQueue<CompletedVector> ready_;
    std::vector<std::uint16_t> bloom_; //!< Counting Bloom filter.
    Cycle now_ = 0;
    SpmuStats stats_;
    bool trace_enabled_ = false;
    std::vector<GrantRecord> trace_;
};

} // namespace capstan::sim

