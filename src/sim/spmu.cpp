#include "sim/spmu.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "common/check.hpp"

namespace capstan::sim {

namespace {

/** @p depth as a ring size, once it is a depth the ring masks can hold. */
std::size_t
checkedDepth(int depth)
{
    CAPSTAN_CHECK(depth >= 1 && depth <= kMaxQueueDepth,
                  "queue depth outside the 64-bit ring masks");
    return static_cast<std::size_t>(depth);
}

/** Multiplicative hash for Bloom indexing. */
std::uint32_t
mix32(std::uint32_t x)
{
    x ^= x >> 16;
    x *= 0x7feb352dU;
    x ^= x >> 15;
    x *= 0x846ca68bU;
    x ^= x >> 16;
    return x;
}

} // namespace

bool
isReadOnly(AccessOp op)
{
    return op == AccessOp::Read;
}

SparseMemoryUnit::SparseMemoryUnit(const SpmuConfig &cfg)
    : cfg_(cfg),
      alloc_(kMaxLanes * cfg.input_speedup, kSpmuBanks,
             cfg.allocator == AllocatorKind::Weak ? 1 : kAllocIterations),
      // A machine dequeues every cycle, and one step completes at most
      // a queue's worth of vectors, so neither ring outgrows the depth.
      queue_(checkedDepth(cfg.queue_depth)),
      ready_(static_cast<std::size_t>(cfg.queue_depth)),
      bloom_(kBloomEntries, 0)
{
    CAPSTAN_CHECK(cfg.input_speedup == 1 || cfg.input_speedup == 2);
    // Priority windows: with p classes, iteration i < p - 1 sees the
    // oldest d * (i + 1) / p slots (at least one) and later ones the
    // whole queue. The weak allocator's one iteration sees every slot.
    int p = std::max(1, cfg.priorities);
    int d = cfg.queue_depth;
    for (int i = 0; i < alloc_.iterations(); ++i) {
        windows_[i] = cfg.allocator != AllocatorKind::Weak && i < p - 1
                          ? std::max(1, d * (i + 1) / p)
                          : d;
    }
}

int
SparseMemoryUnit::bankOf(std::uint32_t addr) const
{
    if (cfg_.hash == BankHash::Linear)
        return static_cast<int>(addr % kSpmuBanks);
    // Nibble fold: a[0:3] ^ a[4:7] ^ a[8:11] ^ a[12:15], whose 4-bit
    // result names one of the 16 banks.
    static_assert(kSpmuBanks == 16, "the nibble fold yields 4 bank bits");
    std::uint32_t folded = addr ^ (addr >> 8);
    return static_cast<int>((folded ^ (folded >> 4)) & 0xF);
}

std::size_t
SparseMemoryUnit::bloomIndex(std::uint32_t addr) const
{
    return mix32(addr) % bloom_.size();
}

bool
SparseMemoryUnit::bloomMayConflict(const AccessVector &av) const
{
    for (const LaneRequest &lr : av.lane) {
        if (lr.valid && bloom_[bloomIndex(lr.addr)] > 0)
            return true;
    }
    return false;
}

int
SparseMemoryUnit::planSlots(const AccessVector &av, SplitPlan &plan) const
{
    bool capstan_mode = cfg_.ordering != Ordering::Arbitrated;
    bool split_mode = cfg_.ordering == Ordering::AddressOrdered;
    bool program_order = cfg_.ordering == Ordering::FullyOrdered;
    plan.parts = 1;
    plan.valid[0] = 0;
    plan.dup = 0;

    std::uint16_t valid = 0;
    std::uint16_t reads = 0;
    for (int l = 0; l < kMaxLanes; ++l) {
        const auto bit = static_cast<std::uint16_t>(1u << l);
        if (av.lane[l].valid) {
            valid |= bit;
            if (isReadOnly(av.lane[l].op))
                reads |= bit;
        }
    }
    // Only a read can be elided (and not under arbitration), and only
    // address ordering splits: otherwise every lane goes to part 0,
    // and the duplicate-address scan below is skipped.
    if (!split_mode && (!capstan_mode || reads == 0)) {
        plan.valid[0] = valid;
        return plan.parts;
    }

    // Per distinct address (at most one per lane): the part index of
    // the last access touching it, and whether later reads can still be
    // elided onto its first access, a part-0 read. A linear scan over
    // <= 16 entries beats a hash map on this hot path.
    struct SeenAddr
    {
        std::uint32_t addr;
        int last_part;
        bool read_master;
    };
    std::array<SeenAddr, kMaxLanes> seen;
    int n_seen = 0;

    for (std::uint32_t lanes = valid; lanes != 0; lanes &= lanes - 1) {
        const int l = std::countr_zero(lanes);
        const LaneRequest &lr = av.lane[l];
        const auto bit = static_cast<std::uint16_t>(1u << l);
        SeenAddr *sa = nullptr;
        for (int i = 0; i < n_seen; ++i) {
            if (seen[i].addr == lr.addr) {
                sa = &seen[i];
                break;
            }
        }
        if (sa == nullptr) {
            plan.valid[0] |= bit;
            seen[n_seen++] = {lr.addr, 0,
                              capstan_mode && isReadOnly(lr.op)};
            continue;
        }
        // Repeated-read elision onto the address's first access, a
        // part-0 read. A modification in between ends it where order is
        // promised: under address ordering it moves to a later part
        // (last_part > 0), and under full ordering it clears
        // read_master. Unordered accesses may complete in any order
        // (Table 3), so a read there is still elided past a write.
        if (capstan_mode && isReadOnly(lr.op) && sa->read_master &&
            sa->last_part == 0) {
            plan.valid[0] |= bit;
            plan.dup |= bit;
            continue;
        }
        if (!split_mode) {
            // Unordered / fully-ordered / arbitrated keep same-address
            // lanes in one vector; the bank serializes them.
            plan.valid[0] |= bit;
            if (program_order && !isReadOnly(lr.op))
                sa->read_master = false;
            continue;
        }
        // Address-ordered: defer to the part after the last one touching
        // this address, so same-address accesses keep program order.
        int part = sa->last_part + 1;
        for (; plan.parts <= part; ++plan.parts)
            plan.valid[plan.parts] = 0;
        plan.valid[part] |= bit;
        sa->last_part = part;
    }
    return plan.parts;
}

void
SparseMemoryUnit::fillSlots(const AccessVector &av, const SplitPlan &plan)
{
    bool bloom = cfg_.ordering == Ordering::AddressOrdered;
    for (int p = 0; p < plan.parts; ++p) {
        // The ring slot still holds an older vector: reset every field a
        // later reader uses. The others are read only for lanes written
        // below (av.lane, bank) or once a lane issues (done_at).
        const auto pos =
            static_cast<std::uint8_t>((head_pos_ + queue_.size()) % 64);
        Slot &slot = queue_.push_back_slot();
        slot.pos = pos;
        slot.req.fill(0);
        slot.av.id = av.id;
        slot.valid = plan.valid[p];
        slot.dup = p == 0 ? plan.dup : 0;
        slot.pending = slot.valid & static_cast<std::uint16_t>(~slot.dup);
        slot.rmw_second_pass = 0;
        slot.parts_left = static_cast<std::uint8_t>(plan.parts - p);
        slot.last_done = 0;
        forEachSetBit(slot.pending, [&](int l) {
            const LaneRequest &lr = av.lane[l];
            slot.av.lane[l] = lr;
            slot.bank[l] = static_cast<std::int8_t>(bankOf(lr.addr));
            armLane(slot, l);
            // Without the sparse extensions (Plasticine) a modification
            // needs a second (write) pass after the read returns.
            if (!cfg_.sparse_support && !isReadOnly(lr.op))
                slot.rmw_second_pass |= static_cast<std::uint16_t>(1u << l);
            if (bloom)
                ++bloom_[bloomIndex(lr.addr)];
        });
        unissued_ += std::popcount(slot.pending) +
                     std::popcount(slot.rmw_second_pass);
        stats_.elided_reads +=
            static_cast<std::uint64_t>(std::popcount(slot.dup));
    }
}

bool
SparseMemoryUnit::tryEnqueue(const AccessVector &av)
{
    // Refused on a full queue, a Bloom-filter conflict, or more parts
    // than free slots.
    int free_slots = cfg_.queue_depth - static_cast<int>(queue_.size());
    SplitPlan plan;
    if (free_slots <= 0 ||
        (cfg_.ordering == Ordering::AddressOrdered && bloomMayConflict(av)) ||
        planSlots(av, plan) > free_slots) {
        ++stats_.enqueue_stalls;
        return false;
    }
    stats_.splits += static_cast<std::uint64_t>(plan.parts - 1);
    fillSlots(av, plan);
    ++stats_.vectors_in;
    return true;
}

bool
SparseMemoryUnit::refuseIfFull()
{
    // tryEnqueue()'s first test, counted as it counts a refusal.
    if (static_cast<int>(queue_.size()) < cfg_.queue_depth)
        return false;
    ++stats_.enqueue_stalls;
    return true;
}

void
SparseMemoryUnit::armLane(Slot &slot, int lane)
{
    int bank = slot.bank[lane];
    slot.req[lane] = 1u << bank;
    pending_at_[lane][bank] |= std::uint64_t{1} << slot.pos;
}

void
SparseMemoryUnit::issueLane(Slot &slot, int lane, int bank)
{
    CAPSTAN_DCHECK(slot.pending & (1u << lane));
    slot.pending &= static_cast<std::uint16_t>(~(1u << lane));
    slot.req[lane] = 0;
    pending_at_[lane][bank] &= ~(std::uint64_t{1} << slot.pos);
    if (cfg_.ordering == Ordering::AddressOrdered) {
        // Ordering is locked in once an access issues (same address =>
        // same bank => in-order completion), so it stops conflicting.
        std::size_t idx = bloomIndex(slot.av.lane[lane].addr);
        CAPSTAN_DCHECK(bloom_[idx] > 0);
        --bloom_[idx];
    }
    slot.done_at[lane] = now_ + kSpmuPipelineLatency;
    slot.last_done = slot.done_at[lane];
    --unissued_;
    ++stats_.grants;
    if (trace_enabled_)
        trace_.push_back({now_, lane, bank, slot.av.id});
}

bool
SparseMemoryUnit::rowsMatchPending() const
{
    std::array<std::array<std::uint64_t, kSpmuBanks>, kMaxLanes> masks{};
    int unissued = 0;
    for (std::size_t s = 0; s < queue_.size(); ++s) {
        const Slot &slot = queue_[s];
        if (slot.pos != (head_pos_ + s) % 64)
            return false;
        for (int l = 0; l < kMaxLanes; ++l) {
            std::uint32_t row = (slot.pending & (1u << l))
                                    ? 1u << slot.bank[l]
                                    : 0;
            if (slot.req[l] != row)
                return false;
            if (row != 0)
                masks[l][slot.bank[l]] |= std::uint64_t{1} << slot.pos;
        }
        unissued += std::popcount(slot.pending) +
                    std::popcount(slot.rmw_second_pass);
    }
    return masks == pending_at_ && unissued == unissued_;
}

Cycle
SparseMemoryUnit::latestDoneScan(const Slot &slot) const
{
    Cycle latest = 0;
    std::uint32_t issued = slot.valid & ~std::uint32_t{slot.dup};
    forEachSetBit(issued,
                  [&](int l) { latest = std::max(latest, slot.done_at[l]); });
    return latest;
}

int
SparseMemoryUnit::oldestRequesterScan(int v, int bank) const
{
    int group = v / kMaxLanes;
    int lane = v % kMaxLanes;
    for (std::size_t s = 0; s < queue_.size(); ++s) {
        const Slot &slot = queue_[s];
        if (static_cast<int>(s) % cfg_.input_speedup == group &&
            (slot.pending & (1u << lane)) && slot.bank[lane] == bank) {
            return static_cast<int>(s);
        }
    }
    return -1;
}

void
SparseMemoryUnit::allocateScheduled()
{
    const int n = static_cast<int>(queue_.size());
    // With input speedup 2, slot parity selects the virtual lane group
    // (virtual lanes [16g, 16g + 16) for group g),
    // modelling the banked input queue. Each group ORs its slots' rows
    // into its own accumulator, a local array so the compiler
    // vectorizes the fixed 16-wide loop.
    const int groups = cfg_.input_speedup;
    std::uint32_t acc[2][kMaxLanes] = {};
    // The priority windows expand monotonically, so each iteration's
    // matrix is the previous one plus the newly admitted slots. Once a
    // window covers the whole queue every later matrix is identical,
    // and the allocator reuses the last one (a common case: short
    // queues collapse to a single matrix).
    int built = 0;
    int mats = 0;
    for (int i = 0; i < alloc_.iterations(); ++i) {
        int limit = std::min(windows_[i], n);
        for (; built < limit; ++built) {
            const Slot &slot = queue_[static_cast<std::size_t>(built)];
            int g = groups > 1 ? built & 1 : 0;
            for (int l = 0; l < kMaxLanes; ++l)
                acc[g][l] |= slot.req[l];
        }
        // Lanes of a group this SpMU lacks stay 0 from construction.
        RequestMatrix &mat = mats_[static_cast<std::size_t>(mats++)];
        for (int g = 0; g < groups; ++g)
            std::copy_n(acc[g], kMaxLanes, mat.begin() + g * kMaxLanes);
        if (limit == n)
            break;
    }
    AllocResult res =
        alloc_.allocate(std::span(mats_.data(), static_cast<std::size_t>(mats)));
    // Queue slot s of the group's parity; every slot with one group.
    constexpr std::uint64_t kEvenSlots = 0x5555555555555555;
    const auto head = static_cast<int>(head_pos_ % 64);
    forEachSetBit(res.granted, [&](int v) {
        // Oldest-first priority encoder within the lane (Fig. 3, step
        // 7): the oldest slot of v's group with the lane pending on the
        // granted bank. Some slot has it, or the lane would not have
        // bid for the bank; grants to other virtual lanes cannot clear
        // it.
        int group = v >= kMaxLanes ? 1 : 0;
        int lane = v - group * kMaxLanes;
        int bank = res.bank_for_lane[v];
        std::uint64_t slots = std::rotr(pending_at_[lane][bank], head);
        if (groups > 1)
            slots &= kEvenSlots << group;
        int s = std::countr_zero(slots);
        CAPSTAN_DCHECK(s == oldestRequesterScan(v, bank),
                       "a grant resolved to the wrong slot");
        issueLane(queue_[static_cast<std::size_t>(s)], lane, bank);
    });
}

void
SparseMemoryUnit::allocateFullyOrdered()
{
    // Issue a strictly program-ordered prefix of the oldest partially
    // issued vector: lanes go in order and stop at the first bank
    // conflict this cycle. Unlike the arbitrated baseline, younger
    // lanes may not be reordered past the conflicting one, which is why
    // this mode trails arbitration (Fig. 4).
    for (std::size_t s = 0; s < queue_.size(); ++s) {
        Slot &slot = queue_[s];
        if (slot.pending == 0)
            continue;
        std::uint32_t banks_used = 0;
        // Only the arbitrated baseline turns RMW write passes into
        // pending lanes, so pending lanes here are valid, unelided ones.
        std::uint32_t lanes = slot.pending;
        while (lanes != 0) {
            int l = std::countr_zero(lanes);
            lanes &= lanes - 1;
            int bank = slot.bank[l];
            if (banks_used & (1u << bank))
                return; // Everything younger waits for next cycle.
            banks_used |= 1u << bank;
            issueLane(slot, l, bank);
        }
        return; // One vector per cycle: no boundary crossing.
    }
}

void
SparseMemoryUnit::allocateArbitrated()
{
    // Plasticine-style: the oldest partially issued vector executes;
    // each bank grants its lowest-numbered pending lane (reordering is
    // allowed within the vectorized request, Section 2.3 of Table 3).
    for (std::size_t s = 0; s < queue_.size(); ++s) {
        Slot &slot = queue_[s];
        if (slot.pending == 0 && slot.rmw_second_pass == 0)
            continue;
        if (slot.pending == 0) {
            // RMW handicap second (write) pass: wait for every read to
            // return, then the writes re-arbitrate for the banks. The
            // vector keeps blocking younger ones throughout.
            std::uint32_t reads = slot.rmw_second_pass;
            while (reads != 0) {
                int l = std::countr_zero(reads);
                reads &= reads - 1;
                if (slot.done_at[l] > now_)
                    return;
            }
            slot.pending = slot.rmw_second_pass;
            slot.rmw_second_pass = 0;
            forEachSetBit(slot.pending, [&](int l) { armLane(slot, l); });
        }
        std::uint32_t banks_used = 0;
        std::uint32_t lanes = slot.pending;
        while (lanes != 0) {
            int l = std::countr_zero(lanes);
            lanes &= lanes - 1;
            int bank = slot.bank[l];
            if (banks_used & (1u << bank))
                continue;
            banks_used |= 1u << bank;
            issueLane(slot, l, bank);
            if (!cfg_.sparse_support)
                return; // Static banking: one access per cycle.
        }
        return;
    }
}

void
SparseMemoryUnit::allocateIdeal()
{
    // No bank conflicts: up to one access per lane issues per cycle.
    int budget = kMaxLanes;
    for (std::size_t s = 0; s < queue_.size() && budget > 0; ++s) {
        Slot &slot = queue_[s];
        std::uint32_t lanes = slot.pending;
        while (lanes != 0 && budget > 0) {
            int l = std::countr_zero(lanes);
            lanes &= lanes - 1;
            issueLane(slot, l, slot.bank[l]);
            --budget;
        }
    }
}

void
SparseMemoryUnit::completeLanes()
{
    while (!queue_.empty()) {
        const Slot &head = queue_.front();
        // A lane still to issue (or to re-issue as an RMW write) keeps
        // the head incomplete. Otherwise it completes once every issued
        // lane's data is back; an elided lane completes with its
        // master, which is an issued lane of the same slot.
        if ((head.pending | head.rmw_second_pass) != 0)
            return;
        CAPSTAN_DCHECK(head.last_done == latestDoneScan(head),
                       "a slot's last_done disagrees with its lanes");
        if (head.last_done > now_)
            return;
        // A split vector's parts are queued back to back and only the
        // head completes, so the vector completes with its last part.
        if (head.parts_left == 1) {
            ready_.push_back({head.av.id, now_});
            ++stats_.vectors_out;
        }
        queue_.pop_front();
        ++head_pos_;
    }
}

void
SparseMemoryUnit::step()
{
    CAPSTAN_DCHECK(rowsMatchPending(),
                   "a request row disagrees with its pending lanes");
    if (unissued_ == 0) {
        // A drain-only cycle (every lane issued, waiting on the bank
        // pipeline) skips the allocators entirely.
    } else if (cfg_.ideal) {
        allocateIdeal();
    } else {
        switch (cfg_.ordering) {
          case Ordering::Unordered:
          case Ordering::AddressOrdered:
            allocateScheduled();
            break;
          case Ordering::FullyOrdered:
            allocateFullyOrdered();
            break;
          case Ordering::Arbitrated:
            allocateArbitrated();
            break;
        }
    }
    ++now_;
    ++stats_.cycles;
    completeLanes();
}

std::optional<CompletedVector>
SparseMemoryUnit::tryDequeue()
{
    if (ready_.empty())
        return std::nullopt;
    CompletedVector cv = ready_.front();
    ready_.pop_front();
    return cv;
}

} // namespace capstan::sim
