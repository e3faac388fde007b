#include "sim/shuffle.hpp"

#include <bit>
#include <utility>

#include "common/check.hpp"

namespace capstan::sim {

namespace {

/** Per-channel staging buffer depth between butterfly stages. */
constexpr std::size_t kChannelDepth = 4;

/** Lane mask of @p v's valid lanes. */
std::uint32_t
laneMask(const ShuffleVector &v)
{
    return static_cast<std::uint32_t>(v.valid.to_ulong());
}

} // namespace

ShuffleNetwork::ShuffleNetwork(const ShuffleConfig &cfg) : cfg_(cfg)
{
    // Ports travel as int8_t lanes and a stage's units fit one 64-bit
    // occupancy mask, so a network has at most kMaxTiles ports.
    CAPSTAN_CHECK(cfg.ports >= 2 && cfg.ports <= kMaxTiles &&
                  std::has_single_bit(unsigned(cfg.ports)));
    stages_ = std::countr_zero(unsigned(cfg.ports));
    // Stage buffers never hold more than kChannelDepth vectors. Outputs
    // are unbounded: a delivered vector waits there until its consumer
    // takes it.
    channels_.assign(stages_,
                     std::vector<Fifo>(cfg.ports, Fifo(kChannelDepth)));
    occupied_.assign(stages_, 0);
    outputs_.assign(cfg.ports, Fifo(kChannelDepth));
    in_flight_.assign(stages_, std::vector<int>(cfg.ports / 2, 0));
}

int
ShuffleNetwork::shiftLimit() const
{
    switch (cfg_.mode) {
      case MergeMode::Mrg0:
        return 0;
      case MergeMode::Mrg1:
        return 1;
      case MergeMode::Mrg16:
        return kMaxLanes;
      case MergeMode::None:
      default:
        return -1; // Merging disabled entirely.
    }
}

int
ShuffleNetwork::unitOf(int s, int port) const
{
    // Stage s pairs ports half apart within groups of 2 * half; units
    // are numbered group by group, so unit order is port order.
    int half = cfg_.ports >> (s + 1);
    return ((port >> 1) & ~(half - 1)) | (port & (half - 1));
}

ShuffleNetwork::Slot
ShuffleNetwork::acquire()
{
    if (free_.empty()) {
        pool_.emplace_back();
        return static_cast<Slot>(pool_.size() - 1);
    }
    Slot v = free_.back();
    free_.pop_back();
    return v;
}

void
ShuffleNetwork::pushChannel(int s, int port, Slot v)
{
    channels_[s][port].push_back(v);
    occupied_[s] |= std::uint64_t{1} << unitOf(s, port);
    ++live_;
}

void
ShuffleNetwork::deliver(int port, Slot v)
{
    outputs_[port].push_back(v);
    delivered_ports_.set(port);
    ++delivered_;
}

bool
ShuffleNetwork::inputFull(int port) const
{
    return channels_[0][port].size() >= kChannelDepth;
}

bool
ShuffleNetwork::tryInject(int port, const ShuffleVector &v)
{
    CAPSTAN_DCHECK(port >= 0 && port < cfg_.ports);
    // Pure bypass: every lane already destined for this port's memory.
    bool all_local = true;
    for (std::uint32_t lanes = laneMask(v); lanes != 0; lanes &= lanes - 1)
        all_local = all_local && v.dst_port[std::countr_zero(lanes)] == port;
    if (all_local) {
        Slot slot = acquire();
        pool_[slot] = v;
        deliver(port, slot);
        return true;
    }
    if (inputFull(port))
        return false;
    Slot slot = acquire();
    pool_[slot] = v;
    pushChannel(0, port, slot);
    return true;
}

bool
ShuffleNetwork::planMerge(std::uint32_t a, std::uint32_t b,
                          std::array<std::int8_t, kMaxLanes> &place) const
{
    int shift = shiftLimit();
    if (shift < 0)
        return false;
    // a's entries stay put (they already occupy their positional lanes).
    std::uint32_t free = ~a & ((1u << kMaxLanes) - 1);
    std::uint32_t todo = b;
    while (todo != 0) {
        int l = std::countr_zero(todo);
        todo &= todo - 1;
        int p = -1;
        for (int d = 0; d <= shift && p < 0; ++d) {
            if (l - d >= 0 && ((free >> (l - d)) & 1))
                p = l - d;
            else if (d > 0 && l + d < kMaxLanes && ((free >> (l + d)) & 1))
                p = l + d;
        }
        if (p < 0)
            return false;
        place[l] = static_cast<std::int8_t>(p);
        free &= ~(1u << p);
    }
    return true;
}

void
ShuffleNetwork::step()
{
    if (live_ == 0)
        return; // Nothing buffered between stages: stepping moves nothing.
    CAPSTAN_DCHECK(bookkeepingMatchesScan(),
                   "a shuffle count or mask disagrees with its scan");
    // Walk stages from last to first so a vector advances one stage per
    // cycle (moving the later stages first frees room for earlier ones).
    // Only merge units with input move anything; they are visited in
    // ascending unit order, the order merge ids are drawn in. A unit
    // changes only its own inputs' occupancy, so the stage's mask is
    // read once.
    for (int s = stages_ - 1; s >= 0; --s) {
        int bit = stages_ - 1 - s; // MSB first (Fig. 3e).
        int half = cfg_.ports >> (s + 1);
        for (std::uint64_t units = occupied_[s]; units != 0;
             units &= units - 1) {
            int unit = std::countr_zero(units);
            int p0 = ((unit & ~(half - 1)) << 1) | (unit & (half - 1));
            stepUnit(s, unit, p0, p0 + half, bit);
        }
    }
    // The vectors this step delivered return their credits only now:
    // units stepped after a delivery still see those vectors in flight.
    for (Slot v : arrived_)
        retireSlot(v);
    arrived_.clear();
}

bool
ShuffleNetwork::bookkeepingMatchesScan() const
{
    int live = 0;
    for (int s = 0; s < stages_; ++s) {
        std::uint64_t occupied = 0;
        for (int p = 0; p < cfg_.ports; ++p) {
            const Fifo &ch = channels_[s][p];
            live += static_cast<int>(ch.size());
            if (!ch.empty())
                occupied |= std::uint64_t{1} << unitOf(s, p);
        }
        if (occupied != occupied_[s])
            return false;
    }
    int delivered = 0;
    TileMask ports;
    for (int p = 0; p < cfg_.ports; ++p) {
        const Fifo &out = outputs_[p];
        delivered += static_cast<int>(out.size());
        ports.assign(p, !out.empty());
    }
    // Every pool slot in use holds exactly one buffered vector.
    return live == live_ && delivered == delivered_ &&
           ports == delivered_ports_ &&
           pool_.size() - free_.size() ==
               static_cast<std::size_t>(live_ + delivered_);
}

void
ShuffleNetwork::stepUnit(int s, int unit, int p0, int p1, int bit)
{
    if (in_flight_[s][unit] >= cfg_.fifo_depth)
        return; // Inverse-permutation FIFO exhausted.
    Fifo *ins[2] = {&channels_[s][p0], &channels_[s][p1]};
    CAPSTAN_DCHECK(!ins[0]->empty() || !ins[1]->empty());

    // Plan: split each head on this stage's bit. frag[i][d] holds the
    // lanes head i sends low (d = 0, port p0) or high (d = 1, p1).
    Slot head[2] = {0, 0};
    std::uint32_t frag[2][2] = {{0, 0}, {0, 0}};
    std::uint64_t frag_id[2][2] = {{0, 0}, {0, 0}};
    bool split[2] = {false, false};
    for (int i = 0; i < 2; ++i) {
        if (ins[i]->empty())
            continue;
        head[i] = ins[i]->front();
        const ShuffleVector &v = pool_[head[i]];
        std::uint32_t high = 0;
        for (int l = 0; l < kMaxLanes; ++l)
            high |= static_cast<std::uint32_t>((v.dst_port[l] >> bit) & 1)
                    << l;
        std::uint32_t valid = laneMask(v);
        frag[i][0] = valid & ~high;
        frag[i][1] = valid & high;
        split[i] = frag[i][0] != 0 && frag[i][1] != 0;
        if (split[i]) {
            // A real split: both halves need distinct ids so reply
            // bookkeeping stays unambiguous.
            frag_id[i][0] = next_merged_id_++;
            frag_id[i][1] = next_merged_id_++;
        } else {
            frag_id[i][0] = frag_id[i][1] = v.id;
        }
    }

    // Plan: merge the fragments heading the same way. Ids are consumed
    // here even if the commit is abandoned.
    bool merged[2] = {false, false};
    std::uint64_t merged_id[2] = {0, 0};
    std::array<std::int8_t, kMaxLanes> place[2] = {};
    std::size_t outputs[2] = {0, 0};
    for (int d = 0; d < 2; ++d) {
        if (frag[0][d] != 0 && frag[1][d] != 0) {
            merged[d] = planMerge(frag[0][d], frag[1][d], place[d]);
            if (merged[d])
                merged_id[d] = next_merged_id_++;
        }
        outputs[d] = merged[d] ? 1
                               : (frag[0][d] != 0 ? 1 : 0) +
                                     (frag[1][d] != 0 ? 1 : 0);
    }

    // Check downstream capacity before committing. Output buffers are
    // drained by the consumer and unbounded here.
    const bool last_stage = s + 1 == stages_;
    const int out_port[2] = {p0, p1};
    for (int d = 0; d < 2 && !last_stage; ++d) {
        if (channels_[s + 1][out_port[d]].size() + outputs[d] >
            kChannelDepth) {
            return;
        }
    }

    // Commit, low side first. A head whose lanes all go one way becomes
    // its fragment in its own slot; a split head's low fragment is a
    // copy in a fresh slot and its high fragment keeps the head's slot.
    // Fragments keep the head's fields on their invalid lanes.
    bool reused[2] = {false, false};
    auto fragment = [&](int d, int i) -> Slot {
        Slot slot = head[i];
        if (split[i] && d == 0) {
            slot = acquire();
            pool_[slot] = pool_[head[i]];
        } else {
            reused[i] = true;
        }
        ShuffleVector &out = pool_[slot];
        out.valid = frag[i][d];
        out.id = frag_id[i][d];
        return slot;
    };
    auto send = [&](int d, Slot slot) {
        pool_[slot].path.emplace_back(static_cast<std::int8_t>(s),
                                      static_cast<std::int8_t>(unit));
        ++in_flight_[s][unit];
        if (last_stage) {
            deliver(out_port[d], slot);
            arrived_.push_back(slot);
        } else {
            pushChannel(s + 1, out_port[d], slot);
        }
    };
    for (int d = 0; d < 2; ++d) {
        if (merged[d]) {
            // Head 1's lanes join head 0's fragment; head 1's own
            // fragment this way is never built.
            Slot slot = fragment(d, 0);
            ShuffleVector &out = pool_[slot];
            const ShuffleVector &other = pool_[head[1]];
            std::uint32_t lanes = frag[1][d];
            while (lanes != 0) {
                int l = std::countr_zero(lanes);
                lanes &= lanes - 1;
                int p = place[d][l];
                out.valid[p] = true;
                out.addr[p] = other.addr[l];
                out.dst_port[p] = other.dst_port[l];
                out.src_lane[p] = other.src_lane[l];
                out.tag[p] = other.tag[l];
            }
            out.id = merged_id[d];
            out.path.insert(out.path.end(), other.path.begin(),
                            other.path.end());
            send(d, slot);
            continue;
        }
        for (int i = 0; i < 2; ++i) {
            if (frag[i][d] != 0)
                send(d, fragment(d, i));
        }
    }
    for (int i = 0; i < 2; ++i) {
        if (ins[i]->empty())
            continue;
        // A head none of whose fragments kept its slot (head 1, merged
        // whole into head 0's fragment) returns the slot to the pool.
        if (!reused[i])
            free_.push_back(head[i]);
        ins[i]->pop_front();
        --live_;
    }
    if (ins[0]->empty() && ins[1]->empty())
        occupied_[s] &= ~(std::uint64_t{1} << unit);
}

void
ShuffleNetwork::retireSlot(Slot v)
{
    ShuffleVector &sv = pool_[v];
    for (auto [s, u] : sv.path)
        --in_flight_[s][u];
    sv.path.clear(); // The slot keeps the capacity for reuse.
}

void
ShuffleNetwork::pop(int port)
{
    CAPSTAN_DCHECK(port >= 0 && port < cfg_.ports);
    Fifo &out = outputs_[port];
    free_.push_back(out.front());
    out.pop_front();
    --delivered_;
    if (out.empty())
        delivered_ports_.reset(port);
}

std::optional<ShuffleVector>
ShuffleNetwork::tryEject(int port)
{
    CAPSTAN_DCHECK(port >= 0 && port < cfg_.ports);
    if (outputs_[port].empty())
        return std::nullopt;
    std::optional<ShuffleVector> ejected(front(port));
    pop(port);
    return ejected;
}

} // namespace capstan::sim
