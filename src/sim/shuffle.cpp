#include "sim/shuffle.hpp"

#include <bit>
#include <utility>

#include "common/check.hpp"

namespace capstan::sim {

namespace {

/** Per-channel staging buffer depth between butterfly stages. */
constexpr std::size_t kChannelDepth = 4;

/**
 * Move @p head into @p out without copying or freeing a path buffer:
 * out takes head's path, and head's slot keeps out's old buffer for
 * its next occupant.
 */
void
moveInto(ShuffleVector &out, ShuffleVector &head)
{
    auto path = std::move(head.path);
    out = head; // Every field but the path, which is now empty.
    out.path.swap(path);
    head.path.swap(path);
}

} // namespace

int
ShuffleVector::validCount() const
{
    int n = 0;
    for (bool v : valid)
        n += v ? 1 : 0;
    return n;
}

ShuffleNetwork::ShuffleNetwork(const ShuffleConfig &cfg, int lanes)
    : cfg_(cfg), lanes_(lanes),
      lane_mask_(lanes >= 32 ? ~std::uint32_t{0}
                             : (std::uint32_t{1} << lanes) - 1)
{
    CAPSTAN_CHECK(cfg.ports >= 2 && std::has_single_bit(unsigned(cfg.ports)));
    CAPSTAN_CHECK(lanes > 0 && lanes <= kMaxLanes);
    stages_ = std::countr_zero(unsigned(cfg.ports));
    // Stage buffers never hold more than kChannelDepth vectors. Outputs
    // are unbounded, but a caller that ejects every cycle finds at most
    // a failed merge's two vectors plus a bypass there.
    channels_.assign(stages_,
                     std::vector<Fifo>(cfg.ports, Fifo(kChannelDepth)));
    outputs_.assign(cfg.ports, Fifo(kChannelDepth));
    in_flight_.assign(stages_, std::vector<int>(cfg.ports / 2, 0));
    stage_live_.assign(stages_, 0);
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
        return lanes_;
      case MergeMode::None:
      default:
        return -1; // Merging disabled entirely.
    }
}

bool
ShuffleNetwork::tryInject(int port, const ShuffleVector &v)
{
    CAPSTAN_DCHECK(port >= 0 && port < cfg_.ports);
    // Pure bypass: every lane already destined for this port's memory.
    bool all_local = true;
    for (int l = 0; l < lanes_; ++l) {
        if (v.valid[l] && v.dst_port[l] != port)
            all_local = false;
    }
    if (all_local) {
        outputs_[port].push_back(v);
        ++delivered_;
        ++stats_.injected;
        ++stats_.bypassed;
        ++stats_.ejected;
        return true;
    }
    Fifo &ch = channels_[0][port];
    if (ch.size() >= kChannelDepth)
        return false;
    ch.push_back(v);
    ++live_;
    ++stage_live_[0];
    ++stats_.injected;
    return true;
}

bool
ShuffleNetwork::planMerge(std::uint32_t a, std::uint32_t b,
                          std::array<std::int8_t, kMaxLanes> &place) const
{
    int shift = shiftLimit();
    if (shift < 0)
        return false;
    // a's entries stay put (they already occupy their positional
    // lanes); b's lanes past the network width are not carried over.
    std::uint32_t free = ~a & lane_mask_;
    std::uint32_t todo = b & lane_mask_;
    while (todo != 0) {
        int l = std::countr_zero(todo);
        todo &= todo - 1;
        int p = -1;
        for (int d = 0; d <= shift && p < 0; ++d) {
            if (l - d >= 0 && ((free >> (l - d)) & 1))
                p = l - d;
            else if (d > 0 && l + d < lanes_ && ((free >> (l + d)) & 1))
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
    ++stats_.cycles;
    if (live_ == 0)
        return; // Nothing buffered between stages: stepping moves nothing.
    // Walk stages from last to first so a vector advances one stage per
    // cycle (moving the later stages first frees room for earlier ones).
    // A stage without input, and a merge unit whose two inputs are both
    // empty, would move nothing: skip them.
    for (int s = stages_ - 1; s >= 0; --s) {
        CAPSTAN_DCHECK(stage_live_[s] == bufferedScan(s));
        if (stage_live_[s] == 0)
            continue;
        int bit = stages_ - 1 - s; // MSB first (Fig. 3e).
        int group = cfg_.ports >> s;
        int half = group / 2;
        const std::vector<Fifo> &in = channels_[s];
        for (int base = 0; base < cfg_.ports; base += group) {
            for (int off = 0; off < half; ++off) {
                int p0 = base + off;
                if (in[p0].empty() && in[p0 + half].empty())
                    continue;
                stepUnit(s, (base / group) * half + off, p0, p0 + half,
                         bit);
            }
        }
    }
}

int
ShuffleNetwork::bufferedScan(int s) const
{
    int n = 0;
    for (const Fifo &ch : channels_[s])
        n += static_cast<int>(ch.size());
    return n;
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
    // Lanes past the network width are not examined, so they stay
    // valid on both sides.
    std::uint32_t frag[2][2] = {{0, 0}, {0, 0}};
    std::uint64_t frag_id[2][2] = {{0, 0}, {0, 0}};
    bool split[2] = {false, false};
    for (int i = 0; i < 2; ++i) {
        if (ins[i]->empty())
            continue;
        const ShuffleVector &head = ins[i]->front();
        std::uint32_t valid = 0;
        std::uint32_t high = 0;
        for (int l = 0; l < kMaxLanes; ++l) {
            if (!head.valid[l])
                continue;
            valid |= 1u << l;
            if (l < lanes_ && ((head.dst_port[l] >> bit) & 1))
                high |= 1u << l;
        }
        frag[i][0] = valid & ~high;
        frag[i][1] = high | (valid & ~lane_mask_);
        split[i] = frag[i][0] != 0 && frag[i][1] != 0;
        if (split[i]) {
            // A real split: both halves need distinct ids so reply
            // bookkeeping stays unambiguous.
            frag_id[i][0] = next_merged_id_++;
            frag_id[i][1] = next_merged_id_++;
        } else {
            frag_id[i][0] = frag_id[i][1] = head.id;
        }
    }

    // Plan: merge the fragments heading the same way. Ids and merge
    // statistics are consumed here even if the commit is abandoned.
    bool merged[2] = {false, false};
    std::uint64_t merged_id[2] = {0, 0};
    std::array<std::int8_t, kMaxLanes> place[2] = {};
    std::size_t outputs[2] = {0, 0};
    for (int d = 0; d < 2; ++d) {
        if (frag[0][d] != 0 && frag[1][d] != 0) {
            ++stats_.merges_attempted;
            merged[d] = planMerge(frag[0][d], frag[1][d], place[d]);
            if (merged[d]) {
                ++stats_.merges_succeeded;
                merged_id[d] = next_merged_id_++;
            }
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

    // Commit: build each output in its sink slot, low side first. A
    // head whose lanes all go one way is moved into its fragment; a
    // split head is copied for its low fragment and moved into its
    // high one, its last use. Fragments keep the head's fields on
    // their invalid lanes.
    auto emit = [&](int d, int from) -> ShuffleVector & {
        Fifo &sink = last_stage ? outputs_[out_port[d]]
                                : channels_[s + 1][out_port[d]];
        ShuffleVector &out = sink.push_back_slot();
        ShuffleVector &head = ins[from]->front();
        if (split[from] && d == 0)
            out = head;
        else
            moveInto(out, head);
        for (int l = 0; l < kMaxLanes; ++l)
            out.valid[l] = (frag[from][d] >> l) & 1;
        out.id = frag_id[from][d];
        return out;
    };
    auto finish = [&](ShuffleVector &out) {
        out.path.emplace_back(static_cast<std::int8_t>(s),
                              static_cast<std::int8_t>(unit));
        ++in_flight_[s][unit];
        if (last_stage) {
            ++delivered_;
            ++stats_.ejected;
        } else {
            ++live_;
            ++stage_live_[s + 1];
        }
    };
    for (int d = 0; d < 2; ++d) {
        if (merged[d]) {
            ShuffleVector &out = emit(d, 0);
            const ShuffleVector &other = ins[1]->front();
            std::uint32_t lanes = frag[1][d] & lane_mask_;
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
            finish(out);
            continue;
        }
        for (int i = 0; i < 2; ++i) {
            if (frag[i][d] != 0)
                finish(emit(d, i));
        }
    }
    for (Fifo *in : ins) {
        if (!in->empty()) {
            in->pop_front();
            --live_;
            --stage_live_[s];
        }
    }
}

std::optional<ShuffleVector>
ShuffleNetwork::tryEject(int port)
{
    CAPSTAN_DCHECK(port >= 0 && port < cfg_.ports);
    Fifo &out = outputs_[port];
    if (out.empty())
        return std::nullopt;
    ShuffleVector &v = out.front();
    if (auto_retire_) {
        for (auto [s, u] : v.path)
            --in_flight_[s][u];
        v.path.clear(); // The slot keeps the capacity for reuse.
    } else {
        paths_[v.id] = v.path;
    }
    std::optional<ShuffleVector> ejected(v);
    out.pop_front();
    --delivered_;
    return ejected;
}

void
ShuffleNetwork::retire(std::uint64_t id)
{
    auto it = paths_.find(id);
    if (it == paths_.end())
        return;
    for (auto [s, u] : it->second)
        --in_flight_[s][u];
    paths_.erase(it);
}

} // namespace capstan::sim
