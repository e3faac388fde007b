#include "lang/machine.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "common/check.hpp"
#include "common/interrupt.hpp"

namespace capstan::lang {

namespace {

/** A uid's tile tag sits above its pending-slot bits. */
constexpr int kUidTileShift = 40;
constexpr std::uint64_t kUidSlotMask =
    (std::uint64_t{1} << kUidTileShift) - 1;

int
portCount(int tiles)
{
    return static_cast<int>(std::bit_ceil(
        static_cast<unsigned>(std::max(2, tiles))));
}

sim::ShuffleConfig
shuffleConfigFor(const CapstanConfig &cfg, int tiles)
{
    // Tile, port and merge-unit indices travel as int8_t
    // (Token::lane_tile, the shuffle's paths). Checked before the
    // shuffle is built, whose own port check would fire first.
    CAPSTAN_CHECK(tiles > 0 && tiles <= sim::kMaxTiles,
                  "a machine has 1 to sim::kMaxTiles tiles");
    return {.mode = cfg.merge, .ports = portCount(tiles)};
}

} // namespace

Machine::Machine(const CapstanConfig &cfg, int tiles)
    : cfg_(cfg),
      dram_(cfg.dram),
      shuffle_(shuffleConfigFor(cfg, tiles))
{
    tiles_.resize(tiles);
    spmus_.reserve(tiles);
    ags_.reserve(tiles);
    // Without Capstan's sparse extensions the AGs have no pending-burst
    // tracking: every remote update round-trips to DRAM individually.
    int ag_entries = cfg.spmu.sparse_support ? 64 : 1;
    ag_busy_until_.assign(tiles, 0);
    completions_.resize(tiles);
    for (int t = 0; t < tiles; ++t) {
        spmus_.push_back(
            std::make_unique<sim::SparseMemoryUnit>(cfg.spmu));
        ags_.push_back(
            std::make_unique<sim::AddressGenerator>(dram_, ag_entries));
    }
}

void
Machine::pushInput(int t, int s, const Token &token)
{
    Tile &tile = tiles_[t];
    tile.stages[s].in.push_back(token);
    addWork(tile, 1);
}

void
Machine::popInput(Tile &tile, Stage &st)
{
    st.in.pop_front();
    addWork(tile, -1);
    if (&st == tile.stages.data())
        pull(tile);
}

void
Machine::pull(Tile &tile)
{
    if (const Token *token = tile.source.next()) {
        tile.stages.front().in.push_back(*token);
        addWork(tile, 1);
    }
}

void
Machine::addWork(Tile &tile, std::int64_t delta)
{
    bool was_busy = tile.work != 0;
    tile.work += delta;
    tile_work_ += delta;
    if (was_busy != (tile.work != 0))
        busy_tiles_.assign(static_cast<int>(&tile - tiles_.data()),
                           tile.work != 0);
}

void
Machine::setReduceGroups(Tile &tile, Stage &st, int groups)
{
    int delta = (groups > 0 ? 1 : 0) - (st.reduce_groups > 0 ? 1 : 0);
    tile.reducing += delta;
    reducing_ += delta;
    st.reduce_groups = groups;
}

std::uint64_t
Machine::nextUid(int t) const
{
    const Tile &tile = tiles_[static_cast<std::size_t>(t)];
    std::uint64_t slot = tile.free_slots.empty() ? tile.pending.size()
                                                 : tile.free_slots.back();
    return (static_cast<std::uint64_t>(t + 1) << kUidTileShift) | slot;
}

void
Machine::issue(int t, int s, std::uint64_t uid, int parts,
               Cycle ready_floor)
{
    CAPSTAN_DCHECK(uid == nextUid(t));
    Tile &tile = tiles_[t];
    if (!tile.free_slots.empty()) {
        tile.free_slots.pop_back();
    } else {
        // Grow by doubling, as RediSearch's sparseVector::append does.
        if (tile.pending.size() == tile.pending.capacity())
            tile.pending.reserve(
                std::max<std::size_t>(16, 2 * tile.pending.capacity()));
        tile.pending.emplace_back();
    }
    Stage &st = tile.stages[s];
    Pending &p = tile.pending[uid & kUidSlotMask];
    p.stage = s;
    p.remaining = parts;
    p.ready_floor = ready_floor;
    p.token = st.in.front();
    ++st.in_flight;
    ++in_flight_;
    popInput(tile, st);
    tile.last_active = now_;
}

bool
Machine::enqueue(int t, const sim::AccessVector &av,
                 std::span<const std::uint64_t> uids)
{
    if (spmus_[t]->tryEnqueue(av)) {
        busy_spmus_.set(t);
        Completion &done = completions_[t].push_back_slot();
        done.vec_id = av.id;
        done.count = static_cast<int>(uids.size());
        std::copy(uids.begin(), uids.end(), done.uid.begin());
        return true;
    }
    return false;
}

bool
Machine::stageHasRoom(int t, int s) const
{
    if (s + 1 >= static_cast<int>(chain_.size()))
        return true; // Sink output is the void.
    return tiles_[t].stages[s + 1].in.size() < kQueueCap;
}

void
Machine::advance(int t, int s, Token token, Cycle extra_latency)
{
    Tile &tile = tiles_[t];
    tile.last_active = now_;
    token.ready_at = now_ + extra_latency + cfg_.network_hop_latency;
    if (s + 1 < static_cast<int>(chain_.size()))
        pushInput(t, s + 1, token);
}

void
Machine::deliverPending(std::uint64_t uid)
{
    int t = static_cast<int>(uid >> kUidTileShift) - 1;
    Tile &tile = tiles_[t];
    auto slot = static_cast<std::uint32_t>(uid & kUidSlotMask);
    Pending &p = tile.pending[slot];
    CAPSTAN_DCHECK(p.remaining > 0, "delivery to a free pending slot");
    if (--p.remaining > 0)
        return;
    tile.free_slots.push_back(slot);
    --in_flight_;
    Stage &st = tile.stages[p.stage];
    --st.in_flight;
    ++st.tokens_out;
    // advance() copies the token and never touches the table.
    Cycle extra = p.ready_floor > now_ ? p.ready_floor - now_ : 0;
    advance(t, p.stage, p.token, extra);
}

void
Machine::stepTile(int t)
{
    Tile &tile = tiles_[t];
    int n = static_cast<int>(chain_.size());
    // Walk sink -> source so a token advances at most one stage/cycle.
    for (int s = n - 1; s >= 0; --s) {
        Stage &st = tile.stages[s];
        const StageSpec &spec = chain_[s];
        switch (spec.kind) {
          case StageKind::Sink: {
            if (st.in.empty() || st.in.front().ready_at > now_)
                break;
            Token tok = st.in.front();
            popInput(tile, st);
            tile.last_active = now_;
            ++st.tokens_out;
            ++totals_.tokens;
            // Lane-occupancy stats are taken at the loop body (the
            // first Map stage); chains without one count here.
            if (s == lane_stage_) {
                int lanes = tok.validLanes();
                totals_.active_lane_cycles += lanes;
                totals_.vector_idle_lane_cycles +=
                    sim::kMaxLanes - lanes;
            }
            break;
          }
          case StageKind::Map: {
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                !stageHasRoom(t, s)) {
                break;
            }
            Token tok = st.in.front();
            popInput(tile, st);
            if (s == lane_stage_) {
                int lanes = tok.validLanes();
                totals_.active_lane_cycles += lanes;
                totals_.vector_idle_lane_cycles +=
                    sim::kMaxLanes - lanes;
            }
            advance(t, s, tok, spec.latency);
            ++st.tokens_out;
            break;
          }
          case StageKind::Scan:
          case StageKind::DataScan: {
            if (st.scan_skip_remaining > 0) {
                // Traversing all-zero windows: one scanner cycle each,
                // charged to the Scan stall class.
                --st.scan_skip_remaining;
                totals_.scan_empty_cycles += 1;
                tile.last_active = now_;
                if (!st.burning())
                    addWork(tile, -1);
                break;
            }
            if (st.scan_occupied > 0) {
                // Draining a window wider than the output vectorization
                // (or a slow data-scan sweep): busy, not a Scan stall.
                --st.scan_occupied;
                tile.last_active = now_;
                if (st.scan_occupied == 0)
                    addWork(tile, -1);
                break;
            }
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                !stageHasRoom(t, s)) {
                break;
            }
            Token tok = st.in.front();
            popInput(tile, st);
            // Empty windows preceding this token cost a cycle each.
            if (tok.scan_skip > 0)
                st.scan_skip_remaining += tok.scan_skip;
            Cycle occupancy = 1;
            if (spec.kind == StageKind::Scan) {
                int v = std::max(1, cfg_.scanner.outputs);
                occupancy = (tok.validLanes() + v - 1) / v;
            } else {
                // Data scanner: advance through scan_elems dense
                // elements at data_elements per cycle to locate the
                // next non-zero. The token's lanes are downstream
                // loop-body work, not scanner outputs, so they do not
                // gate the scan rate.
                int e = std::max(1, cfg_.scanner.data_elements);
                occupancy = std::max<Cycle>(
                    1, (tok.scan_elems + e - 1) / e);
            }
            if (occupancy > 1)
                st.scan_occupied += static_cast<std::int64_t>(
                    occupancy - 1);
            if (st.burning())
                addWork(tile, 1);
            if (tok.validLanes() > 0) {
                advance(t, s, tok, spec.latency);
                ++st.tokens_out;
            } else {
                tile.last_active = now_;
            }
            break;
          }
          case StageKind::Spmu: {
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                spmus_[t]->refuseIfFull()) {
                break;
            }
            const Token &tok = st.in.front();
            sim::AccessVector av;
            av.id = nextUid(t);
            for (int l = 0; l < sim::kMaxLanes; ++l) {
                if (tok.valid_mask & (1u << l)) {
                    av.lane[l].valid = true;
                    av.lane[l].addr = tok.addr[l] + spec.addr_offset;
                    av.lane[l].op = spec.op;
                }
            }
            if (!enqueue(t, av, std::span(&av.id, 1)))
                break;
            issue(t, s, av.id, 1);
            break;
          }
          case StageKind::SpmuCross: {
            if (st.in.empty() || st.in.front().ready_at > now_)
                break;
            const Token &tok = st.in.front();
            if (cfg_.merge == sim::MergeMode::None &&
                sim::isReadOnly(spec.op)) {
                // Without a shuffle network, remote *reads* stay
                // on-chip over the static network (duplication and
                // buffering, Section 5), but pay a serialized
                // request/reply leg: remote lanes occupy the memory
                // twice. Mutations cannot be duplicated and take the
                // DRAM path below. Both legs credit one access.
                sim::AccessVector av;
                av.id = nextUid(t);
                sim::AccessVector reply;
                reply.id = av.id;
                int remote = 0;
                for (int l = 0; l < sim::kMaxLanes; ++l) {
                    if (!(tok.valid_mask & (1u << l)))
                        continue;
                    av.lane[l].valid = true;
                    av.lane[l].addr = tok.addr[l] + spec.addr_offset;
                    av.lane[l].op = spec.op;
                    int dst = tok.lane_tile[l];
                    if (dst >= 0 && dst != t) {
                        reply.lane[l] = av.lane[l];
                        ++remote;
                    }
                }
                if (spmus_[t]->occupancy() + (remote > 0 ? 2 : 1) >
                        cfg_.spmu.queue_depth ||
                    !enqueue(t, av, std::span(&av.id, 1))) {
                    break;
                }
                int parts = 1;
                if (remote > 0 && enqueue(t, reply, std::span(&av.id, 1)))
                    parts = 2;
                issue(t, s, av.id, parts);
                break;
            }
            if (cfg_.merge == sim::MergeMode::None) {
                // No shuffle network: lanes owned by this tile still
                // hit the local memory; only genuinely remote updates
                // round-trip through DRAM atomics (Table 11, "None"
                // columns). Without Capstan's burst-tracking AGs the
                // round-trips also serialize.
                sim::AccessVector av;
                av.id = nextUid(t);
                int local = 0;
                std::array<std::uint64_t, sim::kMaxLanes> remote{};
                std::size_t n_remote = 0;
                for (int l = 0; l < sim::kMaxLanes; ++l) {
                    if (!(tok.valid_mask & (1u << l)))
                        continue;
                    int dst = tok.lane_tile[l];
                    if (dst < 0 || dst == t) {
                        av.lane[l].valid = true;
                        av.lane[l].addr =
                            tok.addr[l] + spec.addr_offset;
                        av.lane[l].op = spec.op;
                        ++local;
                    } else {
                        remote[n_remote++] =
                            (static_cast<std::uint64_t>(
                                 static_cast<std::uint8_t>(dst))
                             << 26) |
                            (static_cast<std::uint64_t>(
                                 tok.addr[l] + spec.addr_offset) *
                             4);
                    }
                }
                Cycle done = now_;
                if (n_remote > 0) {
                    Cycle start = now_;
                    if (!cfg_.spmu.sparse_support)
                        start = std::max(start, ag_busy_until_[t]);
                    done = ags_[t]->atomicVector(
                        std::span(remote.data(), n_remote), start);
                    if (!cfg_.spmu.sparse_support)
                        ag_busy_until_[t] = done;
                }
                if (local > 0) {
                    if (!enqueue(t, av, std::span(&av.id, 1)))
                        break;
                    issue(t, s, av.id, 1, done);
                } else {
                    Token moved = tok;
                    popInput(tile, st);
                    advance(t, s, moved, done - now_);
                    ++st.tokens_out;
                }
                break;
            }
            // A vector with a lane bound for another tile enters the
            // butterfly, so a full input channel refuses it; refuse
            // before building it. An all-local one bypasses the channel.
            bool all_local = true;
            for (std::uint32_t lanes = tok.valid_mask; lanes != 0;
                 lanes &= lanes - 1) {
                int dst = tok.lane_tile[std::countr_zero(lanes)];
                all_local = all_local && (dst < 0 || dst >= tiles() ||
                                          dst == t);
            }
            if (!all_local && shuffle_.inputFull(t))
                break;
            std::uint64_t uid = nextUid(t);
            sim::ShuffleVector sv;
            sv.id = uid;
            int valid = 0;
            for (int l = 0; l < sim::kMaxLanes; ++l) {
                if (tok.valid_mask & (1u << l)) {
                    sv.valid[l] = true;
                    sv.addr[l] = tok.addr[l] + spec.addr_offset;
                    int dst = tok.lane_tile[l];
                    sv.dst_port[l] = (dst >= 0 && dst < tiles()) ? dst
                                                                 : t;
                    sv.tag[l] = uid;
                    ++valid;
                }
            }
            if (valid == 0) {
                Token moved = tok;
                popInput(tile, st);
                advance(t, s, moved, 0);
                break;
            }
            if (!shuffle_.tryInject(t, sv))
                break;
            issue(t, s, uid, valid);
            break;
          }
          case StageKind::DramStream: {
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                !stageHasRoom(t, s)) {
                break;
            }
            Token tok = st.in.front();
            popInput(tile, st);
            Cycle extra = spec.latency;
            if (tok.bytes > 0) {
                std::uint64_t bytes = tok.bytes;
                if (cfg_.dram.compression && stream_compression_ > 1.0)
                    bytes = std::max<std::uint64_t>(
                        1, static_cast<std::uint64_t>(
                               bytes / stream_compression_));
                Cycle done = dram_.streamAccess(bytes, now_);
                extra += done - now_;
            }
            advance(t, s, tok, extra);
            ++st.tokens_out;
            break;
          }
          case StageKind::Reduce: {
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                !stageHasRoom(t, s)) {
                break;
            }
            Token tok = st.in.front();
            popInput(tile, st);
            tile.last_active = now_;
            if (tok.end_group)
                setReduceGroups(tile, st, st.reduce_groups + 1);
            if (st.reduce_groups >= sim::kMaxLanes) {
                Token out = Token::compute(st.reduce_groups);
                setReduceGroups(tile, st, 0);
                advance(t, s, out, spec.latency);
                ++st.tokens_out;
            }
            break;
          }
        }
    }
}

bool
Machine::workRemains() const
{
    return tile_work_ > 0 || reducing_ > 0 || in_flight_ > 0 ||
           !shuffle_.empty();
}

bool
Machine::workRemainsScan() const
{
    if (!shuffle_.empty())
        return true;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        if (!spmus_[t]->empty())
            return true;
        for (const Pending &p : tiles_[t].pending) {
            if (p.remaining > 0)
                return true;
        }
        for (const Stage &st : tiles_[t].stages) {
            if (!st.in.empty() || st.burning() || st.reduce_groups > 0)
                return true;
        }
    }
    return false;
}

bool
Machine::countersMatchScan() const
{
    std::int64_t tile_work = 0;
    int reducing = 0;
    std::uint64_t in_flight = 0;
    for (std::size_t t = 0; t < tiles_.size(); ++t) {
        const Tile &tile = tiles_[t];
        std::int64_t work = 0;
        int tile_reducing = 0;
        std::vector<int> stage_in_flight(tile.stages.size(), 0);
        for (const Pending &p : tile.pending) {
            if (p.remaining > 0) {
                ++stage_in_flight[static_cast<std::size_t>(p.stage)];
                ++in_flight;
            }
        }
        // The source ring holds the token a live stream last yielded.
        if (!tile.stages.empty() &&
            tile.stages.front().in.size() != (tile.source ? 1u : 0u)) {
            return false;
        }
        for (std::size_t s = 0; s < tile.stages.size(); ++s) {
            const Stage &st = tile.stages[s];
            work += static_cast<std::int64_t>(st.in.size()) +
                    (st.burning() ? 1 : 0);
            tile_reducing += st.reduce_groups > 0 ? 1 : 0;
            if (st.in_flight != stage_in_flight[s])
                return false;
        }
        auto i = static_cast<int>(t);
        if (tile.work != work || tile.reducing != tile_reducing ||
            completions_[t].empty() != spmus_[t]->empty() ||
            busy_tiles_.test(i) != (work != 0) ||
            busy_spmus_.test(i) != !completions_[t].empty()) {
            return false;
        }
        tile_work += work;
        reducing += tile_reducing;
    }
    return tile_work_ == tile_work && reducing_ == reducing &&
           in_flight_ == in_flight && workRemains() == workRemainsScan();
}

Cycle
Machine::runPhase(const std::vector<StageSpec> &chain,
                  const PhaseSource &source, Cycle max_cycles)
{
    CAPSTAN_CHECK(!chain.empty(), "runPhase() needs a chain of stages");
    // Each phase counts its own stage outputs. A phase that threw may
    // also have left tokens, burns, groups and unfinished streams:
    // clear them, keeping each ring's buffer. An
    // access it left in flight cannot be cleared (a SpMU or the shuffle
    // holds it), so there must be none; a cancelled job, which unwinds
    // with some, drops its machine.
    CAPSTAN_DCHECK(in_flight_ == 0, "a phase started with accesses in flight");
    chain_ = chain;
    auto map = std::find_if(chain_.begin(), chain_.end(),
                            [](const StageSpec &spec) {
                                return spec.kind == StageKind::Map;
                            });
    lane_stage_ = static_cast<int>(
        (map != chain_.end() ? map : chain_.end() - 1) - chain_.begin());
    for (Tile &tile : tiles_) {
        if (tile.stages.size() < chain_.size())
            tile.stages.resize(chain_.size());
        for (Stage &st : tile.stages) {
            st.in.clear();
            st.scan_skip_remaining = 0;
            st.scan_occupied = 0;
            st.reduce_groups = 0;
            st.tokens_out = 0;
        }
        tile.source = {};
        addWork(tile, -tile.work);
        reducing_ -= tile.reducing;
        tile.reducing = 0;
    }
    // Make and prime the streams in tile order: a source may draw on
    // shared state (a seeded RNG) as it makes each one.
    for (int t = 0; t < tiles(); ++t) {
        tiles_[t].source = source(t);
        pull(tiles_[t]);
    }

    Cycle start = now_;
    for (;;) {
        // Every counter is cross-checked against the scan it replaced.
        CAPSTAN_DCHECK(countersMatchScan(),
                       "a work counter disagrees with its scan");
        if (!workRemains())
            break;
        // Cooperative cancellation (common/interrupt.hpp): the engine
        // arms a token around each job; polling it here lets
        // capstan-serve abort an in-flight simulation at a step
        // boundary. One relaxed pointer load when no token is armed —
        // and results are byte-identical whenever the poll does not
        // throw.
        common::pollCancel();
        CAPSTAN_CHECK(now_ - start <= max_cycles,
                      "Machine::runPhase exceeded its watchdog: the "
                      "phase is not draining");

        // A tile with no queued token and no burn would step as a no-op.
        // Stepping a tile changes only its own work, so the busy mask
        // visits exactly the tiles an ascending scan would.
        busy_tiles_.forEach([&](int t) {
            ++stepped_tiles_;
            stepTile(t);
        });

        // Shuffle network: move vectors a stage (returning the credits
        // of the vectors it delivers), then hand each port's delivered
        // vectors, read in place, to the owning tile's SpMU. A vector
        // the SpMU refuses waits at its output.
        shuffle_.step();
        shuffle_.deliveredPorts().forEach([&](int p) {
            CAPSTAN_DCHECK(p < tiles(), "a vector delivered past the tiles");
            // A full SpMU refuses before the vector is built, so a
            // refused attempt takes no vector id.
            while (shuffle_.deliveredPorts().test(p) &&
                   !spmus_[p]->refuseIfFull()) {
                const sim::ShuffleVector &sv = shuffle_.front(p);
                sim::AccessVector av;
                av.id = next_vec_id_++;
                std::array<std::uint64_t, sim::kMaxLanes> uids{};
                std::size_t n = 0;
                auto lanes = static_cast<std::uint32_t>(sv.valid.to_ulong());
                for (; lanes != 0; lanes &= lanes - 1) {
                    int l = std::countr_zero(lanes);
                    std::uint64_t uid = sv.tag[l];
                    const Tile &origin =
                        tiles_[(uid >> kUidTileShift) - 1];
                    const Pending &pend = origin.pending[uid & kUidSlotMask];
                    CAPSTAN_DCHECK(pend.remaining > 0);
                    av.lane[l].valid = true;
                    av.lane[l].addr = sv.addr[l];
                    av.lane[l].op = chain_[pend.stage].op;
                    uids[n++] = uid;
                }
                if (!enqueue(p, av, std::span(uids.data(), n)))
                    break;
                shuffle_.pop(p);
            }
        });

        // SpMUs: advance and resolve completions. An empty SpMU (no
        // completion record) would step as a no-op; a SpMU's dequeues
        // change only its own record FIFO.
        busy_spmus_.forEach([&](int t) {
            sim::SparseMemoryUnit &spmu = *spmus_[t];
            spmu.step();
            while (auto cv = spmu.tryDequeue()) {
                const Completion &done = completions_[t].front();
                CAPSTAN_DCHECK(done.vec_id == cv->id,
                               "a SpMU dequeued out of enqueue order");
                for (int i = 0; i < done.count; ++i)
                    deliverPending(done.uid[i]);
                completions_[t].pop_front();
            }
            if (completions_[t].empty())
                busy_spmus_.reset(t);
        });

        // Flush partially filled reductions once their upstream drained:
        // no token or burn up to the Reduce, no access in flight before it.
        for (int t = 0; reducing_ > 0 && t < tiles(); ++t) {
            Tile &tile = tiles_[t];
            if (tile.reducing == 0)
                continue;
            int upstream_in_flight = 0;
            for (int s = 0; s < static_cast<int>(chain_.size()); ++s) {
                Stage &st = tile.stages[s];
                const StageSpec &spec = chain_[s];
                bool flush = spec.kind == StageKind::Reduce &&
                             st.reduce_groups > 0 && st.in.empty() &&
                             upstream_in_flight == 0;
                for (int u = 0; u <= s && flush; ++u) {
                    const Stage &up = tile.stages[u];
                    if (!up.in.empty() || up.burning())
                        flush = false;
                }
                if (flush && stageHasRoom(t, s)) {
                    Token out = Token::compute(st.reduce_groups);
                    setReduceGroups(tile, st, 0);
                    advance(t, s, out, spec.latency);
                    ++st.tokens_out;
                }
                upstream_in_flight += st.in_flight;
            }
        }

        ++now_;
    }

    Cycle cycles = now_ - start;
    for (const Tile &tile : tiles_) {
        Cycle finish = std::max(tile.last_active, start);
        bool had_work = false;
        for (const Stage &st : tile.stages)
            had_work = had_work || st.tokens_out > 0;
        if (had_work) {
            totals_.imbalance_lane_cycles +=
                static_cast<double>(cycles - (finish - start)) *
                sim::kMaxLanes;
        }
    }
    totals_.cycles += cycles;
    return cycles;
}

void
Machine::setStreamCompression(double ratio)
{
    stream_compression_ = std::max(1.0, ratio);
}

sim::SpmuStats
Machine::spmuTotals() const
{
    sim::SpmuStats sum;
    for (const auto &spmu : spmus_) {
        const sim::SpmuStats &s = spmu->stats();
        sum.cycles += s.cycles;
        sum.grants += s.grants;
        sum.vectors_in += s.vectors_in;
        sum.vectors_out += s.vectors_out;
        sum.enqueue_stalls += s.enqueue_stalls;
        sum.elided_reads += s.elided_reads;
        sum.splits += s.splits;
    }
    return sum;
}

} // namespace capstan::lang
