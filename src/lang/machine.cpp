#include "lang/machine.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <span>

#include "common/check.hpp"
#include "common/env.hpp"
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
    sim::ShuffleConfig sc = cfg.shuffle;
    sc.ports = portCount(tiles);
    return sc;
}

} // namespace

Machine::Machine(const CapstanConfig &cfg, int tiles)
    : cfg_(cfg),
      dram_(cfg.dram, cfg.clock_ghz),
      shuffle_(shuffleConfigFor(cfg, tiles)),
      scanner_(cfg.scanner),
      eject_hold_(portCount(tiles)),
      // Bisecting switch: results must be identical either way. Read
      // per construction, not cached, so a test can flip it between
      // in-process runs.
      dense_stepping_(std::getenv(common::env::kNoFastForward) != nullptr)
{
    CAPSTAN_CHECK(tiles > 0);
    tiles_.resize(tiles);
    spmus_.reserve(tiles);
    ags_.reserve(tiles);
    // Without Capstan's sparse extensions the AGs have no pending-burst
    // tracking: every atomic round-trips to DRAM individually.
    int ag_entries = cfg.sparse_support ? 64 : 1;
    ag_busy_until_.assign(tiles, 0);
    completions_.resize(tiles);
    refusals_.resize(tiles);
    for (int t = 0; t < tiles; ++t) {
        spmus_.push_back(
            std::make_unique<sim::SparseMemoryUnit>(cfg.spmu));
        ags_.push_back(
            std::make_unique<sim::AddressGenerator>(dram_, ag_entries));
    }
}

int
Machine::addStage(int tile, const StageSpec &spec)
{
    CAPSTAN_CHECK(tile >= 0 && tile < tiles());
    Tile &tl = tiles_[tile];
    std::size_t s = tl.stages.size();
    Stage &st = tl.stages.emplace_back();
    st.spec = spec;
    // Take the ring this position had in an earlier chain: its buffer is
    // already grown, so the next phase's tokens allocate nothing.
    if (s < tl.spare_rings.size())
        std::swap(st.in, tl.spare_rings[s]);
    return static_cast<int>(s);
}

void
Machine::feed(int tile, const Token &token)
{
    CAPSTAN_CHECK(tile >= 0 && tile < tiles());
    CAPSTAN_CHECK(!tiles_[tile].stages.empty(),
                  "feed() before any addStage()");
    pushInput(tile, 0, token);
}

void
Machine::feedScanWindows(int tile, const std::vector<Index> &window_pops,
                         std::uint32_t bytes_per_window)
{
    // Convert window popcounts into body tokens annotated with the
    // number of preceding all-zero windows (the Scan stage burns one
    // cycle per empty window; see sim::ScannerModel).
    int lanes = cfg_.spmu.lanes;
    std::int32_t empty_run = 0;
    std::uint32_t pending_bytes = 0;
    for (Index pop : window_pops) {
        pending_bytes += bytes_per_window;
        if (pop <= 0) {
            ++empty_run;
            continue;
        }
        Index remaining = pop;
        while (remaining > 0) {
            int v = std::min<Index>(remaining, lanes);
            Token t = Token::compute(v);
            t.scan_skip = empty_run;
            t.bytes = pending_bytes;
            pending_bytes = 0;
            empty_run = 0;
            feed(tile, t);
            remaining -= v;
        }
    }
    if (empty_run > 0 || pending_bytes > 0) {
        // Trailing empty windows still cost scanner cycles.
        Token t = Token::compute(0);
        t.valid_mask = 0;
        t.scan_skip = empty_run;
        t.bytes = pending_bytes;
        feed(tile, t);
    }
}

void
Machine::pushInput(int t, int s, const Token &token)
{
    Tile &tile = tiles_[t];
    tile.stages[s].in.push_back(token);
    ++tile.work;
    ++tile_work_;
}

void
Machine::popInput(Tile &tile, Stage &st)
{
    st.in.pop_front();
    --tile.work;
    --tile_work_;
}

void
Machine::addBurn(Tile &tile, int delta)
{
    tile.work += delta;
    tile_work_ += delta;
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
    cycle_progress_ = true;
}

bool
Machine::enqueue(int t, const sim::AccessVector &av,
                 std::span<const std::uint64_t> uids)
{
    if (spmus_[t]->tryEnqueue(av)) {
        Completion &done = completions_[t].push_back_slot();
        done.vec_id = av.id;
        done.count = static_cast<int>(uids.size());
        std::copy(uids.begin(), uids.end(), done.uid.begin());
        return true;
    }
    Refusals &r = refusals_[t];
    if (r.cycle != now_)
        r = Refusals{now_, 0};
    ++r.count;
    return false;
}

bool
Machine::stageHasRoom(int t, int s) const
{
    const Tile &tile = tiles_[t];
    if (s + 1 >= static_cast<int>(tile.stages.size()))
        return true; // Sink output is the void.
    return tile.stages[s + 1].in.size() < kQueueCap;
}

void
Machine::advance(int t, int s, Token token, Cycle extra_latency)
{
    Tile &tile = tiles_[t];
    tile.last_active = now_;
    cycle_progress_ = true;
    token.ready_at = now_ + extra_latency + cfg_.network_hop_latency;
    if (s + 1 < static_cast<int>(tile.stages.size()))
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
Machine::fireDramStage(int t, int s, const Token &tok)
{
    Stage &st = tiles_[t].stages[s];
    if (st.spec.kind == StageKind::DramStream) {
        Cycle extra = st.spec.latency;
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
        return;
    }
    CAPSTAN_DCHECK(st.spec.kind == StageKind::DramAtomic);
    std::array<std::uint64_t, sim::kMaxLanes> addrs{};
    std::size_t n = 0;
    for (int l = 0; l < cfg_.spmu.lanes; ++l) {
        if (tok.valid_mask & (1u << l))
            addrs[n++] = static_cast<std::uint64_t>(
                             tok.addr[l] + st.spec.addr_offset) *
                         4;
    }
    Cycle done =
        n == 0 ? now_
               : ags_[t]->atomicVector(std::span(addrs.data(), n), now_);
    advance(t, s, tok, done - now_);
    ++st.tokens_out;
}

int
Machine::laneCountStage(int t)
{
    Tile &tile = tiles_[t];
    if (tile.lane_count_stage >= 0)
        return tile.lane_count_stage;
    int stage = static_cast<int>(tile.stages.size()) - 1; // Sink.
    for (int s = 0; s < static_cast<int>(tile.stages.size()); ++s) {
        if (tile.stages[s].spec.kind == StageKind::Map) {
            stage = s;
            break;
        }
    }
    tile.lane_count_stage = stage;
    return stage;
}

void
Machine::stepTile(int t)
{
    Tile &tile = tiles_[t];
    int n = static_cast<int>(tile.stages.size());
    // Walk sink -> source so a token advances at most one stage/cycle.
    for (int s = n - 1; s >= 0; --s) {
        Stage &st = tile.stages[s];
        switch (st.spec.kind) {
          case StageKind::Sink: {
            if (st.in.empty() || st.in.front().ready_at > now_)
                break;
            Token tok = st.in.front();
            popInput(tile, st);
            tile.last_active = now_;
            cycle_progress_ = true;
            ++st.tokens_out;
            ++totals_.tokens;
            // Lane-occupancy stats are taken at the loop body (the
            // first Map stage); chains without one count here.
            if (s == laneCountStage(t)) {
                int lanes = tok.validLanes();
                totals_.active_lane_cycles += lanes;
                totals_.vector_idle_lane_cycles +=
                    cfg_.spmu.lanes - lanes;
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
            if (s == laneCountStage(t)) {
                int lanes = tok.validLanes();
                totals_.active_lane_cycles += lanes;
                totals_.vector_idle_lane_cycles +=
                    cfg_.spmu.lanes - lanes;
            }
            advance(t, s, tok, st.spec.latency);
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
                // Finishing the burn is an event: next cycle this stage
                // can consume again (or unblock a reduction flush), so
                // the fast-forward engine must not jump over it.
                if (!st.burning()) {
                    cycle_progress_ = true;
                    addBurn(tile, -1);
                }
                break;
            }
            if (st.scan_occupied > 0) {
                // Draining a window wider than the output vectorization
                // (or a slow data-scan sweep): busy, not a Scan stall.
                --st.scan_occupied;
                tile.last_active = now_;
                if (st.scan_occupied == 0) {
                    cycle_progress_ = true;
                    addBurn(tile, -1);
                }
                break;
            }
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                !stageHasRoom(t, s)) {
                break;
            }
            Token tok = st.in.front();
            popInput(tile, st);
            cycle_progress_ = true;
            // Empty windows preceding this token cost a cycle each.
            if (tok.scan_skip > 0)
                st.scan_skip_remaining += tok.scan_skip;
            Cycle occupancy = 1;
            if (st.spec.kind == StageKind::Scan) {
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
                addBurn(tile, 1);
            if (tok.validLanes() > 0) {
                advance(t, s, tok, st.spec.latency);
                ++st.tokens_out;
            } else {
                tile.last_active = now_;
            }
            break;
          }
          case StageKind::Spmu: {
            if (st.in.empty() || st.in.front().ready_at > now_)
                break;
            const Token &tok = st.in.front();
            sim::AccessVector av;
            av.id = nextUid(t);
            for (int l = 0; l < cfg_.spmu.lanes; ++l) {
                if (tok.valid_mask & (1u << l)) {
                    av.lane[l].valid = true;
                    av.lane[l].addr = tok.addr[l] + st.spec.addr_offset;
                    av.lane[l].op = st.spec.op;
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
            if (cfg_.shuffle.mode == sim::MergeMode::None &&
                sim::isReadOnly(st.spec.op)) {
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
                for (int l = 0; l < cfg_.spmu.lanes; ++l) {
                    if (!(tok.valid_mask & (1u << l)))
                        continue;
                    av.lane[l].valid = true;
                    av.lane[l].addr = tok.addr[l] + st.spec.addr_offset;
                    av.lane[l].op = st.spec.op;
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
            if (cfg_.shuffle.mode == sim::MergeMode::None) {
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
                for (int l = 0; l < cfg_.spmu.lanes; ++l) {
                    if (!(tok.valid_mask & (1u << l)))
                        continue;
                    int dst = tok.lane_tile[l];
                    if (dst < 0 || dst == t) {
                        av.lane[l].valid = true;
                        av.lane[l].addr =
                            tok.addr[l] + st.spec.addr_offset;
                        av.lane[l].op = st.spec.op;
                        ++local;
                    } else {
                        remote[n_remote++] =
                            (static_cast<std::uint64_t>(
                                 static_cast<std::uint8_t>(dst))
                             << 26) |
                            (static_cast<std::uint64_t>(
                                 tok.addr[l] + st.spec.addr_offset) *
                             4);
                    }
                }
                Cycle done = now_;
                if (n_remote > 0) {
                    Cycle start = now_;
                    if (!cfg_.sparse_support)
                        start = std::max(start, ag_busy_until_[t]);
                    done = ags_[t]->atomicVector(
                        std::span(remote.data(), n_remote), start);
                    if (!cfg_.sparse_support)
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
            std::uint64_t uid = nextUid(t);
            sim::ShuffleVector sv;
            sv.src_port = t;
            sv.id = uid;
            int valid = 0;
            for (int l = 0; l < cfg_.spmu.lanes; ++l) {
                if (tok.valid_mask & (1u << l)) {
                    sv.valid[l] = true;
                    sv.addr[l] = tok.addr[l] + st.spec.addr_offset;
                    int dst = tok.lane_tile[l];
                    sv.dst_port[l] = (dst >= 0 && dst < tiles()) ? dst
                                                                 : t;
                    sv.src_lane[l] = l;
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
          case StageKind::DramStream:
          case StageKind::DramAtomic: {
            if (st.in.empty() || st.in.front().ready_at > now_ ||
                !stageHasRoom(t, s)) {
                break;
            }
            Token tok = st.in.front();
            popInput(tile, st);
            fireDramStage(t, s, tok);
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
            cycle_progress_ = true;
            if (tok.end_group)
                setReduceGroups(tile, st, st.reduce_groups + 1);
            if (st.reduce_groups >= cfg_.spmu.lanes) {
                Token out = Token::compute(st.reduce_groups);
                setReduceGroups(tile, st, 0);
                advance(t, s, out, st.spec.latency);
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
           held_ > 0 || !shuffle_.empty();
}

bool
Machine::workRemainsScan() const
{
    if (!shuffle_.empty())
        return true;
    for (const auto &hold : eject_hold_) {
        if (!hold.empty())
            return true;
    }
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
        for (std::size_t s = 0; s < tile.stages.size(); ++s) {
            const Stage &st = tile.stages[s];
            work += static_cast<std::int64_t>(st.in.size()) +
                    (st.burning() ? 1 : 0);
            tile_reducing += st.reduce_groups > 0 ? 1 : 0;
            if (st.in_flight != stage_in_flight[s])
                return false;
        }
        if (tile.work != work || tile.reducing != tile_reducing ||
            completions_[t].empty() != spmus_[t]->empty()) {
            return false;
        }
        tile_work += work;
        reducing += tile_reducing;
    }
    std::uint64_t held = 0;
    for (const auto &hold : eject_hold_)
        held += hold.size();
    return tile_work_ == tile_work && reducing_ == reducing &&
           in_flight_ == in_flight && held_ == held &&
           workRemains() == workRemainsScan();
}

PhaseStats
Machine::runPhase(Cycle max_cycles)
{
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

        // Arm the progress detector: a cycle that consumes, issues, or
        // delivers nothing (scanner burns and latency waits only) lets
        // the machine fast-forward to the next event horizon below.
        cycle_progress_ = false;
        // A tile with no queued token and no burn would step as a no-op.
        for (int t = 0; t < tiles(); ++t) {
            if (tiles_[t].work == 0)
                continue;
            ++stepped_tiles_;
            stepTile(t);
        }

        // Shuffle network: move vectors a stage, then hand ejected
        // vectors to the owning tile's SpMU.
        shuffle_.step();
        if (shuffle_.hasDelivered()) {
            for (int p = 0; p < shuffle_.ports(); ++p) {
                while (auto v = shuffle_.tryEject(p)) {
                    eject_hold_[p].push_back(std::move(*v));
                    ++held_;
                }
            }
        }
        for (int p = 0; held_ > 0 && p < shuffle_.ports() && p < tiles();
             ++p) {
            while (!eject_hold_[p].empty()) {
                const sim::ShuffleVector &sv = eject_hold_[p].front();
                sim::AccessVector av;
                av.id = next_vec_id_++;
                std::array<std::uint64_t, sim::kMaxLanes> uids{};
                std::size_t n = 0;
                for (int l = 0; l < cfg_.spmu.lanes; ++l) {
                    if (!sv.valid[l])
                        continue;
                    std::uint64_t uid = sv.tag[l];
                    const Tile &origin =
                        tiles_[(uid >> kUidTileShift) - 1];
                    const Pending &pend = origin.pending[uid & kUidSlotMask];
                    CAPSTAN_DCHECK(pend.remaining > 0);
                    av.lane[l].valid = true;
                    av.lane[l].addr = sv.addr[l];
                    av.lane[l].op = origin.stages[pend.stage].spec.op;
                    uids[n++] = uid;
                }
                if (!enqueue(p, av, std::span(uids.data(), n)))
                    break;
                eject_hold_[p].pop_front();
                --held_;
                cycle_progress_ = true;
            }
        }

        // SpMUs: advance and resolve completions. An empty SpMU (no
        // completion record) would step as a no-op.
        for (int t = 0; t < tiles(); ++t) {
            if (completions_[t].empty())
                continue;
            sim::SparseMemoryUnit &spmu = *spmus_[t];
            std::uint64_t grants_before = spmu.stats().grants;
            spmu.step();
            if (spmu.stats().grants != grants_before)
                cycle_progress_ = true;
            while (auto cv = spmu.tryDequeue()) {
                cycle_progress_ = true;
                const Completion &done = completions_[t].front();
                CAPSTAN_DCHECK(done.vec_id == cv->id,
                               "a SpMU dequeued out of enqueue order");
                for (int i = 0; i < done.count; ++i)
                    deliverPending(done.uid[i]);
                completions_[t].pop_front();
            }
        }

        // Flush partially filled reductions once their upstream drained:
        // no token or burn up to the Reduce, no access in flight before it.
        for (int t = 0; reducing_ > 0 && t < tiles(); ++t) {
            Tile &tile = tiles_[t];
            if (tile.reducing == 0)
                continue;
            int upstream_in_flight = 0;
            for (int s = 0;
                 s < static_cast<int>(tile.stages.size()); ++s) {
                Stage &st = tile.stages[s];
                bool flush = st.spec.kind == StageKind::Reduce &&
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
                    advance(t, s, out, st.spec.latency);
                    ++st.tokens_out;
                }
                upstream_in_flight += st.in_flight;
            }
        }

        ++now_;
        ++stepped_cycles_;

        if (!cycle_progress_ && !dense_stepping_) {
            // Nothing observable happened: every cycle from here to the
            // horizon would be identical. Jump straight to it (capped so
            // the watchdog still fires at the same simulated cycle).
            Cycle target = nextEventCycle();
            if (target != sim::kNoEventCycle) {
                target = std::min(target, start + max_cycles + 1);
                if (target > now_)
                    fastForwardTo(target);
            }
        }
    }

    PhaseStats ps;
    ps.cycles = now_ - start;
    ps.tile_finish.reserve(tiles());
    for (const Tile &tile : tiles_) {
        Cycle finish = std::max(tile.last_active, start);
        ps.tile_finish.push_back(finish - start);
        bool had_work = false;
        for (const Stage &st : tile.stages)
            had_work = had_work || st.tokens_out > 0;
        if (had_work) {
            totals_.imbalance_lane_cycles +=
                static_cast<double>(ps.cycles - (finish - start)) *
                cfg_.spmu.lanes;
        }
    }
    totals_.cycles += ps.cycles;
    return ps;
}

Cycle
Machine::nextEventCycle() const
{
    // A busy shuffle network pins the clock (its horizon is `now_`):
    // vectors move every cycle, so never jump over it. (Network
    // transits are a few cycles; the long waits this function exists
    // for are DRAM latency and scanner burns.)
    if (shuffle_.nextEventCycle(now_) != sim::kNoEventCycle)
        return now_;

    Cycle target = sim::kNoEventCycle;
    for (const Tile &tile : tiles_) {
        // Without a queued token or a burn the tile has no wake-up.
        if (tile.work == 0)
            continue;
        // A reduction holding a partial group can flush in the very
        // iteration an upstream burn drains (reduce_groups only changes
        // on progress, so this is frozen during a jump). In that case
        // the final burn cycle must execute densely — the bulk replay
        // would miss the same-iteration flush — so the burn horizon
        // stops one cycle short of the burn's end.
        Cycle early = tile.reducing > 0 ? 1 : 0;
        for (const Stage &st : tile.stages) {
            // A burning scanner reaches its next decision (consume the
            // next window token, or unblock a reduction flush) once its
            // skip and occupancy counters drain.
            std::int64_t burn = st.scan_skip_remaining + st.scan_occupied;
            if (burn > 0)
                target = std::min(target,
                                  now_ + static_cast<Cycle>(burn) - early);
            // A stage whose head token ripens in the future wakes then.
            // Heads already ripe (ready_at < now_) are blocked on
            // capacity and wake via whichever unit frees it.
            if (!st.in.empty() && st.in.front().ready_at >= now_)
                target = std::min(target, st.in.front().ready_at);
        }
    }
    for (int t = 0; t < tiles(); ++t) {
        if (completions_[t].empty())
            continue;
        // The SpMU horizon is on its local clock, which advances once
        // per machine cycle while the unit is busy.
        const sim::SparseMemoryUnit &spmu = *spmus_[t];
        Cycle wake = spmu.nextEventCycle();
        CAPSTAN_DCHECK(wake != sim::kNoEventCycle,
                       "a non-empty SpMU must publish a horizon");
        target = std::min(target, now_ + (wake - spmu.now()));
    }
    return target;
}

void
Machine::fastForwardTo(Cycle target)
{
    // Jumps must move time forward, and only ever happen with the
    // shuffle network drained: a busy network pins the horizon to
    // `now_`, so a jump past in-flight vectors would skip their
    // per-cycle movement and corrupt the cycle counts.
    CAPSTAN_CHECK(target > now_, "fast-forward must move time forward");
    CAPSTAN_DCHECK(shuffle_.nextEventCycle(now_) == sim::kNoEventCycle,
                   "fast-forward with vectors in the shuffle network");
    Cycle skipped = target - now_;
    for (Tile &tile : tiles_) {
        if (tile.work == 0)
            continue;
        for (Stage &st : tile.stages) {
            if (!st.burning())
                continue;
            // Replay the per-cycle burn in bulk: empty windows first
            // (one Scan-stall cycle each), then occupancy. The stage is
            // "active" through its final burn cycle, exactly as the
            // dense loop would have recorded.
            auto budget = static_cast<std::int64_t>(skipped);
            std::int64_t burn_skip =
                std::min(budget, st.scan_skip_remaining);
            st.scan_skip_remaining -= burn_skip;
            totals_.scan_empty_cycles +=
                static_cast<double>(burn_skip);
            std::int64_t burn_occ =
                std::min(budget - burn_skip, st.scan_occupied);
            st.scan_occupied -= burn_occ;
            std::int64_t burned = burn_skip + burn_occ;
            if (burned > 0)
                tile.last_active =
                    std::max(tile.last_active,
                             now_ + static_cast<Cycle>(burned) - 1);
            if (!st.burning())
                addBurn(tile, -1);
        }
    }
    // The shuffle network is drained (nextEventCycle() forbids jumping
    // otherwise); an empty step only advances its cycle statistic.
    shuffle_.skipCycles(skipped);
    for (int t = 0; t < tiles(); ++t) {
        // Refused enqueues retry (and re-count) every skipped cycle:
        // those of the cycle just stepped, now_ - 1.
        const Refusals &r = refusals_[t];
        std::uint64_t stalls = r.cycle == now_ - 1 ? r.count : 0;
        Cycle busy = completions_[t].empty() ? 0 : skipped;
        if (busy > 0 || stalls > 0)
            spmus_[t]->skipCycles(busy, stalls * skipped);
    }
    now_ = target;
}

void
Machine::resetChains()
{
    CAPSTAN_DCHECK(in_flight_ == 0, "resetChains() with accesses in flight");
    for (Tile &tile : tiles_) {
        // Keep each position's ring (emptied) for the next chain.
        if (tile.spare_rings.size() < tile.stages.size())
            tile.spare_rings.resize(tile.stages.size());
        for (std::size_t s = 0; s < tile.stages.size(); ++s) {
            tile.stages[s].in.clear();
            std::swap(tile.stages[s].in, tile.spare_rings[s]);
        }
        tile.stages.clear();
        // The dropped chain takes its tokens, burns and groups along.
        tile_work_ -= tile.work;
        reducing_ -= tile.reducing;
        tile.work = 0;
        tile.reducing = 0;
        tile.lane_count_stage = -1;
    }
}

void
Machine::addBarrier(Cycle cycles)
{
    now_ += cycles;
    totals_.cycles += cycles;
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
