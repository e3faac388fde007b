#include "apps/graph.hpp"

#include <algorithm>
#include <limits>
#include <queue>

#include "workloads/tiling.hpp"

namespace capstan::apps {

using workloads::Tiling;

namespace {

/** Address-space bases so the per-vertex arrays land on distinct words. */
constexpr std::uint32_t kDistBase = 0;
constexpr std::uint32_t kPtrBase = 1u << 16;
constexpr std::uint32_t kFrontierBase = 1u << 17;

/**
 * Tile @p t's share of one traversal level: scan the tile-local
 * frontier bitset, then stream each frontier vertex's adjacency list as
 * address tokens whose lanes point at the destination owners. @p local
 * holds the tile's frontier vertices, sorted.
 */
TokenStream
levelTokens(const MatrixView &graph, const Tiling &tiling, int t,
            std::vector<Index> local, int window_bits)
{
    // Every level, every tile scans its whole local frontier
    // bit-vector: empty windows before, between, and after the set bits
    // all burn scanner cycles (the Scan class of Fig. 7).
    Index local_count = static_cast<Index>(tiling.rowsOf(t).size());
    Index total_windows = (local_count + window_bits - 1) / window_bits;
    Index prev_window = -1;
    for (Index v : local) {
        Index lv = tiling.localIndex(v);
        Index window = lv / window_bits;
        // Empty windows between the previous frontier vertex and this
        // one cost scanner cycles.
        Index skipped = prev_window < 0 ? window : window - prev_window - 1;
        prev_window = window;

        auto dsts = graph.indices(v);
        Index len = static_cast<Index>(dsts.size());
        if (len == 0) {
            Token tok;
            tok.valid_mask = 0;
            tok.scan_skip = static_cast<std::int32_t>(skipped);
            co_yield tok;
            continue;
        }
        for (Index base = 0; base < len; base += sim::kMaxLanes) {
            int lanes = chunkLanes(len, base);
            Token tok = Token::compute(lanes);
            // Destination pointer + weight per edge.
            tok.bytes = 8 * lanes + (base == 0 ? 8 : 0);
            tok.scan_skip =
                base == 0 ? static_cast<std::int32_t>(skipped) : 0;
            for (int l = 0; l < lanes; ++l) {
                Index d = dsts[base + l];
                tok.addr[l] =
                    static_cast<std::uint32_t>(tiling.localIndex(d));
                tok.lane_tile[l] =
                    static_cast<std::int8_t>(tiling.tileOf(d));
            }
            co_yield tok;
        }
    }
    // Trailing empty windows after the last frontier vertex (or the
    // whole bit-vector for tiles with an empty frontier).
    Index trailing = total_windows - (prev_window + 1);
    if (trailing > 0) {
        Token tok;
        tok.valid_mask = 0;
        tok.scan_skip = static_cast<std::int32_t>(trailing);
        co_yield tok;
    }
}

/**
 * Run one traversal level through @p chain: each tile streams its share
 * of @p frontier, which moves into the tile's stream in local order.
 */
void
runLevel(Machine &mach, const std::vector<StageSpec> &chain,
         const MatrixView &graph, const Tiling &tiling,
         const std::vector<Index> &frontier, int window_bits)
{
    std::vector<std::vector<Index>> local(tiling.tiles());
    for (Index v : frontier)
        local[tiling.tileOf(v)].push_back(v);
    mach.runPhase(chain, [&](int t) {
        std::sort(local[t].begin(), local[t].end());
        return levelTokens(graph, tiling, t, std::move(local[t]),
                           window_bits);
    });
}

} // namespace

std::vector<Index>
bfsReference(const MatrixView &graph, Index source)
{
    std::vector<Index> level(graph.rows(), -1);
    std::queue<Index> q;
    level[source] = 0;
    q.push(source);
    while (!q.empty()) {
        Index v = q.front();
        q.pop();
        for (Index d : graph.indices(v)) {
            if (level[d] < 0) {
                level[d] = level[v] + 1;
                q.push(d);
            }
        }
    }
    return level;
}

std::vector<Value>
ssspReference(const MatrixView &graph, Index source)
{
    constexpr Value inf = std::numeric_limits<Value>::infinity();
    std::vector<Value> dist(graph.rows(), inf);
    using Entry = std::pair<Value, Index>;
    std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
    dist[source] = 0;
    pq.push({0, source});
    while (!pq.empty()) {
        auto [d, v] = pq.top();
        pq.pop();
        if (d > dist[v])
            continue;
        auto idx = graph.indices(v);
        auto val = graph.values(v);
        for (std::size_t i = 0; i < idx.size(); ++i) {
            Value nd = d + val[i];
            if (nd < dist[idx[i]]) {
                dist[idx[i]] = nd;
                pq.push({nd, idx[i]});
            }
        }
    }
    return dist;
}

BfsResult
runBfs(const MatrixView &graph, Index source, const CapstanConfig &cfg,
       int tiles, bool back_pointers)
{
    BfsResult res;
    res.level.assign(graph.rows(), -1);

    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(graph.columnStream(), 0.5));
    Tiling tiling = Tiling::byWeight(graph, tiles);
    int window_bits = std::max(1, cfg.scanner.window_bits);
    // Timing, per level: scan frontier -> stream adjacency -> RMW chain.
    std::vector<StageSpec> chain = {
        {StageKind::Scan, 1},
        {StageKind::DramStream, 1},
        // Rch[d] test-and-set.
        {StageKind::SpmuCross, 1, sim::AccessOp::TestAndSet, kDistBase},
    };
    if (back_pointers) {
        // Ptr[d] write-if-zero (keep the first parent).
        chain.push_back({StageKind::SpmuCross, 1,
                         sim::AccessOp::WriteIfZero, kPtrBase});
    }
    // Fr[d] |= !Rch[d].
    chain.push_back(
        {StageKind::SpmuCross, 1, sim::AccessOp::BitOr, kFrontierBase});
    chain.push_back({StageKind::Sink});

    std::vector<Index> frontier = {source};
    res.level[source] = 0;
    Index depth = 0;
    while (!frontier.empty()) {
        // Functional expansion of this level.
        std::vector<Index> next;
        for (Index v : frontier) {
            for (Index d : graph.indices(v)) {
                if (res.level[d] < 0) {
                    res.level[d] = depth + 1;
                    next.push_back(d);
                }
            }
        }

        runLevel(mach, chain, graph, tiling, frontier, window_bits);
        frontier = std::move(next);
        ++depth;
    }
    res.timing = AppTiming::snapshot(mach);
    return res;
}

SsspResult
runSssp(const MatrixView &graph, Index source, const CapstanConfig &cfg,
        int tiles, bool back_pointers)
{
    constexpr Value inf = std::numeric_limits<Value>::infinity();
    SsspResult res;
    res.dist.assign(graph.rows(), inf);

    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(graph.columnStream(), 0.5));
    Tiling tiling = Tiling::byWeight(graph, tiles);
    int window_bits = std::max(1, cfg.scanner.window_bits);
    std::vector<StageSpec> chain = {
        {StageKind::Scan, 1},
        {StageKind::DramStream, 1},
        // nd = Dist[s] + w.
        {StageKind::Map, kMapLatency},
        // Dist[d] = min(Dist[d], nd), reporting changes.
        {StageKind::SpmuCross, 1, sim::AccessOp::MinReportChanged,
         kDistBase},
    };
    if (back_pointers) {
        chain.push_back(
            {StageKind::SpmuCross, 1, sim::AccessOp::Write, kPtrBase});
    }
    chain.push_back(
        {StageKind::SpmuCross, 1, sim::AccessOp::BitOr, kFrontierBase});
    chain.push_back({StageKind::Sink});

    // Frontier-driven Bellman-Ford: relax out-edges of improved
    // vertices until no distance changes (min-report-changed).
    std::vector<Index> frontier = {source};
    res.dist[source] = 0;
    while (!frontier.empty()) {
        std::vector<Index> next;
        std::vector<bool> queued(graph.rows(), false);
        for (Index v : frontier) {
            auto idx = graph.indices(v);
            auto val = graph.values(v);
            for (std::size_t i = 0; i < idx.size(); ++i) {
                Value nd = res.dist[v] + val[i];
                if (nd < res.dist[idx[i]]) {
                    res.dist[idx[i]] = nd;
                    if (!queued[idx[i]]) {
                        queued[idx[i]] = true;
                        next.push_back(idx[i]);
                    }
                }
            }
        }

        runLevel(mach, chain, graph, tiling, frontier, window_bits);
        frontier = std::move(next);
    }
    res.timing = AppTiming::snapshot(mach);
    return res;
}

} // namespace capstan::apps
