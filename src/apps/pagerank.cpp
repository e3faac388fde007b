#include "apps/pagerank.hpp"

#include <algorithm>

#include "workloads/tiling.hpp"

namespace capstan::apps {

using workloads::Tiling;

namespace {

/**
 * Tile @p t's vertices for pull PageRank: each vertex's in-edges in
 * 16-lane gathers of the sources' ranks from their owners, the last
 * closing the vertex's reduction group.
 */
TokenStream
pullVertexTokens(const MatrixView &in_edges, const Tiling &tiling, int t)
{
    for (Index v : tiling.rowsOf(t)) {
        auto sources = in_edges.indices(v);
        Index len = static_cast<Index>(sources.size());
        if (len == 0) {
            Token tok;
            tok.valid_mask = 0;
            tok.bytes = 16;
            tok.end_group = true;
            co_yield tok;
            continue;
        }
        for (Index base = 0; base < len; base += sim::kMaxLanes) {
            int lanes = chunkLanes(len, base);
            Token tok = Token::compute(lanes);
            // Edge pointers, plus the row pointer and the rank and
            // degree loads / rank store for this vertex (all data
            // round-trips DRAM each iteration).
            tok.bytes = 4 * lanes + (base == 0 ? 16 : 0);
            tok.end_group = base + lanes >= len;
            for (int l = 0; l < lanes; ++l) {
                Index u = sources[base + l];
                tok.addr[l] =
                    static_cast<std::uint32_t>(tiling.localIndex(u));
                tok.lane_tile[l] =
                    static_cast<std::int8_t>(tiling.tileOf(u));
            }
            co_yield tok;
        }
    }
}

/**
 * Tile @p t's edges for edge-centric PageRank, in source order: 16-lane
 * atomic scatters to the destinations' owners.
 */
TokenStream
edgeTokens(const MatrixView &graph, const Tiling &tiling, int t)
{
    for (Index u : tiling.rowsOf(t)) {
        auto dsts = graph.indices(u);
        Index len = static_cast<Index>(dsts.size());
        for (Index base = 0; base < len; base += sim::kMaxLanes) {
            int lanes = chunkLanes(len, base);
            Token tok = Token::compute(lanes);
            // Source + destination pointers per edge; source pointers
            // repeat and compress well (Fig. 5c).
            tok.bytes = 8 * lanes;
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
}

} // namespace

DenseVector
pageRankReference(const MatrixView &graph, int iterations, Value damping)
{
    Index n = graph.rows();
    DenseVector rank(n, 1.0f / n);
    std::vector<Index> out_degree(n, 0);
    for (Index u = 0; u < n; ++u)
        out_degree[u] = graph.length(u);
    for (int it = 0; it < iterations; ++it) {
        DenseVector next(n, (1.0f - damping) / n);
        for (Index u = 0; u < n; ++u) {
            if (out_degree[u] == 0)
                continue;
            Value share = damping * rank[u] / out_degree[u];
            for (Index v : graph.indices(u))
                next[v] += share;
        }
        rank = std::move(next);
    }
    return rank;
}

AppTiming
runPageRankPull(const MatrixView &graph, int iterations,
                const CapstanConfig &cfg, int tiles)
{
    // Pull iterates in-edges: build the transpose once (offline format
    // preparation, as the paper's tiling step does).
    sparse::CsrMatrix in_csr = graph.transposed();
    MatrixView in_edges(in_csr);
    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(in_edges.columnStream(), 1.0));
    Tiling tiling = Tiling::byWeight(in_edges, tiles);

    for (int it = 0; it < iterations; ++it) {
        // Stream in-edge lists -> gather neighbour ranks (remote tiles
        // own most sources) -> scale -> reduce per vertex -> write the
        // new rank locally.
        mach.runPhase({{StageKind::DramStream, 1},
                       {StageKind::SpmuCross, 1, sim::AccessOp::Read},
                       {StageKind::Map, kMapLatency},
                       {StageKind::Reduce, kMapLatency},
                       {StageKind::Spmu, 1, sim::AccessOp::Write},
                       {StageKind::Sink}},
                      [&](int t) {
                          return pullVertexTokens(in_edges, tiling, t);
                      });
    }
    return AppTiming::snapshot(mach);
}

AppTiming
runPageRankEdge(const MatrixView &graph, int iterations,
                const CapstanConfig &cfg, int tiles)
{
    Machine mach(cfg, tiles);
    if (cfg.dram.compression) {
        // Both stream words are pointers; the source side repeats for
        // every out-edge, which is why PR-Edge compresses best.
        std::vector<Index> ptrs;
        ptrs.reserve(2 * static_cast<std::size_t>(graph.nnz()));
        for (Index u = 0; u < graph.rows(); ++u) {
            for (Index k = 0; k < graph.length(u); ++k)
                ptrs.push_back(u);
        }
        const auto &dsts = graph.columnStream();
        ptrs.insert(ptrs.end(), dsts.begin(), dsts.end());
        mach.setStreamCompression(streamCompressionRatio(ptrs, 1.0));
    }
    Tiling tiling = Tiling::byWeight(graph, tiles);

    for (int it = 0; it < iterations; ++it) {
        // Stream edges in source order -> read the (local) source rank
        // -> scale -> atomic scatter to destination owners.
        mach.runPhase({{StageKind::DramStream, 1},
                       {StageKind::Spmu, 1, sim::AccessOp::Read},
                       {StageKind::Map, kMapLatency},
                       {StageKind::SpmuCross, 1, sim::AccessOp::AddF32},
                       {StageKind::Sink}},
                      [&](int t) { return edgeTokens(graph, tiling, t); });

        // Stream the updated rank vector back to DRAM (and reload it
        // next iteration): 8 B per vertex.
        mach.runPhase(kDramOnlyChain, [&](int t) {
            return laneChunks(static_cast<Index>(tiling.rowsOf(t).size()),
                              8);
        });
    }
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
