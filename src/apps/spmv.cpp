#include "apps/spmv.hpp"

#include <algorithm>

#include "workloads/tiling.hpp"

namespace capstan::apps {

using workloads::Tiling;

namespace {

/**
 * Tile @p t's CSR rows: each row's non-zeros in 16-lane gathers of the
 * input vector, the last closing the row's reduction group.
 */
TokenStream
csrRowTokens(const MatrixView &m, const Tiling &tiling, int t)
{
    for (Index r : tiling.rowsOf(t)) {
        auto idx = m.indices(r);
        Index len = static_cast<Index>(idx.size());
        if (len == 0) {
            // Empty row: the row pointer still streams and the
            // reduction still closes a group.
            Token tok;
            tok.valid_mask = 0;
            tok.bytes = 4;
            tok.end_group = true;
            co_yield tok;
            continue;
        }
        for (Index base = 0; base < len; base += sim::kMaxLanes) {
            int lanes = chunkLanes(len, base);
            Token tok = Token::compute(lanes);
            for (int l = 0; l < lanes; ++l)
                tok.addr[l] = static_cast<std::uint32_t>(idx[base + l]);
            // 8 B per non-zero (index + value); the row pointer rides
            // on the first chunk.
            tok.bytes = 8 * lanes + (base == 0 ? 4 : 0);
            tok.end_group = base + lanes >= len;
            co_yield tok;
        }
    }
}

/**
 * COO entries [@p begin, @p end) in 16-lane tokens whose lanes update
 * the output row's owner (row blocks of @p rows_per_tile).
 */
TokenStream
cooTokens(const CooMatrix &coo, Index64 begin, Index64 end,
          Index rows_per_tile)
{
    for (Index64 base = begin; base < end; base += sim::kMaxLanes) {
        int lanes = chunkLanes(end, base);
        Token tok = Token::compute(lanes);
        tok.bytes = 12 * lanes; // row + col + value per entry.
        for (int l = 0; l < lanes; ++l) {
            const sparse::Triplet &e = coo.entries()[base + l];
            tok.addr[l] = static_cast<std::uint32_t>(e.col);
            tok.lane_tile[l] =
                static_cast<std::int8_t>(e.row / rows_per_tile);
        }
        co_yield tok;
    }
}

/**
 * Columns [@p c_begin, @p c_end) of the matrix scaled by the input
 * vector: the data scanner sweeps @p v, and each non-zero's column (a
 * row of @p csc, the CSR of the transpose) streams in 16-lane scatters
 * to the output rows' owners.
 */
TokenStream
cscColumnTokens(const CsrMatrix &csc, const DenseVector &v, Index c_begin,
                Index c_end, Index rows_per_tile)
{
    Index gap = 0; // Elements scanned since the last non-zero.
    for (Index c = c_begin; c < c_end; ++c) {
        ++gap;
        if (v[c] == Value{0})
            continue;
        auto rows = csc.rowIndices(c);
        Index len = static_cast<Index>(rows.size());
        Index this_gap = gap;
        gap = 0;
        for (Index base = 0; base < len; base += sim::kMaxLanes) {
            int lanes = chunkLanes(len, base);
            Token tok = Token::compute(lanes);
            tok.bytes = 8 * lanes + (base == 0 ? 8 : 0);
            tok.scan_elems =
                base == 0 ? static_cast<std::int32_t>(this_gap) : 0;
            for (int l = 0; l < lanes; ++l) {
                Index r = rows[base + l];
                tok.addr[l] = static_cast<std::uint32_t>(r);
                tok.lane_tile[l] =
                    static_cast<std::int8_t>(r / rows_per_tile);
            }
            co_yield tok;
        }
    }
}

/** Output rows tile @p t owns in blocks of @p rows_per_tile. */
Index
blockRows(Index rows, Index rows_per_tile, int t)
{
    return std::min<Index>(rows_per_tile,
                           std::max<Index>(0, rows - t * rows_per_tile));
}

} // namespace

DenseVector
spmvReference(const MatrixView &m, const DenseVector &v)
{
    DenseVector out(m.rows());
    for (Index r = 0; r < m.rows(); ++r) {
        auto idx = m.indices(r);
        auto val = m.values(r);
        Value acc = 0;
        for (std::size_t i = 0; i < idx.size(); ++i)
            acc += val[i] * v[idx[i]];
        out[r] = acc;
    }
    return out;
}

AppTiming
runSpmvCsr(const MatrixView &m, const CapstanConfig &cfg, int tiles)
{
    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(m.columnStream(), 0.5));
    Tiling tiling = Tiling::roundRobin(m.rows(), tiles);
    // Stream matrix -> gather V[c] on-chip -> multiply -> reduce per
    // row -> stream results out.
    mach.runPhase({{StageKind::DramStream, 1},
                   {StageKind::Spmu, 1, sim::AccessOp::Read},
                   {StageKind::Map, kMapLatency},
                   {StageKind::Reduce, kMapLatency},
                   {StageKind::DramStream, 1},
                   {StageKind::Sink}},
                  [&](int t) { return csrRowTokens(m, tiling, t); });
    return AppTiming::snapshot(mach);
}

AppTiming
runSpmvCoo(const MatrixView &m, const CapstanConfig &cfg, int tiles)
{
    Machine mach(cfg, tiles);
    // Non-zeros round-robin across tiles; output rows block-partitioned
    // so accumulations may land on any tile (cross-tile RMW).
    Index rows_per_tile = (m.rows() + tiles - 1) / tiles;
    CooMatrix coo = m.toCoo();
    if (cfg.dram.compression) {
        // Two of the three stream words per entry are pointers; the
        // row pointers repeat heavily in row-major order (Fig. 5c).
        std::vector<Index> ptrs;
        ptrs.reserve(2 * static_cast<std::size_t>(coo.nnz()));
        for (const auto &e : coo.entries())
            ptrs.push_back(e.row);
        for (const auto &e : coo.entries())
            ptrs.push_back(e.col);
        mach.setStreamCompression(
            streamCompressionRatio(ptrs, 2.0 / 3.0));
    }
    Index64 nnz = coo.nnz();
    Index64 per_tile = (nnz + tiles - 1) / tiles;
    mach.runPhase({{StageKind::DramStream, 1},
                   {StageKind::Spmu, 1, sim::AccessOp::Read},
                   {StageKind::Map, kMapLatency},
                   {StageKind::SpmuCross, 1, sim::AccessOp::AddF32},
                   {StageKind::Sink}},
                  [&](int t) {
                      Index64 begin = t * per_tile;
                      Index64 end =
                          std::min<Index64>(nnz, begin + per_tile);
                      return cooTokens(coo, begin, end, rows_per_tile);
                  });

    // Final pass: stream the accumulated output back to DRAM.
    mach.runPhase(kDramOnlyChain, [&](int t) {
        return laneChunks(blockRows(m.rows(), rows_per_tile, t), 4);
    });
    return AppTiming::snapshot(mach);
}

AppTiming
runSpmvCsc(const MatrixView &m, const DenseVector &v,
           const CapstanConfig &cfg, int tiles)
{
    CsrMatrix csc = m.transposed();
    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(csc.colIdx(), 0.5));
    Index rows_per_tile = (m.rows() + tiles - 1) / tiles;
    Index cols_per_tile = (m.cols() + tiles - 1) / tiles;
    // Data-scan the input vector -> stream the matched column ->
    // multiply -> scatter atomic updates into Out across tiles.
    mach.runPhase({{StageKind::DataScan, 1},
                   {StageKind::DramStream, 1},
                   {StageKind::Map, kMapLatency},
                   {StageKind::SpmuCross, 1, sim::AccessOp::AddF32},
                   {StageKind::Sink}},
                  [&](int t) {
                      Index c_begin = t * cols_per_tile;
                      Index c_end = std::min<Index>(
                          m.cols(), c_begin + cols_per_tile);
                      return cscColumnTokens(csc, v, c_begin, c_end,
                                             rows_per_tile);
                  });

    // Stream Out back to DRAM.
    mach.runPhase(kDramOnlyChain, [&](int t) {
        return laneChunks(blockRows(m.rows(), rows_per_tile, t), 4);
    });
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
