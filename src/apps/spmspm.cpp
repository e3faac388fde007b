#include "apps/spmspm.hpp"

#include <algorithm>
#include <unordered_set>

#include "sparse/bitvector.hpp"
#include "sparse/format_convert.hpp"
#include "workloads/tiling.hpp"

namespace capstan::apps {

using sparse::BitVector;
using sparse::Triplet;
using workloads::Tiling;

namespace {

/**
 * Row @p i of A * B: add each product a(i, j) * b(j, k) into @p acc
 * (zero on entry) and set @p cols to the row's columns, sorted and
 * distinct: every k a nonzero product reached while acc[k] read zero.
 * The caller reads the row's sums at @p cols and zeroes them.
 */
void
productRow(const MatrixView &a, const MatrixView &b, Index i,
           std::vector<Value> &acc, std::vector<Index> &cols)
{
    cols.clear();
    auto ai = a.indices(i);
    auto av = a.values(i);
    for (std::size_t x = 0; x < ai.size(); ++x) {
        Index j = ai[x];
        Value aij = av[x];
        auto bi = b.indices(j);
        auto bv = b.values(j);
        for (std::size_t y = 0; y < bi.size(); ++y) {
            if (acc[bi[y]] == Value{0} && aij * bv[y] != Value{0})
                cols.push_back(bi[y]);
            acc[bi[y]] += aij * bv[y];
        }
    }
    std::sort(cols.begin(), cols.end());
    cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
}

/**
 * Tile @p t's rows of A: for each stored a(i, j), the on-chip row j of
 * B in 16-lane accumulations into the row's dense tile.
 */
TokenStream
accumulateTokens(const MatrixView &a, const MatrixView &b,
                 const Tiling &tiling, int t)
{
    for (Index i : tiling.rowsOf(t)) {
        for (Index j : a.indices(i)) {
            auto bi = b.indices(j);
            Index len = static_cast<Index>(bi.size());
            for (Index base = 0; base < len; base += sim::kMaxLanes) {
                int lanes = chunkLanes(len, base);
                Token tok = Token::compute(lanes);
                // The A entry (8 B) rides on the first chunk; B data is
                // already on-chip.
                tok.bytes = base == 0 ? 8 : 0;
                for (int l = 0; l < lanes; ++l)
                    tok.addr[l] = static_cast<std::uint32_t>(bi[base + l]);
                co_yield tok;
            }
        }
    }
}

/**
 * Tile @p t's rows of the product C = A * B: a sparse iteration over
 * each row's Val bitset extracts the stored entries, one token per 16
 * of a scanner window's set bits. Each row's columns are computed when
 * the stream reaches the row, so the product never exists whole.
 */
TokenStream
writeOutTokens(const MatrixView &a, const MatrixView &b,
               const Tiling &tiling, int t, int window_bits)
{
    std::vector<Value> acc(b.cols(), 0);
    std::vector<Index> ci;
    for (Index i : tiling.rowsOf(t)) {
        productRow(a, b, i, acc, ci);
        if (ci.empty())
            continue;
        for (Index k : ci)
            acc[k] = 0;
        BitVector val = sparse::pointersToBitVector(ci, b.cols());
        std::int32_t skip = 0;
        for (Index base = 0; base < val.size(); base += window_bits) {
            Index end = std::min<Index>(base + window_bits, val.size());
            Index pop = val.countRange(base, end);
            if (pop == 0) {
                ++skip;
                continue;
            }
            for (Index chunk = 0; chunk < pop; chunk += sim::kMaxLanes) {
                int lanes = chunkLanes(pop, chunk);
                Token tok = Token::compute(lanes);
                tok.scan_skip = skip;
                skip = 0;
                tok.bytes = 8 * lanes; // store (index, value).
                for (int l = 0; l < lanes; ++l)
                    tok.addr[l] =
                        static_cast<std::uint32_t>(base + chunk + l);
                co_yield tok;
            }
        }
        if (skip > 0) {
            Token tok;
            tok.valid_mask = 0;
            tok.scan_skip = skip;
            co_yield tok;
        }
    }
}

} // namespace

CsrMatrix
spmspmReference(const MatrixView &a, const MatrixView &b)
{
    std::vector<Triplet> trip;
    std::vector<Value> acc(b.cols(), 0);
    std::vector<Index> cols;
    for (Index i = 0; i < a.rows(); ++i) {
        productRow(a, b, i, acc, cols);
        for (Index k : cols) {
            trip.push_back({i, k, acc[k]});
            acc[k] = 0;
        }
    }
    return CsrMatrix::fromTriplets(a.rows(), b.cols(), std::move(trip));
}

AppTiming
runSpmspm(const MatrixView &a, const MatrixView &b,
          const CapstanConfig &cfg, int tiles)
{
    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(b.columnStream(), 0.5));
    Tiling tiling = Tiling::roundRobin(a.rows(), tiles);
    int window_bits = std::max(1, cfg.scanner.window_bits);

    // Phase 0: load each tile's working set of B rows on-chip once
    // (the evaluated SpMSpM datasets fit in SpMU SRAM, so B rows are
    // fetched from DRAM a single time and reused across A entries).
    mach.runPhase(kDramOnlyChain, [&](int t) {
        std::unordered_set<Index> needed;
        Index64 bytes = 0;
        for (Index i : tiling.rowsOf(t)) {
            for (Index j : a.indices(i)) {
                if (needed.insert(j).second)
                    bytes += 8 * b.length(j);
            }
        }
        return dramBursts(bytes);
    });

    // Phase 1: accumulate scaled B rows into the per-row dense tile.
    // Stream A row entries -> union/intersect scan against the Val
    // bitset -> read the on-chip B row (sequential SRAM stream) ->
    // accumulate into the compressed local tile.
    mach.runPhase({{StageKind::DramStream, 1},
                   {StageKind::Scan, 1},
                   {StageKind::Map, 1},
                   {StageKind::Spmu, 1, sim::AccessOp::AddF32},
                   {StageKind::Sink}},
                  [&](int t) { return accumulateTokens(a, b, tiling, t); });

    // Phase 2: sparse-iterate each row's Val bitset to extract the
    // compressed output row and write it to DRAM.
    mach.runPhase({{StageKind::Scan, 1},
                   {StageKind::Spmu, 1, sim::AccessOp::Swap},
                   {StageKind::DramStream, 1},
                   {StageKind::Sink}},
                  [&](int t) {
                      return writeOutTokens(a, b, tiling, t, window_bits);
                  });
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
