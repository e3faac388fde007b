#include "apps/matadd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sparse/bittree.hpp"
#include "sparse/format_convert.hpp"
#include "workloads/tiling.hpp"

namespace capstan::apps {

using sparse::BitVector;
using workloads::Tiling;

namespace {

void
requireSameShape(const MatrixView &a, const MatrixView &b,
                 const std::string &caller)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(caller +
                                    ": operand dimensions differ");
}

/**
 * Tile @p t's rows of A + B: each row's union scan, in 16-lane tokens
 * per scanner window of the union (a flat bit-vector row) or per
 * occupied bit-tree leaf (@p use_bittree).
 */
TokenStream
unionRowTokens(const MatrixView &a, const MatrixView &b,
               const Tiling &tiling, int t, bool use_bittree,
               int window_bits)
{
    const Index leaf_bits = 256;
    // Pass one of the bit-tree scan: union-scan the rows' top-level
    // vectors (one bit per leaf slot). Its windows are charged as skip
    // cycles on each row's first token.
    Index top_bits = (a.cols() + leaf_bits - 1) / leaf_bits;
    Index top_windows = (top_bits + window_bits - 1) / window_bits;
    // One row's union population per window (or per occupied leaf).
    std::vector<Index> pops;
    for (Index r : tiling.rowsOf(t)) {
        auto ai = a.indices(r);
        auto bi = b.indices(r);
        if (ai.empty() && bi.empty())
            continue;
        pops.clear();
        std::int32_t skip = 0;
        if (use_bittree) {
            // Rows stream from DRAM in compressed form (8 B per stored
            // entry); the format-conversion hardware builds the
            // bit-trees on-chip (Section 3.4). Pass two: union-scan
            // each occupied leaf pair.
            sparse::forEachUnionLeaf(
                ai, bi, leaf_bits,
                [&pops](Index, Index pop) { pops.push_back(pop); });
            skip = static_cast<std::int32_t>(top_windows);
        } else {
            // Flat bit-vector rows: every zero window burns a scanner
            // cycle.
            BitVector u = sparse::pointersToBitVector(ai, a.cols()) |
                          sparse::pointersToBitVector(bi, b.cols());
            for (Index base = 0; base < u.size(); base += window_bits) {
                Index end = std::min<Index>(base + window_bits, u.size());
                pops.push_back(u.countRange(base, end));
            }
        }
        // Bytes: occupancy bits + 4 B per stored value, for both
        // inputs, on the row's first token, plus the output row (union
        // values + occupancy).
        auto row_bytes =
            static_cast<std::uint32_t>(8 * (ai.size() + bi.size()));
        bool first = true;
        for (Index pop : pops) {
            if (pop == 0) {
                ++skip;
                continue;
            }
            for (Index base = 0; base < pop; base += sim::kMaxLanes) {
                int lanes = chunkLanes(pop, base);
                Token tok = Token::compute(lanes);
                tok.scan_skip = skip;
                skip = 0;
                tok.bytes = (first ? row_bytes : 0) + 8 * lanes;
                first = false;
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
matAddReference(const MatrixView &a, const MatrixView &b)
{
    requireSameShape(a, b, "matAddReference");
    // Merge each row pair: both rows are sorted and duplicate-free, so
    // a column in both adds once.
    std::vector<Index> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    auto most = static_cast<std::size_t>(a.nnz()) +
                static_cast<std::size_t>(b.nnz());
    col_idx.reserve(most);
    values.reserve(most);
    for (Index r = 0; r < a.rows(); ++r) {
        auto ai = a.indices(r);
        auto av = a.values(r);
        auto bi = b.indices(r);
        auto bv = b.values(r);
        std::size_t i = 0;
        std::size_t j = 0;
        while (i < ai.size() || j < bi.size()) {
            if (j == bi.size() || (i < ai.size() && ai[i] < bi[j])) {
                col_idx.push_back(ai[i]);
                values.push_back(av[i++]);
            } else if (i == ai.size() || bi[j] < ai[i]) {
                col_idx.push_back(bi[j]);
                values.push_back(bv[j++]);
            } else {
                col_idx.push_back(ai[i]);
                values.push_back(av[i++] + bv[j++]);
            }
        }
        row_ptr[r + 1] = static_cast<Index>(col_idx.size());
    }
    return CsrMatrix::fromParts(a.rows(), a.cols(), std::move(row_ptr),
                                std::move(col_idx), std::move(values));
}

AppTiming
runMatAdd(const MatrixView &a, const MatrixView &b,
          const CapstanConfig &cfg, int tiles, bool use_bittree)
{
    requireSameShape(a, b, "runMatAdd");

    Machine mach(cfg, tiles);
    Tiling tiling = Tiling::roundRobin(a.rows(), tiles);
    int window_bits = std::max(1, cfg.scanner.window_bits);
    // Stream both rows' occupancy + values -> union scan -> add ->
    // stream the result row out.
    mach.runPhase({{StageKind::DramStream, 1},
                   {StageKind::Scan, 1},
                   {StageKind::Map, kMapLatency},
                   {StageKind::DramStream, 1},
                   {StageKind::Sink}},
                  [&](int t) {
                      return unionRowTokens(a, b, tiling, t, use_bittree,
                                            window_bits);
                  });
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
