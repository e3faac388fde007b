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
    const Index leaf_bits = 256;
    // Pass one of the bit-tree scan: union-scan the rows' top-level
    // vectors (one bit per leaf slot). Its windows are charged as skip
    // cycles on each row's first token.
    Index top_bits = (a.cols() + leaf_bits - 1) / leaf_bits;
    Index top_windows = (top_bits + window_bits - 1) / window_bits;

    for (int t = 0; t < tiles; ++t) {
        // Stream both rows' occupancy + values -> union scan -> add ->
        // stream the result row out.
        mach.addStage(t, {StageKind::DramStream, 1});
        mach.addStage(t, {StageKind::Scan, 1});
        mach.addStage(t, {StageKind::Map, kMapLatency});
        mach.addStage(t, {StageKind::DramStream, 1});
        mach.addStage(t, {StageKind::Sink});
    }

    for (int t = 0; t < tiles; ++t) {
        for (Index r : tiling.rowsOf(t)) {
            auto ai = a.indices(r);
            auto bi = b.indices(r);
            if (ai.empty() && bi.empty())
                continue;
            // Bytes: occupancy bits + 4 B per stored value, for both
            // inputs, plus the output row (union values + occupancy).
            if (use_bittree) {
                // Rows stream from DRAM in compressed form (8 B per
                // stored entry); the format-conversion hardware builds
                // the bit-trees on-chip (Section 3.4).
                std::uint32_t row_bytes = static_cast<std::uint32_t>(
                    8 * (ai.size() + bi.size()));
                bool first = true;
                // Pass two: union-scan each occupied leaf pair.
                sparse::forEachUnionLeaf(ai, bi, leaf_bits,
                                         [&](Index, Index pop) {
                    emitChunks(pop, [&](Index, int lanes) {
                        Token tok = Token::compute(lanes);
                        tok.scan_skip =
                            first ? static_cast<std::int32_t>(
                                        top_windows)
                                  : 0;
                        tok.bytes = first ? row_bytes : 0;
                        tok.bytes += 8 * lanes; // store C entries
                        first = false;
                        mach.feed(t, tok);
                    });
                });
            } else {
                // Flat bit-vector rows: every zero window burns a
                // scanner cycle.
                BitVector va =
                    sparse::pointersToBitVector(ai, a.cols());
                BitVector vb =
                    sparse::pointersToBitVector(bi, b.cols());
                BitVector u = va | vb;
                std::vector<Index> pops;
                for (Index base = 0; base < u.size();
                     base += window_bits) {
                    Index end =
                        std::min<Index>(base + window_bits, u.size());
                    pops.push_back(u.countRange(base, end));
                }
                std::uint32_t row_bytes = static_cast<std::uint32_t>(
                    8 * (ai.size() + bi.size()));
                std::int32_t skip = 0;
                bool first = true;
                for (Index pop : pops) {
                    if (pop == 0) {
                        ++skip;
                        continue;
                    }
                    emitChunks(pop, [&](Index, int lanes) {
                        Token tok = Token::compute(lanes);
                        tok.scan_skip = skip;
                        skip = 0;
                        tok.bytes =
                            (first ? row_bytes : 0) + 8 * lanes;
                        first = false;
                        mach.feed(t, tok);
                    });
                }
                if (skip > 0) {
                    Token tok;
                    tok.valid_mask = 0;
                    tok.scan_skip = skip;
                    mach.feed(t, tok);
                }
            }
        }
    }
    mach.runPhase();
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
