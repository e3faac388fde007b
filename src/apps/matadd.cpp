#include "apps/matadd.hpp"

#include <algorithm>
#include <stdexcept>

#include "sparse/bittree.hpp"
#include "sparse/format_convert.hpp"
#include "workloads/tiling.hpp"

namespace capstan::apps {

using sparse::BitTree;
using sparse::BitVector;
using sparse::Triplet;
using workloads::Tiling;

CsrMatrix
matAddReference(const MatrixView &a, const MatrixView &b)
{
    if (a.rows() != b.rows() || a.cols() != b.cols())
        throw std::invalid_argument(
            "matAddReference: operand dimensions differ");
    std::vector<Triplet> trip;
    trip.reserve(a.nnz() + b.nnz());
    for (Index r = 0; r < a.rows(); ++r) {
        auto ai = a.indices(r);
        auto av = a.values(r);
        for (std::size_t i = 0; i < ai.size(); ++i)
            trip.push_back({r, ai[i], av[i]});
    }
    for (Index r = 0; r < b.rows(); ++r) {
        auto bi = b.indices(r);
        auto bv = b.values(r);
        for (std::size_t i = 0; i < bi.size(); ++i)
            trip.push_back({r, bi[i], bv[i]});
    }
    return CsrMatrix::fromTriplets(a.rows(), a.cols(), std::move(trip));
}

MatAddResult
runMatAdd(const MatrixView &a, const MatrixView &b,
          const CapstanConfig &cfg, int tiles, bool use_bittree)
{
    MatAddResult res;
    res.sum = matAddReference(a, b);

    Machine mach(cfg, tiles);
    Tiling tiling = Tiling::roundRobin(a.rows(), tiles);
    int window_bits = std::max(1, cfg.scanner.window_bits);
    const Index leaf_bits = 256;

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
                BitTree ta = sparse::pointersToBitTree(ai, a.cols(),
                                                       leaf_bits);
                BitTree tb = sparse::pointersToBitTree(bi, b.cols(),
                                                       leaf_bits);
                auto aligned = sparse::alignUnion(ta, tb);
                Index top_bits = ta.topLevel().size();
                // Pass one: union-scan the top-level vectors. Charge
                // its windows as skip cycles on the row's first token.
                Index top_windows =
                    (top_bits + window_bits - 1) / window_bits;
                // Rows stream from DRAM in compressed form (8 B per
                // stored entry); the format-conversion hardware builds
                // the bit-trees on-chip (Section 3.4).
                std::uint32_t row_bytes = static_cast<std::uint32_t>(
                    8 * (ai.size() + bi.size()));
                bool first = true;
                for (const auto &pair : aligned) {
                    // Pass two: union-scan this aligned leaf pair.
                    BitVector la = pair.leaf_a != kNoIndex
                                       ? ta.leaf(pair.leaf_a)
                                       : BitVector(leaf_bits);
                    BitVector lb = pair.leaf_b != kNoIndex
                                       ? tb.leaf(pair.leaf_b)
                                       : BitVector(leaf_bits);
                    Index pop = (la | lb).count();
                    emitChunks(pop, [&](Index base, int lanes) {
                        Token tok = Token::compute(lanes);
                        tok.scan_skip =
                            first ? static_cast<std::int32_t>(
                                        top_windows)
                                  : 0;
                        tok.bytes = first ? row_bytes : 0;
                        tok.bytes += 8 * lanes; // store C entries
                        (void)base;
                        first = false;
                        mach.feed(t, tok);
                    });
                }
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
                    pops.push_back(u.rank(end) - u.rank(base));
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
    res.timing.finish(mach);
    return res;
}

} // namespace capstan::apps
