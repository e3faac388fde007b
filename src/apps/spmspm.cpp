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

CsrMatrix
spmspmReference(const MatrixView &a, const MatrixView &b)
{
    std::vector<Triplet> trip;
    std::vector<Value> acc(b.cols(), 0);
    std::vector<Index> touched;
    for (Index i = 0; i < a.rows(); ++i) {
        touched.clear();
        auto ai = a.indices(i);
        auto av = a.values(i);
        for (std::size_t x = 0; x < ai.size(); ++x) {
            Index j = ai[x];
            Value aij = av[x];
            auto bi = b.indices(j);
            auto bv = b.values(j);
            for (std::size_t y = 0; y < bi.size(); ++y) {
                if (acc[bi[y]] == Value{0} && aij * bv[y] != Value{0})
                    touched.push_back(bi[y]);
                acc[bi[y]] += aij * bv[y];
            }
        }
        std::sort(touched.begin(), touched.end());
        for (Index k : touched) {
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
    // The write-out phase streams the product's rows, so their
    // structure comes from the reference product.
    CsrMatrix product = spmspmReference(a, b);

    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(b.columnStream(), 0.5));
    Tiling tiling = Tiling::roundRobin(a.rows(), tiles);
    int window_bits = std::max(1, cfg.scanner.window_bits);

    // Phase 0: load each tile's working set of B rows on-chip once
    // (the evaluated SpMSpM datasets fit in SpMU SRAM, so B rows are
    // fetched from DRAM a single time and reused across A entries).
    for (int t = 0; t < tiles; ++t) {
        mach.addStage(t, {StageKind::DramStream, 1});
        mach.addStage(t, {StageKind::Sink});
    }
    for (int t = 0; t < tiles; ++t) {
        std::unordered_set<Index> needed;
        Index64 bytes = 0;
        for (Index i : tiling.rowsOf(t)) {
            for (Index j : a.indices(i)) {
                if (needed.insert(j).second)
                    bytes += 8 * b.length(j);
            }
        }
        while (bytes > 0) {
            Token tok = Token::compute(16);
            tok.bytes = static_cast<std::uint32_t>(
                std::min<Index64>(bytes, 4096));
            bytes -= tok.bytes;
            mach.feed(t, tok);
        }
    }
    mach.runPhase();

    // Phase 1: accumulate scaled B rows into the per-row dense tile.
    mach.resetChains();
    for (int t = 0; t < tiles; ++t) {
        // Stream A row entries -> union/intersect scan against the Val
        // bitset -> read the on-chip B row (sequential SRAM stream) ->
        // accumulate into the compressed local tile.
        mach.addStage(t, {StageKind::DramStream, 1});
        mach.addStage(t, {StageKind::Scan, 1});
        mach.addStage(t, {StageKind::Map, 1});
        mach.addStage(t, {StageKind::Spmu, 1, sim::AccessOp::AddF32});
        mach.addStage(t, {StageKind::Sink});
    }
    for (int t = 0; t < tiles; ++t) {
        for (Index i : tiling.rowsOf(t)) {
            auto ai = a.indices(i);
            for (std::size_t x = 0; x < ai.size(); ++x) {
                Index j = ai[x];
                auto bi = b.indices(j);
                Index len = static_cast<Index>(bi.size());
                bool first = true;
                emitChunks(len, [&](Index base, int lanes) {
                    Token tok = Token::compute(lanes);
                    // The A entry (8 B) rides on the first chunk; B
                    // data is already on-chip.
                    tok.bytes = first ? 8 : 0;
                    first = false;
                    for (int l = 0; l < lanes; ++l)
                        tok.addr[l] = static_cast<std::uint32_t>(
                            bi[base + l]);
                    mach.feed(t, tok);
                });
            }
        }
    }
    mach.runPhase();

    // Phase 2: sparse-iterate each row's Val bitset to extract the
    // compressed output row and write it to DRAM.
    mach.resetChains();
    for (int t = 0; t < tiles; ++t) {
        mach.addStage(t, {StageKind::Scan, 1});
        mach.addStage(t, {StageKind::Spmu, 1, sim::AccessOp::Swap});
        mach.addStage(t, {StageKind::DramStream, 1});
        mach.addStage(t, {StageKind::Sink});
    }
    for (int t = 0; t < tiles; ++t) {
        for (Index i : tiling.rowsOf(t)) {
            auto ci = product.rowIndices(i);
            if (ci.empty())
                continue;
            BitVector val =
                sparse::pointersToBitVector(ci, b.cols());
            std::int32_t skip = 0;
            for (Index base = 0; base < val.size();
                 base += window_bits) {
                Index end =
                    std::min<Index>(base + window_bits, val.size());
                Index pop = val.countRange(base, end);
                if (pop == 0) {
                    ++skip;
                    continue;
                }
                emitChunks(pop, [&](Index chunk_base, int lanes) {
                    Token tok = Token::compute(lanes);
                    tok.scan_skip = skip;
                    skip = 0;
                    tok.bytes = 8 * lanes; // store (index, value).
                    for (int l = 0; l < lanes; ++l)
                        tok.addr[l] = static_cast<std::uint32_t>(
                            base + chunk_base + l);
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
    mach.runPhase();
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
