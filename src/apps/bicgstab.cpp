#include "apps/bicgstab.hpp"

#include <algorithm>
#include <cmath>

#include "apps/spmv.hpp"
#include "workloads/tiling.hpp"

namespace capstan::apps {

using workloads::Tiling;

namespace {

double
dot(const DenseVector &a, const DenseVector &b)
{
    double s = 0;
    for (Index i = 0; i < a.size(); ++i)
        s += static_cast<double>(a[i]) * b[i];
    return s;
}

double
norm(const DenseVector &a)
{
    return std::sqrt(dot(a, a));
}

/**
 * Tile @p t's rows of one SpMV: each row's non-zeros in 16-lane
 * gathers of the vector from its owners (row blocks of
 * @p rows_per_tile), the last closing the row's reduction group.
 */
TokenStream
spmvRowTokens(const MatrixView &m, const Tiling &tiling, int t,
              Index rows_per_tile)
{
    int tiles = tiling.tiles();
    for (Index r : tiling.rowsOf(t)) {
        auto idx = m.indices(r);
        Index len = static_cast<Index>(idx.size());
        if (len == 0) {
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
            tok.bytes = 8 * lanes + (base == 0 ? 4 : 0);
            tok.end_group = base + lanes >= len;
            for (int l = 0; l < lanes; ++l) {
                Index c = idx[base + l];
                tok.addr[l] = static_cast<std::uint32_t>(c % rows_per_tile);
                tok.lane_tile[l] = static_cast<std::int8_t>(
                    std::min<Index>(tiles - 1, c / rows_per_tile));
            }
            co_yield tok;
        }
    }
}

} // namespace

DenseVector
bicgstabReference(const MatrixView &m, const DenseVector &b,
                  int iterations)
{
    // Unpreconditioned BiCGStab.
    Index n = m.rows();
    DenseVector x(n, 0);
    DenseVector r = b; // r = b - A*0.
    DenseVector r0 = r;
    DenseVector p = r;
    double rho = dot(r0, r);
    for (int it = 0; it < iterations; ++it) {
        if (std::abs(rho) < 1e-30)
            break;
        DenseVector v = spmvReference(m, p);
        double alpha = rho / dot(r0, v);
        DenseVector s(n);
        for (Index i = 0; i < n; ++i)
            s[i] = r[i] - static_cast<Value>(alpha) * v[i];
        DenseVector t = spmvReference(m, s);
        double tt = dot(t, t);
        double omega = tt > 0 ? dot(t, s) / tt : 0.0;
        for (Index i = 0; i < n; ++i) {
            x[i] += static_cast<Value>(alpha) * p[i] +
                    static_cast<Value>(omega) * s[i];
            r[i] = s[i] - static_cast<Value>(omega) * t[i];
        }
        double rho_next = dot(r0, r);
        double beta = (rho_next / rho) * (alpha / omega);
        for (Index i = 0; i < n; ++i)
            p[i] = r[i] + static_cast<Value>(beta) *
                              (p[i] - static_cast<Value>(omega) * v[i]);
        rho = rho_next;
    }
    return x;
}

double
residualNorm(const MatrixView &m, const DenseVector &b,
             const DenseVector &x)
{
    DenseVector ax = spmvReference(m, x);
    DenseVector resid(m.rows());
    for (Index i = 0; i < m.rows(); ++i)
        resid[i] = b[i] - ax[i];
    return norm(resid);
}

AppTiming
runBicgstab(const MatrixView &m, int iterations, const CapstanConfig &cfg,
            int tiles)
{
    Machine mach(cfg, tiles);
    if (cfg.dram.compression)
        mach.setStreamCompression(
            streamCompressionRatio(m.columnStream(), 0.5));
    Tiling tiling = Tiling::roundRobin(m.rows(), tiles);
    Index rows_per_tile = (m.rows() + tiles - 1) / tiles;

    // The fused pipeline streams the matrix from DRAM twice per
    // iteration (v = A*p and t = A*s); every vector op and reduction
    // stays on-chip, chained behind the SpMV in the same phase.
    auto spmvPhase = [&]() {
        mach.runPhase({{StageKind::DramStream, 1},
                       {StageKind::SpmuCross, 1, sim::AccessOp::Read},
                       {StageKind::Map, kMapLatency},
                       {StageKind::Reduce, kMapLatency},
                       // Fused vector updates consume the SpMV output
                       // in place of a DRAM round-trip.
                       {StageKind::Map, kMapLatency},
                       {StageKind::Sink}},
                      [&](int t) {
                          return spmvRowTokens(m, tiling, t,
                                               rows_per_tile);
                      });
    };

    // On-chip vector phase: dots and axpys over the tile's rows.
    auto vectorPhase = [&](int chained_ops) {
        std::vector<StageSpec> chain(chained_ops,
                                     {StageKind::Map, kMapLatency});
        chain.push_back({StageKind::Reduce, kMapLatency});
        chain.push_back({StageKind::Sink});
        mach.runPhase(chain, [&](int t) {
            return laneChunks(static_cast<Index>(tiling.rowsOf(t).size()),
                              0, true);
        });
    };

    for (int it = 0; it < iterations; ++it) {
        spmvPhase();      // v = A p (+ alpha reduction).
        vectorPhase(2);   // s = r - alpha v, partial dots.
        spmvPhase();      // t = A s.
        vectorPhase(3);   // omega dots, x and r updates, next p.
    }
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
