#include "apps/conv.hpp"

#include <algorithm>

namespace capstan::apps {

namespace {

/** One stored kernel weight of an input channel. */
struct KernelNz
{
    Index kr, kc, oc;
};

/**
 * Tile @p t's band of rows @p rows_per_tile high: the data scanner
 * sweeps each input channel's activations, and every non-zero scatters
 * its products with the channel's stored weights @p knz to the output
 * pixels' owners, 16 weights per token.
 */
TokenStream
activationTokens(const ConvLayer &layer,
                 const std::vector<std::vector<KernelNz>> &knz, int t,
                 Index rows_per_tile)
{
    Index dim = layer.dim;
    Index pad = layer.kdim / 2;
    Index r_begin = t * rows_per_tile;
    Index r_end = std::min<Index>(dim, r_begin + rows_per_tile);
    Index gap = 0; // Activation elements scanned since last nnz.
    for (Index ic = 0; ic < layer.in_channels; ++ic) {
        const auto &ks = knz[ic];
        Index len = static_cast<Index>(ks.size());
        for (Index r = r_begin; r < r_end; ++r) {
            for (Index c = 0; c < dim; ++c) {
                ++gap;
                Value a = layer.activations(ic, r, c);
                if (a == Value{0})
                    continue;
                Index this_gap = gap;
                gap = 0;
                for (Index base = 0; base < len; base += sim::kMaxLanes) {
                    int lanes = chunkLanes(len, base);
                    Token tok = Token::compute(lanes);
                    // The activation value + coordinates stream in with
                    // the first chunk.
                    tok.bytes = base == 0 ? 8 : 0;
                    tok.scan_elems =
                        base == 0 ? static_cast<std::int32_t>(this_gap)
                                  : 0;
                    for (int l = 0; l < lanes; ++l) {
                        const KernelNz &k = ks[base + l];
                        Index orow = r + k.kr - pad;
                        Index ocol = c + k.kc - pad;
                        if (orow < 0 || orow >= dim || ocol < 0 ||
                            ocol >= dim) {
                            // Edge contributions fall off the plane;
                            // lane still occupies a slot.
                            tok.addr[l] = 0;
                            tok.lane_tile[l] = static_cast<std::int8_t>(t);
                            continue;
                        }
                        int owner = static_cast<int>(orow / rows_per_tile);
                        Index local_row = orow % rows_per_tile;
                        tok.addr[l] = static_cast<std::uint32_t>(
                            (k.oc * rows_per_tile + local_row) * dim +
                            ocol);
                        tok.lane_tile[l] = static_cast<std::int8_t>(owner);
                    }
                    co_yield tok;
                }
            }
        }
    }
}

} // namespace

sparse::DenseTensor3
convReference(const ConvLayer &layer)
{
    Index dim = layer.dim;
    Index pad = layer.kdim / 2;
    sparse::DenseTensor3 out(layer.out_channels, dim, dim);
    for (Index ic = 0; ic < layer.in_channels; ++ic) {
        for (Index r = 0; r < dim; ++r) {
            for (Index c = 0; c < dim; ++c) {
                Value a = layer.activations(ic, r, c);
                if (a == Value{0})
                    continue;
                for (Index kr = 0; kr < layer.kdim; ++kr) {
                    for (Index kc = 0; kc < layer.kdim; ++kc) {
                        Index orow = r + kr - pad;
                        Index ocol = c + kc - pad;
                        if (orow < 0 || orow >= dim || ocol < 0 ||
                            ocol >= dim) {
                            continue;
                        }
                        for (Index oc = 0; oc < layer.out_channels;
                             ++oc) {
                            Value w = layer.kernel(kr, kc, ic, oc);
                            if (w != Value{0})
                                out(oc, orow, ocol) += a * w;
                        }
                    }
                }
            }
        }
    }
    return out;
}

AppTiming
runConv(const ConvLayer &layer, const CapstanConfig &cfg, int tiles)
{
    Index dim = layer.dim;
    Index rows_per_tile = (dim + tiles - 1) / tiles;

    // Pre-collect the kernel's non-zeros per input channel (loop 2 is
    // dense over nnz(K[iC])).
    std::vector<std::vector<KernelNz>> knz(layer.in_channels);
    for (Index kr = 0; kr < layer.kdim; ++kr) {
        for (Index kc = 0; kc < layer.kdim; ++kc) {
            for (Index ic = 0; ic < layer.in_channels; ++ic) {
                for (Index oc = 0; oc < layer.out_channels; ++oc) {
                    if (layer.kernel(kr, kc, ic, oc) != Value{0})
                        knz[ic].push_back({kr, kc, oc});
                }
            }
        }
    }

    Machine mach(cfg, tiles);

    // Phase 0: broadcast the pruned kernel on-chip (8 B per stored
    // weight, split across tiles by the multicast network).
    Index64 kernel_bytes = 8 * layer.kernel.nnz();
    mach.runPhase(kDramOnlyChain,
                  [&](int) { return dramBursts(kernel_bytes / tiles); });

    // Stream + data-scan activations (loop 1 is an outer loop, where
    // the one-output data scanner suffices, Section 3.3) -> read kernel
    // non-zeros on-chip -> multiply -> scatter atomic accumulations
    // (halo lanes cross tiles). Each tile owns a band of input (=
    // output) rows; scan positions are in the tile's local flattened
    // activation space.
    mach.runPhase({{StageKind::DramStream, 1},
                   {StageKind::DataScan, 1},
                   {StageKind::Spmu, 1, sim::AccessOp::Read},
                   {StageKind::Map, kMapLatency},
                   {StageKind::SpmuCross, 1, sim::AccessOp::AddF32},
                   {StageKind::Sink}},
                  [&](int t) {
                      return activationTokens(layer, knz, t,
                                              rows_per_tile);
                  });

    // Phase 2: stream the dense output plane back to DRAM.
    mach.runPhase(kDramOnlyChain, [&](int t) {
        Index r_begin = t * rows_per_tile;
        Index rows_here = std::max<Index>(
            0, std::min<Index>(dim, r_begin + rows_per_tile) - r_begin);
        return dramBursts(Index64{4} * layer.out_channels * rows_here *
                          dim);
    });
    return AppTiming::snapshot(mach);
}

} // namespace capstan::apps
