#include "baselines/cpu_gpu.hpp"

#include <algorithm>
#include <cmath>

namespace capstan::baselines {

namespace {

/**
 * Four-socket Xeon E7-8890 v3 constants: 72 cores / 144 threads (the
 * paper uses 128), ~102 GB/s per socket peak. Derates follow common
 * STREAM/pointer-chase measurements for this NUMA class.
 */
struct CpuRates
{
    double stream_bw = 150e9;      //!< B/s effective (NUMA-derated).
    double gather_rate = 4e9;      //!< LLC-resident gathers/s.
    double random_rate = 0.9e9;    //!< DRAM-missing accesses/s.
    double atomic_rate = 0.20e9;   //!< Contended atomics/s.
    double flop_rate = 1.2e12;     //!< AVX2 FMA sustained.
    double merge_rate = 0.08e9;    //!< Branchy serial merge steps/s.
    double launch_cost = 5e-6;     //!< Parallel-region fork/join.
    double barrier_cost = 18e-6;   //!< Cross-socket barrier.
};

/** V100 constants: 900 GB/s HBM2, 80 SMs. */
struct GpuRates
{
    double stream_bw = 740e9;      //!< B/s effective.
    double gather_rate = 40e9;     //!< Texture-cache gathers/s.
    double random_rate = 5e9;      //!< 32 B-sector wasteful accesses/s.
    double atomic_rate = 1.8e9;    //!< Global atomics/s.
    double flop_rate = 7e12;       //!< FP32 sustained.
    double merge_rate = 1.5e9;     //!< Merge-path style co-iteration.
    double launch_cost = 8e-6;     //!< Kernel launch latency.
    double barrier_cost = 12e-6;   //!< Device sync between kernels.
};

template <typename Rates>
double
modelSeconds(const KernelProfile &p, const Rates &r)
{
    // The memory system serves streams, gathers, randoms, and atomics
    // from shared bandwidth: take the max of each bottleneck and the
    // compute/merge time, then add fixed overheads.
    double mem = p.stream_bytes / r.stream_bw +
                 p.gather_words / r.gather_rate +
                 p.random_words / r.random_rate +
                 p.atomic_updates / r.atomic_rate;
    double compute = p.flops / r.flop_rate;
    double merge = p.serial_merge_ops / r.merge_rate;
    double overhead = p.kernel_launches * r.launch_cost +
                      p.sync_barriers * r.barrier_cost;
    return std::max({mem, compute, merge}) + overhead;
}

/** Average BFS/SSSP level count estimate when not supplied. */
int
estimateLevels(const MatrixView &g)
{
    // Road-like graphs have huge diameters; power-law ones are shallow.
    double avg_degree =
        static_cast<double>(g.nnz()) / std::max<Index>(1, g.rows());
    if (avg_degree < 4.0)
        return static_cast<int>(std::sqrt(static_cast<double>(g.rows())));
    return static_cast<int>(2.5 * std::log2(std::max<Index>(2, g.rows())));
}

} // namespace

KernelProfile &
KernelProfile::operator+=(const KernelProfile &other)
{
    stream_bytes += other.stream_bytes;
    gather_words += other.gather_words;
    random_words += other.random_words;
    atomic_updates += other.atomic_updates;
    flops += other.flops;
    serial_merge_ops += other.serial_merge_ops;
    kernel_launches += other.kernel_launches;
    sync_barriers += other.sync_barriers;
    return *this;
}

double
cpuSeconds(const KernelProfile &p)
{
    return modelSeconds(p, CpuRates{});
}

double
gpuSeconds(const KernelProfile &p)
{
    return modelSeconds(p, GpuRates{});
}

KernelProfile
profileSpmvCsr(const MatrixView &m)
{
    KernelProfile p;
    p.stream_bytes = 8.0 * m.nnz() + 8.0 * m.rows();
    p.gather_words = m.nnz(); // v[c]: LLC-resident for these sizes.
    p.flops = 2.0 * m.nnz();
    return p;
}

KernelProfile
profileSpmvCoo(const MatrixView &m)
{
    KernelProfile p;
    p.stream_bytes = 12.0 * m.nnz() + 4.0 * m.rows();
    p.gather_words = m.nnz();
    p.atomic_updates = m.nnz(); // out[r] += ... in value order.
    p.flops = 2.0 * m.nnz();
    return p;
}

KernelProfile
profileSpmvCsc(const MatrixView &m, double vec_density)
{
    KernelProfile p;
    double nnz_eff = m.nnz() * vec_density;
    p.stream_bytes = 8.0 * nnz_eff + 4.0 * m.cols();
    p.atomic_updates = nnz_eff; // scattered out[r] updates.
    p.flops = 2.0 * nnz_eff;
    return p;
}

KernelProfile
profileConv(const workloads::ConvLayer &layer)
{
    KernelProfile p;
    // Dense libraries (MKL-DNN / cuDNN) do not skip zeros: full GEMM
    // work over the im2col matrix.
    double macs = 2.0 * layer.dim * layer.dim * layer.kdim * layer.kdim *
                  layer.in_channels * layer.out_channels;
    p.flops = macs;
    p.stream_bytes = 4.0 * (layer.activations.data().size() +
                            layer.kernel.data().size()) * layer.kdim;
    return p;
}

KernelProfile
profileConvSparseCpu(const workloads::ConvLayer &layer)
{
    KernelProfile p;
    double act_nnz = static_cast<double>(layer.activations.nnz());
    double w_per_ic = static_cast<double>(layer.kernel.nnz()) /
                      std::max<Index>(1, layer.in_channels);
    double macs = act_nnz * w_per_ic;
    p.flops = 2.0 * macs;
    p.gather_words = macs;          // scattered output accumulation.
    p.serial_merge_ops = 0.25 * macs; // branchy nested sparse loops.
    p.stream_bytes = 8.0 * (act_nnz + layer.kernel.nnz());
    return p;
}

KernelProfile
profilePageRankPull(const MatrixView &g, int iterations)
{
    KernelProfile p;
    p.stream_bytes = iterations * (4.0 * g.nnz() + 12.0 * g.rows());
    p.random_words = iterations * static_cast<double>(g.nnz());
    p.flops = iterations * 2.0 * g.nnz();
    p.kernel_launches = iterations;
    p.sync_barriers = iterations;
    return p;
}

KernelProfile
profilePageRankEdge(const MatrixView &g, int iterations)
{
    KernelProfile p;
    p.stream_bytes = iterations * (8.0 * g.nnz() + 8.0 * g.rows());
    p.atomic_updates = iterations * static_cast<double>(g.nnz());
    p.flops = iterations * 2.0 * g.nnz();
    p.kernel_launches = iterations;
    p.sync_barriers = iterations;
    return p;
}

KernelProfile
profileBfs(const MatrixView &g, int levels)
{
    if (levels <= 0)
        levels = estimateLevels(g);
    KernelProfile p;
    p.stream_bytes = 4.0 * g.nnz() + 8.0 * g.rows();
    p.random_words = g.nnz(); // visited checks on random dst.
    p.kernel_launches = levels;
    p.sync_barriers = levels;
    return p;
}

KernelProfile
profileSssp(const MatrixView &g, int levels)
{
    if (levels <= 0)
        levels = estimateLevels(g);
    KernelProfile p;
    // Frontier-based relaxation revisits edges; ~1.5x edge traffic.
    p.stream_bytes = 1.5 * 8.0 * g.nnz() + 8.0 * g.rows();
    p.random_words = 1.5 * g.nnz();
    p.atomic_updates = 0.5 * g.nnz(); // distance CAS updates.
    p.kernel_launches = levels;
    p.sync_barriers = levels;
    return p;
}

KernelProfile
profileMatAdd(const MatrixView &a, const MatrixView &b)
{
    KernelProfile p;
    p.stream_bytes = 8.0 * (a.nnz() + b.nnz()) * 2.0;
    // TACO's two-way merge is a serial branchy loop per row; rows are
    // short, so parallel scaling collapses (Table 12's 2254x column).
    p.serial_merge_ops = 2.0 * (a.nnz() + b.nnz());
    p.flops = a.nnz() + b.nnz();
    return p;
}

KernelProfile
profileSpmspm(const MatrixView &a, const MatrixView &b)
{
    KernelProfile p;
    double mults = 0;
    for (Index i = 0; i < a.rows(); ++i) {
        for (Index j : a.indices(i))
            mults += b.length(j);
    }
    p.flops = 2.0 * mults;
    p.stream_bytes = 8.0 * (a.nnz() + mults);
    // Row-wise products accumulate through an irregular array: gathers
    // dominate, but the work parallelizes across rows.
    p.gather_words = 2.0 * mults;
    return p;
}

KernelProfile
profileBicgstab(const MatrixView &m, int iterations)
{
    KernelProfile p;
    double n = m.rows();
    for (int it = 0; it < iterations; ++it) {
        // Two SpMVs...
        KernelProfile spmv = profileSpmvCsr(m);
        p += spmv;
        p += spmv;
        // ...four dots and six axpys, each a separate kernel streaming
        // its operand vectors through DRAM (no fusion).
        KernelProfile vec;
        vec.stream_bytes = 10.0 * 8.0 * n;
        vec.flops = 20.0 * n;
        vec.kernel_launches = 10;
        vec.sync_barriers = 4;
        p += vec;
    }
    return p;
}

} // namespace capstan::baselines
