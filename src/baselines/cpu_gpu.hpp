/**
 * @file
 * Analytic CPU and GPU baseline models (Table 12).
 *
 * The paper measures TACO and GraphIt on a four-socket Xeon E7-8890 v3
 * (128 threads) and cuSparse/Gunrock on an Nvidia V100. Neither machine
 * is available offline, so these are calibrated roofline-style models:
 * each kernel is characterized by the bytes it streams, the
 * random/gather/atomic accesses it makes, its flops, its branchy scalar
 * merge work (TACO's co-iteration loops), and its launch/barrier count;
 * the model takes the binding bottleneck and adds fixed per-kernel
 * overheads. Hardware constants come from public specs with
 * conventional efficiency derates.
 */

#pragma once

#include "sparse/compressed.hpp"
#include "sparse/dense.hpp"
#include "sparse/matrix.hpp"
#include "workloads/synth.hpp"

namespace capstan::baselines {

using sparse::DenseVector;
using sparse::MatrixView;

/** Bottleneck characterization of one kernel (or fused kernel chain). */
struct KernelProfile
{
    double stream_bytes = 0;     //!< Sequential DRAM traffic.
    double gather_words = 0;     //!< Cache-resident irregular gathers.
    double random_words = 0;     //!< DRAM-missing irregular accesses.
    double atomic_updates = 0;   //!< Contended atomic writes.
    double flops = 0;            //!< Arithmetic work.
    double serial_merge_ops = 0; //!< Branchy co-iteration steps that do
                                 //!< not parallelize (TACO merges).
    int kernel_launches = 1;     //!< Kernels (GPU) / parallel regions.
    int sync_barriers = 0;       //!< Level/iteration barriers.

    KernelProfile &operator+=(const KernelProfile &other);
};

/**
 * Runtime on the 128-thread, 4-socket Xeon baseline, in seconds, on
 * the whole machine: the slowest of its memory, compute and serial
 * merge throughput terms, plus fixed launch and barrier overheads.
 */
double cpuSeconds(const KernelProfile &profile);

/** Runtime on the V100 baseline, in seconds; see cpuSeconds. */
double gpuSeconds(const KernelProfile &profile);

/** @name Per-application profile builders (Table 2 semantics). @{ */
KernelProfile profileSpmvCsr(const MatrixView &m);
KernelProfile profileSpmvCoo(const MatrixView &m);
KernelProfile profileSpmvCsc(const MatrixView &m, double vec_density);
KernelProfile profileConv(const workloads::ConvLayer &layer);
/**
 * Sparse convolution as a CPU tensor compiler emits it: scalar
 * co-iteration over activation and weight non-zeros with irregular
 * output accumulation (this is what makes the paper's CPU conv column
 * so slow; dense GPU libraries use profileConv instead).
 */
KernelProfile profileConvSparseCpu(const workloads::ConvLayer &layer);
KernelProfile profilePageRankPull(const MatrixView &g, int iterations);
KernelProfile profilePageRankEdge(const MatrixView &g, int iterations);
KernelProfile profileBfs(const MatrixView &g, int levels);
KernelProfile profileSssp(const MatrixView &g, int levels);
KernelProfile profileMatAdd(const MatrixView &a, const MatrixView &b);
KernelProfile profileSpmspm(const MatrixView &a, const MatrixView &b);
/**
 * BiCGStab as the baselines run it: separate kernels per step, with
 * every intermediate vector round-tripping through DRAM (the fusion
 * the paper's Section 4.4 highlights is exactly what this lacks).
 */
KernelProfile profileBicgstab(const MatrixView &m, int iterations);
/** @} */

} // namespace capstan::baselines

