/**
 * @file
 * Stabilized biconjugate gradient solver, BiCGStab (Section 4.4).
 *
 * The paper's showcase for streaming kernel fusion: each iteration runs
 * two SpMVs, four dot products, and several vector updates. On Capstan
 * these fuse into on-chip pipelines — only the matrix streams from DRAM
 * each pass — whereas the CPU/GPU baselines launch separate kernels and
 * round-trip every intermediate vector through memory (up to a 3x
 * slowdown relative to SpMV alone).
 */

#pragma once

#include "apps/common.hpp"
#include "sparse/compressed.hpp"
#include "sparse/dense.hpp"
#include "sparse/matrix.hpp"

namespace capstan::apps {

using sparse::DenseVector;
using sparse::MatrixView;

/** Golden scalar reference; returns x after @p iterations. */
DenseVector bicgstabReference(const MatrixView &m, const DenseVector &b,
                              int iterations);

/** ||b - M x||: the residual a solve for @p x leaves. */
double residualNorm(const MatrixView &m, const DenseVector &b,
                    const DenseVector &x);

/**
 * Fused BiCGStab on Capstan: @p iterations full iterations. The timing
 * does not depend on the right-hand side, so none is passed.
 */
AppTiming runBicgstab(const MatrixView &m, int iterations,
                      const CapstanConfig &cfg, int tiles);

} // namespace capstan::apps

