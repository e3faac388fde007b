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

/** Result of a BiCGStab run. */
struct BicgstabResult
{
    DenseVector x;           //!< Approximate solution.
    double residual_norm;    //!< ||b - A x|| after the final iteration.
    int iterations_run;
    AppTiming timing;
};

/** Golden scalar reference; returns x after @p iterations. */
DenseVector bicgstabReference(const MatrixView &m, const DenseVector &b,
                              int iterations);

/** Fused BiCGStab on Capstan. */
BicgstabResult runBicgstab(const MatrixView &m, const DenseVector &b,
                           int iterations, const CapstanConfig &cfg,
                           int tiles = kDefaultTiles);

} // namespace capstan::apps

