/**
 * @file
 * Synthetic dataset generators matching the structure of Table 6.
 *
 * The paper evaluates on SuiteSparse and SNAP datasets plus pruned
 * ResNet-50 layers. Those files are not available offline, so each
 * generator reproduces the *structural* properties that drive hardware
 * behaviour: dimensions, nnz, clustering, degree skew, and diagonal
 * locality. All generators are deterministic in their seed.
 */

#pragma once

#include <cstdint>

#include "sparse/dense.hpp"
#include "sparse/matrix.hpp"
#include "sparse/types.hpp"

namespace capstan::workloads {

using sparse::CsrMatrix;
using sparse::DenseTensor3;
using sparse::DenseTensor4;
using sparse::DenseVector;

/**
 * Circuit-simulation matrix (ckt11752_dc_1-like): strong diagonal plus
 * random two-terminal element stamps, mildly clustered near the
 * diagonal. Density ~0.014%.
 */
CsrMatrix circuitMatrix(Index n, Index64 target_nnz, std::uint32_t seed);

/**
 * Trefethen-style matrix: diagonal plus entries at power-of-two
 * off-diagonals |i-j| in {1,2,4,...}, giving ~2 log2(n) entries per row
 * spread across the full bandwidth.
 */
CsrMatrix trefethenMatrix(Index n);

/**
 * FEM stiffness matrix (bcsstk30-like): dense clustered blocks inside a
 * narrow band, ~70 nnz per row.
 */
CsrMatrix femMatrix(Index n, Index nnz_per_row, Index bandwidth,
                    std::uint32_t seed);

/**
 * Road network (usroads-48-like): near-planar grid with low, uniform
 * degree (~2.6 directed edges per node) and high diameter. Returned as
 * a CSR adjacency matrix with unit weights.
 */
CsrMatrix roadGraph(Index n, std::uint32_t seed);

/**
 * R-MAT power-law graph (web-Stanford / flickr / p2p-Gnutella-like).
 * Probabilities (a, b, c) follow the usual Graph500 parameterization;
 * duplicate edges are folded, so the result can land slightly under
 * @p edges.
 */
CsrMatrix rmatGraph(Index n, Index64 edges, std::uint32_t seed,
                    double a = 0.57, double b = 0.19, double c = 0.19);

/** Uniform random matrix at a given density (SpMSpM datasets). */
CsrMatrix uniformRandomMatrix(Index rows, Index cols, double density,
                              std::uint32_t seed);

/** Dense vector with the given fraction of non-zero elements. */
DenseVector sparseVector(Index n, double density, std::uint32_t seed);

/** A pruned convolution layer (activations + kernel). */
struct ConvLayer
{
    DenseTensor3 activations; //!< (inCh, dim, dim).
    DenseTensor4 kernel;      //!< (kdim, kdim, inCh, outCh).
    Index dim;
    Index kdim;
    Index in_channels;
    Index out_channels;
};

/**
 * ResNet-50-style pruned layer: activations at @p act_density (ReLU
 * sparsity), kernel pruned to @p kernel_density (the paper prunes to
 * 30% dense).
 */
ConvLayer convLayer(Index dim, Index kdim, Index in_channels,
                    Index out_channels, double act_density,
                    double kernel_density, std::uint32_t seed);

} // namespace capstan::workloads

