/**
 * @file
 * Sparse matrix-vector multiplication in three formats (Table 2).
 *
 * CSR: dense iteration over rows, compressed columns within a row;
 *      gathers V[c] from on-chip memory and reduces per row.
 * COO: streams non-zeros in value order; gathers V[c] and atomically
 *      accumulates Out[r] across tiles (the RMW pattern Plasticine
 *      cannot support, Section 5).
 * CSC: iterates only the non-zero entries of the *input vector* via the
 *      data scanner, streaming one matrix column per non-zero input and
 *      scattering atomic updates into Out.
 */

#pragma once

#include "apps/common.hpp"
#include "sparse/compressed.hpp"
#include "sparse/dense.hpp"
#include "sparse/matrix.hpp"

namespace capstan::apps {

using sparse::CooMatrix;
using sparse::CsrMatrix;
using sparse::DenseVector;
using sparse::MatrixView;

/** Golden scalar reference: out = M * v. */
DenseVector spmvReference(const MatrixView &m, const DenseVector &v);

/**
 * CSR SpMV on Capstan with a dense input vector. The timing does not
 * depend on the vector's values, so none is passed.
 */
AppTiming runSpmvCsr(const MatrixView &m, const CapstanConfig &cfg,
                     int tiles);

/**
 * COO SpMV on Capstan (matrix streamed in coordinate form) with a
 * dense input vector; see runSpmvCsr.
 */
AppTiming runSpmvCoo(const MatrixView &m, const CapstanConfig &cfg,
                     int tiles);

/**
 * CSC SpMV on Capstan; @p v is expected to be sparse (the paper uses a
 * 30%-dense input vector, as in the EIE evaluation), and its zeros
 * drive the data scanner.
 */
AppTiming runSpmvCsc(const MatrixView &m, const DenseVector &v,
                     const CapstanConfig &cfg, int tiles);

} // namespace capstan::apps

