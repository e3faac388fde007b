/**
 * @file
 * Row-based (Gustavson's) sparse matrix-matrix multiply (Section 2.4).
 *
 * For each output row i: union the occupancy of the B rows selected by
 * A's row i into a Val bitset, accumulate scaled B rows into a dense
 * per-row tile with SpMU read-modify-writes, then sparse-iterate Val to
 * extract the compressed output row and swap the tile back to zero.
 * Rows pipeline through the chain, which is why SpMSpM reaches high
 * activity factors (Fig. 7).
 */

#pragma once

#include "apps/common.hpp"
#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"

namespace capstan::apps {

using sparse::CsrMatrix;
using sparse::MatrixView;

/** Golden scalar reference (row-merge Gustavson). */
CsrMatrix spmspmReference(const MatrixView &a, const MatrixView &b);

/** SpMSpM on Capstan. */
AppTiming runSpmspm(const MatrixView &a, const MatrixView &b,
                    const CapstanConfig &cfg, int tiles);

} // namespace capstan::apps

