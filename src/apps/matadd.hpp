/**
 * @file
 * Sparse matrix addition, M+M (Table 2), with bit-tree iteration.
 *
 * C = A + B row by row: the union of each row pair's occupancy drives a
 * sparse-sparse union scan; matched entries add, unmatched entries copy
 * (the scanner's kNoIndex side reads as zero). Rows this sparse
 * (< 1% density) would drown a flat bit-vector scanner in zero windows,
 * so rows are stored as two-level bit-trees (Section 2.3): pass one
 * aligns the trees' leaves, pass two scans only the occupied leaves.
 */

#pragma once

#include "apps/common.hpp"
#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"

namespace capstan::apps {

using sparse::CsrMatrix;
using sparse::MatrixView;

/** Golden scalar reference: C = A + B. */
CsrMatrix matAddReference(const MatrixView &a, const MatrixView &b);

/**
 * M+M on Capstan.
 * @param use_bittree Use two-level bit-tree iteration (the paper's
 *        design); false falls back to flat bit-vector rows, which is
 *        dramatically slower on very sparse rows (Fig. 6a's motivation).
 * @throws std::invalid_argument when the operands' shapes differ.
 */
AppTiming runMatAdd(const MatrixView &a, const MatrixView &b,
                    const CapstanConfig &cfg, int tiles,
                    bool use_bittree = true);

} // namespace capstan::apps

