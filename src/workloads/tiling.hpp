/**
 * @file
 * Workload tiling: mapping rows/vertices onto Capstan tiles (Section 4).
 *
 * The paper tiles graph datasets with Metis, weighting nodes by edge
 * count to balance the tiles, and tiles linear-algebra datasets with a
 * round-robin division of rows, columns, or non-zeros. Metis is not
 * available offline, so graph tiling here uses a contiguous greedy
 * partitioner balanced by edge count — road networks and banded matrices
 * keep their locality, which is the property that matters for the
 * shuffle network.
 */

#pragma once

#include <vector>

#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"
#include "sparse/types.hpp"

namespace capstan::workloads {

/** A partition of row/vertex ids onto tiles. */
class Tiling
{
  public:
    /** Number of tiles. */
    int tiles() const { return static_cast<int>(rows_of_.size()); }

    /** Tile owning row/vertex @p v. */
    int tileOf(Index v) const { return tile_of_[v]; }

    /** Index of @p v within its tile's local storage. */
    Index localIndex(Index v) const { return local_of_[v]; }

    /** Rows/vertices owned by tile @p t, in local order. */
    const std::vector<Index> &rowsOf(int t) const { return rows_of_[t]; }

    /** Largest tile weight divided by the mean (1.0 = perfect). */
    double imbalance() const;

    /**
     * Contiguous partition balanced by per-row weight (edge count):
     * the Metis substitute for graphs and banded matrices.
     */
    static Tiling byWeight(const sparse::MatrixView &m, int tiles);

    /** Round-robin partition of rows (linear-algebra default). */
    static Tiling roundRobin(Index rows, int tiles);

  private:
    std::vector<int> tile_of_;
    std::vector<Index> local_of_;
    std::vector<std::vector<Index>> rows_of_;
    std::vector<Index64> weight_of_;
};

} // namespace capstan::workloads

