/**
 * @file
 * PageRank in pull and edge-streaming variants (Table 2).
 *
 * PR-Pull iterates destination vertices (CSR of the transposed graph),
 * gathering neighbour ranks and reducing per vertex — it suffers
 * under-vectorization on low-degree vertices. PR-Edge streams the edge
 * list (COO) and scatters atomic contributions — it suffers SRAM
 * conflicts on power-law hubs. The choice between them is exactly the
 * trade-off Fig. 7 discusses.
 */

#pragma once

#include "apps/common.hpp"
#include "sparse/compressed.hpp"
#include "sparse/dense.hpp"
#include "sparse/matrix.hpp"

namespace capstan::apps {

using sparse::DenseVector;
using sparse::MatrixView;

/** Golden scalar reference (synchronous power iteration). */
DenseVector pageRankReference(const MatrixView &graph, int iterations,
                              Value damping = 0.85f);

/** Pull-based PageRank on Capstan. */
AppTiming runPageRankPull(const MatrixView &graph, int iterations,
                          const CapstanConfig &cfg, int tiles);

/** Edge-streaming PageRank on Capstan. */
AppTiming runPageRankEdge(const MatrixView &graph, int iterations,
                          const CapstanConfig &cfg, int tiles);

} // namespace capstan::apps

