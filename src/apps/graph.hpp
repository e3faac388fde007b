/**
 * @file
 * Frontier-based graph traversals: BFS and SSSP (Table 2).
 *
 * Both apps keep the frontier as a bitset scanned by the bit-vector
 * scanner, stream adjacency lists from DRAM, and update per-vertex
 * state with the SpMU's read-modify-write operations: BFS uses
 * test-and-set on the reached bitset and write-if-zero for back
 * pointers; SSSP uses min-report-changed for distance relaxation
 * (Section 3.1). Levels are barriers: the paper notes the on-chip
 * network dominates these apps because iterations cannot pipeline.
 */

#pragma once

#include <vector>

#include "apps/common.hpp"
#include "sparse/compressed.hpp"
#include "sparse/matrix.hpp"

namespace capstan::apps {

using sparse::MatrixView;

/**
 * BFS result: levels plus timing. The back-pointer writes are timed
 * (the Ptr stage) but their values are not kept.
 */
struct BfsResult
{
    std::vector<Index> level;   //!< -1 if unreachable.
    AppTiming timing;
};

/** SSSP result: distances plus timing (back pointers as in BfsResult). */
struct SsspResult
{
    std::vector<Value> dist;    //!< Infinity if unreachable.
    AppTiming timing;
};

/** Golden scalar BFS (level-synchronous). */
std::vector<Index> bfsReference(const MatrixView &graph, Index source);

/** Golden scalar SSSP (Dijkstra). */
std::vector<Value> ssspReference(const MatrixView &graph, Index source);

/**
 * BFS on Capstan.
 * @param write_pointers Emit back-pointer updates (disabled for the
 *        fairer Graphicionado comparison, Section 4.4).
 */
BfsResult runBfs(const MatrixView &graph, Index source,
                 const CapstanConfig &cfg, int tiles,
                 bool write_pointers = true);

/** Frontier-based SSSP (Bellman-Ford style) on Capstan. */
SsspResult runSssp(const MatrixView &graph, Index source,
                   const CapstanConfig &cfg, int tiles,
                   bool write_pointers = true);

} // namespace capstan::apps

