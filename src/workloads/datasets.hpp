/**
 * @file
 * Named dataset registry mirroring Table 6.
 *
 * Every dataset the paper evaluates has a synthetic structural stand-in
 * here (generators in synth.hpp), generated at a configurable scale:
 * scale 1.0 matches the published dimensions and nnz; smaller scales
 * shrink both proportionally so benchmark sweeps finish in reasonable
 * wall-time (driver::defaultScale holds each dataset's bench scale and
 * docs/REPRODUCTION.md each preset's multiplier). As in the paper,
 * p2p-Gnutella31 substitutes for flickr in sensitivity studies.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "workloads/io.hpp"
#include "workloads/synth.hpp"

namespace capstan::workloads {

/**
 * A named sparse-matrix dataset (linear algebra or graph). The matrix
 * lives in a MatrixStore (plain CSR plus its measured compressed size)
 * and serves the apps through the MatrixView read interface.
 */
struct MatrixDataset
{
    std::string name;
    sparse::MatrixStore matrix;
    /** Source file of a real dataset; empty for synthetic stand-ins. */
    std::string source = {};
};

/** Datasets used for SpMV, M+M, and BiCGStab (Table 6, top). */
std::vector<std::string> linearAlgebraDatasetNames();

/** Datasets used for PR, BFS, and SSSP (Table 6, middle). */
std::vector<std::string> graphDatasetNames();

/** Datasets used for SpMSpM (Table 6, lower-middle). */
std::vector<std::string> spmspmDatasetNames();

/** Convolution layer names (Table 6, bottom). */
std::vector<std::string> convDatasetNames();

/**
 * Generate a matrix/graph dataset by Table 6 name at @p scale.
 * Throws DatasetError (a std::invalid_argument) for unknown names and
 * for non-positive or non-finite scales.
 */
MatrixDataset loadMatrixDataset(const std::string &name,
                                double scale = 1.0);

/**
 * Resolve a dataset name to a real file or a synthetic stand-in:
 *
 *  - `file:PATH` loads PATH (`.mtx` → Matrix Market, anything else →
 *    SNAP edge list; a relative PATH that does not exist is retried
 *    under @p dataset_dir).
 *  - `mtx:NAME` loads `<dataset_dir>/NAME.mtx` (requires a dir).
 *  - Any other name first probes `<dataset_dir>/<name>.mtx` / `.el` /
 *    `.txt` when @p dataset_dir is set — so a Table 6 name resolves
 *    to the real matrix when one is present (scripts/
 *    fetch_datasets.sh) — then falls back to the synthetic generator
 *    (loadMatrixDataset), logging a one-line note to stderr once per
 *    (dir, name) so study output records the substitution.
 *
 * @p scale only applies to synthetic generation; a note is logged
 * when a non-unit scale is ignored for a real file. Throws
 * DatasetError for unknown names, missing files, malformed files, and
 * invalid scales.
 */
MatrixDataset
resolveMatrixDataset(const std::string &name, double scale = 1.0,
                     const std::string &dataset_dir = "");

/**
 * The real file resolveMatrixDataset would load for @p name (probing
 * the `file:` / `mtx:` schemes and @p dataset_dir), or nullopt when
 * the name is synthetic or no file is present. A pure probe — never
 * throws, never reads the file. The driver's dataset cache uses it to
 * key real datasets scale-independently (scale only applies to
 * synthetic generation, so every scale of a real file is the same
 * matrix).
 */
std::optional<std::string>
realDatasetPath(const std::string &name,
                const std::string &dataset_dir = "");

/** A named convolution layer. */
struct ConvDataset
{
    std::string name;
    ConvLayer layer;
};

/**
 * Generate a ResNet-50 layer dataset by name at @p scale. Conv layers
 * have no real-file counterpart (Table 6's bottom rows are pruned
 * tensors, not SuiteSparse/SNAP matrices), so there is no resolver.
 * Throws DatasetError for unknown names and invalid scales.
 */
ConvDataset loadConvDataset(const std::string &name, double scale = 1.0);

} // namespace capstan::workloads

