/**
 * @file
 * The simulation runner behind `capstan-run` and the report studies.
 *
 * One entry point composes any Table 2 application with any Table 6
 * dataset under any machine configuration and returns the full timing.
 * Datasets are generated once per (name, scale) and cached for the
 * lifetime of the process, so parameter sweeps only pay generation
 * once; the cache is thread-safe with generate-once semantics, so the
 * sweep engine's workers (driver/sweep.hpp) can run points
 * concurrently and share workloads. The report studies
 * (report/study.hpp) delegate here, which keeps a single dispatch
 * table for the whole repo.
 */

#pragma once

#include <cstdint>
#include <string>

#include "apps/common.hpp"
#include "common/json.hpp"
#include "driver/options.hpp"
#include "sim/config.hpp"
#include "workloads/datasets.hpp"

namespace capstan::driver {

using apps::AppTiming;
using common::JsonParseError;
using common::JsonValue;
using sim::CapstanConfig;

/** Per-run knobs shared by the CLI and the report studies. */
struct RunKnobs
{
    int tiles = 16;
    int iterations = 2;  //!< PageRank / BiCGStab iterations.
    double scale_mult = 1.0;
    bool write_pointers = true; //!< BFS/SSSP back pointers.
    /**
     * Directory of real dataset files (--dataset-dir); empty keeps
     * every dataset synthetic. See workloads::resolveMatrixDataset.
     */
    std::string dataset_dir;
};

/**
 * Default generation scale for a dataset in bench runs (relative to the
 * published size; multiplied by the knobs' scale factor).
 */
double defaultScale(const std::string &dataset);

/**
 * The generation scale a run actually uses:
 * defaultScale(dataset) * knobs.scale_mult. The single definition the
 * dispatch and the reporting layer both key the dataset cache on.
 */
double effectiveScale(const std::string &dataset,
                      const RunKnobs &knobs);

/** Workload dimensions, for reporting. */
struct DatasetInfo
{
    Index rows = 0;
    Index cols = 0;
    Index64 nnz = 0; //!< Matrix non-zeros; -1 for conv layers.
    /** Source file of a real dataset; empty for synthetic. */
    std::string source;
    /**
     * Host storage footprints measured on the loaded dataset (0 for
     * conv layers): plain CSR bytes and the delta + group-varint
     * encoded bytes.
     */
    std::uint64_t csr_bytes = 0;
    std::uint64_t encoded_bytes = 0;
};

/**
 * Run canonical app @p app ("CSR", "PR-Pull", ...) on @p dataset under
 * @p cfg. Throws std::invalid_argument for unknown names.
 */
AppTiming runApp(const std::string &app, const std::string &dataset,
                 const CapstanConfig &cfg, const RunKnobs &knobs = {});

/** The input a run simulates: exactly one member is set. */
struct Workload
{
    const workloads::ConvLayer *layer = nullptr;      //!< Conv.
    const workloads::MatrixDataset *matrix = nullptr; //!< Other apps.
};

/**
 * The workload runApp(@p app, @p dataset, ..., @p knobs) simulates,
 * from the same generate-once cache. Analytic models that read a
 * run's inputs (the report's CPU/GPU and ASIC baselines) go through
 * here, so a report generates, or reads from --dataset-dir, each
 * dataset once. Throws workloads::DatasetError like runApp.
 */
Workload workload(const std::string &app, const std::string &dataset,
                  const RunKnobs &knobs);

/** Result of one driver invocation. */
struct RunResult
{
    std::string app;         //!< Canonical app key.
    std::string dataset;
    std::string config_name; //!< Requested design point.
    double scale = 1.0;      //!< Effective generation scale.
    int tiles = 16;
    int iterations = 2;
    DatasetInfo info;
    CapstanConfig config;
    AppTiming timing;
};

/** Execute the run an option set describes. */
RunResult runDriver(const DriverOptions &opts);

/**
 * The simulation runDriver(opts) performs, independent of how the
 * options spell it: the canonical app, the resolved dataset, the
 * knobs, and the whole machine config buildConfig() produces. Equal
 * keys yield identical RunResults, so "scan-bits 256" equals an unset
 * scan-bits and "config=ideal" equals "config=ideal memtech=ideal".
 * The report planner merges points on it (report/study.hpp).
 */
struct SimulationKey
{
    std::string app;
    std::string dataset;
    std::string dataset_dir;
    double scale = 1.0;
    int tiles = 0;
    int iterations = 0;
    CapstanConfig config;

    auto operator<=>(const SimulationKey &) const = default;
};
SimulationKey simulationKey(const DriverOptions &opts);

/**
 * Process-lifetime counters over the generate-once dataset caches
 * (matrix, conv, and M+M transpose). A hit is a lookup that found the
 * entry already generated; a miss paid (or waited on) generation. The
 * engine and `capstan-serve` surface these so warm-cache sharing
 * across jobs is observable (docs/SERVE_PROTOCOL.md).
 */
struct DatasetCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
};
DatasetCacheStats datasetCacheStats();

/**
 * Serialize a result to the driver's JSON stats schema: run identity,
 * machine configuration, cycle/runtime totals, lane-occupancy classes,
 * DRAM traffic, and aggregate SpMU behaviour.
 */
JsonValue statsToJson(const RunResult &r);

/** Human-readable one-run summary (the default, non-JSON output). */
std::string statsToText(const RunResult &r);

} // namespace capstan::driver

