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

/**
 * Default generation scale for a dataset in bench runs (relative to the
 * published size; DriverOptions::scale multiplies it).
 */
double defaultScale(const std::string &dataset);

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
 * The simulation runDriver(opts) performs, independent of how the
 * options spell it: the canonical app, the resolved dataset, the
 * generation scale (defaultScale(dataset) times the options' scale,
 * the one definition the dataset caches key on), the tile and
 * iteration counts, and the whole machine config buildConfig()
 * produces. Equal keys yield identical RunResults, so "scan-bits 256"
 * equals an unset scan-bits and "config=ideal" equals "config=ideal
 * memtech=ideal". The report planner merges points on it
 * (report/study.hpp).
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

/** The input a run simulates: exactly one member is set. */
struct Workload
{
    const workloads::ConvLayer *layer = nullptr;      //!< Conv.
    const workloads::MatrixDataset *matrix = nullptr; //!< Other apps.
};

/**
 * The workload @p key simulates, from the generate-once cache.
 * Analytic models that read a run's inputs (the report's CPU/GPU and
 * ASIC baselines) go through here, so a report generates, or reads
 * from --dataset-dir, each dataset once. Throws workloads::DatasetError
 * like runApp.
 */
Workload workload(const SimulationKey &key);

/**
 * Simulate @p key: the one dispatch over the Table 2 applications.
 * @p back_pointers makes BFS and SSSP write their back pointers, as
 * every run does but Table 13's Graphicionado rows, which no option
 * key can describe. Throws std::invalid_argument for an unknown app,
 * workloads::DatasetError for a dataset that cannot be resolved or a
 * rectangular matrix under a square-only app.
 */
AppTiming runApp(const SimulationKey &key, bool back_pointers);

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
 * Process-lifetime counters over the generate-once dataset caches
 * (matrix, conv, and M+M transpose). A miss is the lookup that
 * generated its entry, so misses count the entries generated; every
 * other successful lookup is a hit, including one that waited on
 * another thread's generation. Neither count depends on thread
 * timing. The engine and `capstan-serve` surface these so warm-cache
 * sharing across jobs is observable (docs/SERVE_PROTOCOL.md).
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

