/**
 * @file
 * The parallel sweep engine behind `capstan-run --sweep` and the report
 * studies.
 *
 * Every result in the paper is a sweep: Figure 5 sweeps DRAM bandwidth
 * per application, Table 9 sweeps SpMU allocator strength, Table 12
 * crosses apps x datasets x machines. A SweepSpec declares such a study
 * as a base point (ordinary DriverOptions) plus axes — named option
 * keys with value lists — whose cartesian product expands into a
 * deterministic, deduplicated work list. runSweep() executes the list
 * on a thread pool (the per-process dataset cache is generate-once and
 * thread-safe, so concurrent points share workloads), and the report
 * layer aggregates per-point results into one JSON document (plus
 * optional CSV) whose ordering is the expansion order, independent of
 * completion order — reports are byte-identical across runs and thread
 * counts.
 *
 * Axis keys are exactly the driver's option keys (options.hpp:
 * optionKeys()), so a sweep can vary precisely what a single run can
 * set. Specs come from a JSON file (`--sweep spec.json`), from repeated
 * `--axis key=v1,v2` flags, or are built programmatically by the report
 * studies (src/report/studies_perf.cpp).
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"

namespace capstan::driver {

/** One swept dimension: an option key and the values it takes. */
struct SweepAxis
{
    std::string key;                 //!< One of optionKeys().
    std::vector<std::string> values; //!< Applied via applyOption().
};

/** A declarative parameter study: a base point plus swept axes. */
struct SweepSpec
{
    /** Un-swept knobs; every expanded point starts from this. */
    DriverOptions base;

    /**
     * Swept dimensions in canonical option-key order (the expansion
     * nests left-to-right, first axis outermost). set() keeps this
     * invariant, so expansion order never depends on flag order or
     * JSON key order.
     */
    std::vector<SweepAxis> axes;

    /** Replace (or insert, in canonical order) one axis. */
    void set(const std::string &key, std::vector<std::string> values);

    /**
     * Build a spec from a parsed JSON document. Each member maps an
     * option key to a scalar or an array of values; numbers and bools
     * are accepted and canonicalized to strings. Unknown keys and
     * invalid values throw std::invalid_argument.
     *
     * Example: {"app": ["spmv", "bfs"], "bandwidth-gbps": [20, 2000],
     *           "tiles": 4}
     */
    static SweepSpec fromJson(const JsonValue &doc,
                              const DriverOptions &base);

    /** The axes as a JSON object; fromJson(toJson()) round-trips. */
    JsonValue toJson() const;
};

/**
 * Build the spec a parsed command line describes: the JSON file from
 * --sweep (if any) with --axis overrides applied on top. Throws
 * std::invalid_argument on malformed axes; the caller reads and parses
 * the spec file (so tests need no filesystem).
 */
SweepSpec specFromOptions(const DriverOptions &opts,
                          const JsonValue *spec_doc);

/**
 * Expand a spec's cartesian product into concrete run options, in
 * deterministic nesting order, with exact-duplicate points removed
 * (first occurrence wins). Invalid axis keys/values throw
 * std::invalid_argument.
 */
std::vector<DriverOptions> expandSweep(const SweepSpec &spec);

/** The outcome of one sweep point. */
struct SweepPointResult
{
    DriverOptions options;  //!< The point that ran.
    bool ok = false;
    RunResult result;       //!< Valid when ok.
    std::string error;      //!< what() of the failure when !ok.
    /**
     * The failure was a workloads::DatasetError (unknown name,
     * missing/malformed file): a usage error the CLIs report with
     * exit 2 and the dataset hint, matching single-run mode.
     */
    bool usage_error = false;
    /**
     * The point never ran: a cancel token fired before a worker
     * claimed it (SweepExec::cancel). Skipped points carry
     * error = "interrupted: point not run" and render as skipped
     * entries in an `"interrupted": true` report
     * (docs/OUTPUT_SCHEMA.md).
     */
    bool skipped = false;
};

/** Called after each point completes; @p done counts finished points. */
using SweepProgress = std::function<void(
    std::size_t done, std::size_t total, const SweepPointResult &)>;

/**
 * How a sweep executes: worker count, an optional persistent pool, an
 * optional cancel token, and an optional progress callback. The
 * default-constructed value reproduces the classic
 * runSweep(points, 0, {}) behavior exactly.
 */
struct SweepExec
{
    /** Worker threads (resolveJobs contract; 0 = all cores). */
    int jobs = 0;
    /**
     * Persistent worker pool to dispatch on instead of a pool local to
     * the call (the engine's pool, shared across jobs so a daemon does
     * not churn threads). The effective worker count is clamped to the
     * pool's size; results are byte-identical either way.
     */
    common::WorkerPool *pool = nullptr;
    /**
     * Cooperative cancel token. Workers poll it before claiming the
     * next point: in-flight points finish, unclaimed points come back
     * `skipped`. Null = never cancelled.
     */
    const std::atomic<bool> *cancel = nullptr;
    /** Called after each point completes; serialized by a mutex. */
    SweepProgress progress;
};

/**
 * Execute @p points on @p jobs worker threads (0 = all cores). Results
 * are indexed exactly like @p points regardless of completion order.
 * Per-point failures are captured, not thrown, so one bad point cannot
 * sink a long sweep. @p progress (optional) is serialized by a mutex.
 */
std::vector<SweepPointResult>
runSweep(const std::vector<DriverOptions> &points, int jobs = 0,
         const SweepProgress &progress = {});

/** As above, under an explicit execution environment. */
std::vector<SweepPointResult>
runSweep(const std::vector<DriverOptions> &points,
         const SweepExec &exec);

/**
 * Worker-thread count a `--jobs` value resolves to. The contract is
 * shared by every entry point (`capstan-run`, `capstan-report`,
 * `capstan-serve`): values outside [0, kMaxJobs] are rejected at parse
 * time with a usage error (parseJobs, driver/options.hpp), and 0 (the
 * default) clamps to std::thread::hardware_concurrency() here (1 if
 * unknown).
 */
int resolveJobs(int jobs);

/**
 * Aggregate a sweep into one JSON report:
 * {"sweep": {"points": N, "failed": M, "axes": {...}},
 *  "results": [per-point stats schema, or {"point", "error"}]}.
 * Deliberately excludes wall-clock and thread count so reports are
 * byte-identical across runs (docs/OUTPUT_SCHEMA.md).
 */
JsonValue sweepReportToJson(const SweepSpec &spec,
                            const std::vector<SweepPointResult> &results);

/** Flat CSV (one row per point) for spreadsheet-side analysis. */
std::string
sweepReportToCsv(const std::vector<SweepPointResult> &results);

/**
 * RFC-4180 CSV field: quoted (with internal quotes doubled) only when
 * the value contains a comma, quote, or newline. Shared by the sweep
 * and report CSV writers.
 */
std::string csvField(const std::string &s);

} // namespace capstan::driver

