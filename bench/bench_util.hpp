/**
 * @file
 * Thin compatibility layer for the benchmark harness. Since the study
 * registry moved the table/figure logic into `src/report/`
 * (report/study.hpp), each bench binary is a shim: it parses the
 * historical `--scale` / `--tiles` / `--iterations` / `--jobs` flags
 * and runs its registered study via benchMain(), printing the same
 * plain-text tables as before. `capstan-report` renders the identical
 * studies to Markdown/CSV/JSON and checks them against the paper
 * (docs/REPRODUCTION.md).
 */

#pragma once

#include <string>
#include <vector>

#include "apps/common.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "report/catalog.hpp"
#include "sim/config.hpp"

namespace capstan::bench {

using apps::AppTiming;
using sim::CapstanConfig;

/** The eleven application columns, in Table 12 order. */
using report::allApps;

/** Table 6 datasets evaluated for @p app (paper order). */
using report::datasetsFor;

/** Geometric mean of positive values (non-positive entries skipped). */
using report::gmean;

/** Seconds for a timing at the configuration's clock. */
using report::seconds;

/**
 * Default generation scale for a dataset in bench runs (relative to
 * the published size; multiplied by the CLI --scale factor). Forwarded
 * from the driver's dispatch table (src/driver/runner.hpp).
 */
using driver::defaultScale;

/** Extra knobs a run can adjust (shared with `capstan-run`). */
using RunOptions = driver::RunKnobs;

/**
 * Run @p app on @p dataset under @p cfg; returns its timing. Datasets
 * are generated once per (name, scale) and cached across calls. This
 * is the driver's dispatch (src/driver/runner.hpp), shared so the
 * bench harness, the study registry, and `capstan-run` measure exactly
 * the same runs.
 */
using driver::runApp;

/**
 * Parse `--scale <f>`, `--tiles <n>`, `--iterations <n>` and `--jobs
 * <n>` (sweep worker threads; 0 = all cores) from argv into @p knobs
 * and @p jobs. Values go through the drivers' strict parsers
 * (driver::parseNumber / driver::parseInt). Returns false, after
 * printing the offending flag, on a missing or malformed value or an
 * unknown flag.
 */
bool parseArgs(int argc, char **argv, RunOptions &knobs, int &jobs);

/** Progress printer ("  [3/77] CSR / ckt11752_dc_1") for stderr. */
driver::SweepProgress benchProgress();

/**
 * The body of every bench shim: run the registered study named
 * @p study under the parsed CLI knobs (searching
 * data/paper_reference.json, then ../data/paper_reference.json, for
 * the "ours / paper" display values) and print its tables as text.
 * Returns the process exit code.
 */
int benchMain(const std::string &study, int argc, char **argv);

} // namespace capstan::bench

