/**
 * @file
 * Command-line interface of `capstan-run`, the unified simulation driver.
 *
 * A run composes three orthogonal choices, each settable from flags:
 * an application (Table 2), a workload (a Table 6 synthetic dataset at
 * some scale), and a machine configuration (a Table 7 design point plus
 * individual overrides). Parsing is pure — it works on a vector of
 * argument strings and reports errors by value — so the test suite can
 * exercise it without a process boundary.
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "sim/config.hpp"

namespace capstan::driver {

/** Machine design points selectable with --config. */
enum class ConfigPoint {
    Capstan,    //!< The paper's primary design (Table 7).
    Plasticine, //!< The Plasticine baseline (Section 5).
    Ideal,      //!< Ideal network + memory (Table 12, first row).
};

/** Everything a `capstan-run` invocation specifies. */
struct DriverOptions
{
    std::string app = "spmv";     //!< Application name (see appNames()).
    /**
     * Dataset: a Table 6 name, `file:PATH` (a real .mtx / SNAP
     * edge-list file), or `mtx:NAME` (resolved under dataset_dir).
     * Empty = the app's default Table 6 name.
     */
    std::string dataset;
    /**
     * Directory of real dataset files (--dataset-dir). When set,
     * Table 6 names resolve to `<dir>/<name>.mtx` / `.el` / `.txt`
     * when present and fall back to the synthetic stand-ins (with a
     * stderr note) when not. Sweep points inherit it from the base.
     */
    std::string dataset_dir;
    double scale = 1.0;           //!< Multiplier on the bench scale.
    int tiles = 16;
    int iterations = 2;           //!< PageRank / BiCGStab iterations.

    ConfigPoint config = ConfigPoint::Capstan;
    sim::MemTech memtech = sim::MemTech::HBM2E;
    std::optional<sim::Ordering> ordering;   //!< SpMU override.
    std::optional<sim::MergeMode> merge;     //!< Shuffle override.
    std::optional<sim::BankHash> hash;       //!< Bank-hash override.
    std::optional<sim::AllocatorKind> allocator;
    std::optional<int> queue_depth;
    std::optional<double> bandwidth_gbps;    //!< DRAM override (Fig. 5a).
    bool compression = false;     //!< Pointer-tile DRAM compression.
    std::optional<bool> spmu_ideal; //!< Conflict-free SpMU (Table 9).
    std::optional<int> scan_bits;    //!< Scanner window bits (Fig. 6a).
    std::optional<int> scan_outputs; //!< Scan output width (Fig. 6c).
    std::optional<int> scan_data_elems; //!< Data scanner width (Fig. 6b).

    bool dry_run = false;         //!< Validate flags, run nothing.
    bool json = false;            //!< Emit JSON stats instead of text.
    int json_indent = 2;          //!< 0 = compact.
    std::string output;           //!< Write stats here; empty = stdout.

    // Sweep mode (src/driver/sweep.hpp). The single-run fields above
    // become the base point every sweep axis varies around.
    std::string sweep_file;       //!< JSON SweepSpec path (--sweep).
    /** Repeated `--axis key=v1,v2,...` values, in command-line order. */
    std::vector<std::pair<std::string, std::string>> sweep_axes;
    int jobs = 0;                 //!< Worker threads; 0 = all cores.
    std::string csv_output;       //!< Also write the sweep report as CSV.

    /** True when any sweep flag was given. */
    bool sweepRequested() const
    {
        return !sweep_file.empty() || !sweep_axes.empty();
    }
};

/** Outcome of parsing one argument vector. */
struct ParseResult
{
    DriverOptions options;
    bool show_help = false;       //!< --help was given.
    bool show_list = false;       //!< --list was given.
    std::string error;            //!< Non-empty on failure.

    bool ok() const { return error.empty(); }
};

/** The driver's application names, in Table 2 order. */
const std::vector<std::string> &appNames();

/**
 * Resolve a user-facing app name to the canonical bench key
 * (e.g. "spmv" -> "CSR", "spmv-coo" -> "COO", "pagerank" -> "PR-Pull").
 * Returns std::nullopt for unknown names. Matching is case-insensitive.
 */
std::optional<std::string> canonicalApp(const std::string &name);

/** Default Table 6 dataset for a canonical app key. */
std::string defaultDataset(const std::string &canonical_app);

/** Parse arguments (excluding argv[0]). Never throws. */
ParseResult parseArgs(const std::vector<std::string> &args);

/**
 * Strictly parse a finite decimal number: the whole string must
 * consume (no trailing garbage, so "4x" and "" fail). Never throws.
 * This is the single numeric-validation path shared by every CLI
 * (`capstan-run`, `capstan-report`, `capstan-serve`) and by sweep-axis
 * expansion, so a bad value always produces a usage error instead of a
 * crash or a silent zero.
 */
bool parseNumber(const std::string &value, double &out);

/** Strictly parse an integer (see parseNumber); rejects fractions. */
bool parseInt(const std::string &value, int &out);

/** Largest `--jobs` value any CLI accepts. */
inline constexpr int kMaxJobs = 4096;

/**
 * Strictly parse a `--jobs` value: an integer in [0, kMaxJobs], where
 * 0 means all cores (resolveJobs, driver/sweep.hpp). @p out is left
 * unchanged on failure. The one `--jobs` check of every CLI: a sweep
 * starts a helper thread per worker past the first, up to one per
 * point, so the cap keeps a typo from starting thousands of them.
 */
bool parseJobs(const std::string &value, int &out);

/**
 * Strictly parse a tile count: an integer in [1, sim::kMaxTiles].
 * @p out is left unchanged on failure. The tile-count check of
 * applyOption (capstan-run, sweep axes, a wire job's "options") and of
 * capstan-report's `--tiles`; a wire study's `"tiles"` is held to the
 * same sim::kMaxTiles. A lane's owning tile is an int8_t, so a larger
 * machine would misroute lanes or index out of bounds.
 */
bool parseTiles(const std::string &value, int &out);

/**
 * The run-defining option keys settable by name: "app", "dataset",
 * "scale", "tiles", "iterations", "config", "memtech", "ordering",
 * "merge", "hash", "allocator", "queue-depth", "bandwidth-gbps",
 * "compression", "spmu-ideal", "scan-bits", "scan-outputs",
 * "scan-data-elems". Flag parsing and sweep-axis expansion
 * (sweep.hpp) share this list, so a sweep can vary exactly what a
 * single run can set.
 */
const std::vector<std::string> &optionKeys();

/**
 * Apply one named option value (e.g. "memtech", "ddr4") to @p opts.
 * Returns an empty string on success, a diagnostic otherwise. This is
 * the single validation path behind parseArgs() and sweep axes.
 */
std::string applyOption(DriverOptions &opts, const std::string &key,
                        const std::string &value);

/**
 * The spelling applyOption() parses for an enum option's value
 * ("address", "mrg1", "xor", "weak"); the sim display names ("Address
 * Ordered", "Mrg-1") are not in its vocabulary. Parsing and these
 * share one table per enum.
 */
const char *optionToken(sim::Ordering mode);
const char *optionToken(sim::MergeMode mode);
const char *optionToken(sim::BankHash hash);
const char *optionToken(sim::AllocatorKind kind);

/** Build the machine configuration an option set describes. */
sim::CapstanConfig buildConfig(const DriverOptions &opts);

/** Display name of a design point ("capstan", "plasticine", "ideal"). */
std::string configPointName(ConfigPoint p);

/** Usage text for --help. */
std::string usageText();

/** App / dataset / config listing for --list. */
std::string listText();

/**
 * One-paragraph hint listing the valid dataset names and the `file:`
 * / `mtx:` schemes. The driver binaries print it after a
 * workloads::DatasetError so an unknown-dataset usage error (exit 2)
 * tells the user what would have worked.
 */
std::string datasetHint();

} // namespace capstan::driver

