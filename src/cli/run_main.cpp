/**
 * @file
 * `capstan-run`: the unified command-line simulation driver.
 *
 * Front-end only: flags parse into driver::DriverOptions (unchanged),
 * which become an engine::JobRequest executed on the shared engine
 * layer (src/engine/) — the same path `capstan-serve` jobs take, which
 * is what the byte-identity differential test pins
 * (tests/test_engine.cpp). With `--sweep` / `--axis` the request is a
 * sweep; the engine expands and runs it on `--jobs` workers and this
 * front-end just streams stderr progress and writes the report.
 *
 * SIGINT/SIGTERM interrupt cooperatively: the current point finishes
 * (single runs unwind at the next simulation step), the partial JSON
 * report is flushed with `"interrupted": true`, and the process exits
 * 130.
 */

#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include "common/interrupt.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "engine/engine.hpp"

namespace {

using namespace capstan::driver;
namespace engine = capstan::engine;
namespace common = capstan::common;

/** Exit status of a run cut short by SIGINT/SIGTERM. */
constexpr int kInterruptedExit = 130;

constexpr const char *kProg = "capstan-run";

bool
writeReport(const std::string &path, const std::string &report)
{
    if (path.empty()) {
        std::cout << report;
        return true;
    }
    std::ofstream out(path);
    if (out)
        out << report;
    out.close();
    if (!out) {
        std::cerr << kProg << ": failed writing '" << path << "'\n";
        return false;
    }
    return true;
}

int
runSingle(const DriverOptions &opts)
{
    engine::Engine eng{engine::EngineConfig{}};
    engine::JobRequest req;
    req.kind = engine::JobRequest::Kind::Run;
    req.options = opts;
    engine::ExecHooks hooks;
    hooks.cancel = &common::interruptFlag();
    engine::JobResult res = eng.execute(req, hooks);

    if (res.interrupted) {
        // The partial identity document is all we have; it is always
        // JSON (a half-run simulation has no text summary).
        std::cerr << kProg << ": interrupted\n";
        writeReport(opts.output, res.document.dump(opts.json_indent) + "\n");
        return kInterruptedExit;
    }
    if (res.usage_error) {
        std::cerr << kProg << ": " << res.error << "\n"
                  << datasetHint() << "\n";
        return 2;
    }
    if (!res.ok) {
        std::cerr << kProg << ": " << res.error << "\n";
        return 1;
    }
    std::string report =
        opts.json ? res.document.dump(opts.json_indent) + "\n"
                  : statsToText(*res.run);
    return writeReport(opts.output, report) ? 0 : 1;
}

int
runSweepMode(const DriverOptions &opts)
{
    JsonValue spec_doc;
    bool have_doc = false;
    if (!opts.sweep_file.empty()) {
        std::ifstream in(opts.sweep_file);
        if (!in) {
            // Docs dry-run their example commands before the example
            // spec files exist; validate the remaining flags instead
            // of failing on the missing file.
            if (opts.dry_run) {
                SweepSpec spec = specFromOptions(opts, nullptr);
                expandSweep(spec);
                std::cout << kProg << ": dry run ok (sweep spec '"
                          << opts.sweep_file << "' not read)\n";
                return 0;
            }
            std::cerr << kProg << ": cannot open sweep spec '"
                      << opts.sweep_file << "'\n";
            return 2;
        }
        std::ostringstream text;
        text << in.rdbuf();
        spec_doc = JsonValue::parse(text.str());
        have_doc = true;
    }

    SweepSpec spec =
        specFromOptions(opts, have_doc ? &spec_doc : nullptr);
    std::vector<DriverOptions> points = expandSweep(spec);
    if (points.empty()) {
        std::cerr << kProg << ": sweep expands to zero points\n";
        return 2;
    }
    if (opts.dry_run) {
        std::cout << kProg << ": dry run ok (" << points.size()
                  << " points)\n";
        return 0;
    }

    engine::EngineConfig cfg;
    cfg.jobs = opts.jobs;
    engine::Engine eng(cfg);
    std::fprintf(stderr, "%s: %zu points on %d thread%s\n", kProg,
                 points.size(), eng.jobs(), eng.jobs() == 1 ? "" : "s");

    engine::JobRequest req;
    req.kind = engine::JobRequest::Kind::Sweep;
    req.options = spec.base;
    req.spec = spec;

    engine::ExecHooks hooks;
    // Finish-current-point semantics: the sweep loop polls this token
    // between points, so Ctrl-C never truncates a point mid-flight.
    hooks.cancel = &common::interruptFlag();
    hooks.progress = [&](std::size_t done, std::size_t total,
                         const SweepPointResult &r) {
        if (r.ok)
            std::fprintf(stderr, "  [%zu/%zu] %s / %s: %llu cycles\n",
                         done, total, r.result.app.c_str(),
                         r.result.dataset.c_str(),
                         static_cast<unsigned long long>(
                             r.result.timing.cycles));
        else
            std::fprintf(stderr, "  [%zu/%zu] FAILED: %s\n", done,
                         total, r.error.c_str());
    };
    engine::JobResult res = eng.execute(req, hooks);

    if (res.document.isNull()) {
        // Nothing ran at all (e.g. a bad axis slipped past parse).
        std::cerr << kProg << ": " << res.error << "\n";
        return res.usage_error ? 2 : 1;
    }
    std::string report = res.document.dump(opts.json_indent) + "\n";
    if (!writeReport(opts.output, report))
        return 1;
    if (!opts.csv_output.empty() &&
        !writeReport(opts.csv_output, sweepReportToCsv(res.sweep)))
        return 1;

    if (res.interrupted) {
        std::cerr << kProg << ": interrupted; partial report flushed\n";
        return kInterruptedExit;
    }
    if (res.usage_error) {
        // Same exit-2 contract as single-run mode: a bad dataset
        // name/file is a usage error, not a simulation failure.
        std::cerr << datasetHint() << "\n";
        return 2;
    }
    return res.ok ? 0 : 1; // Report emitted; signal partial failure.
}

} // namespace

int
main(int argc, char **argv)
{
    ParseResult parsed =
        parseArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (!parsed.ok()) {
        std::cerr << kProg << ": " << parsed.error << "\n";
        return 2;
    }
    if (parsed.show_help) {
        std::cout << usageText();
        return 0;
    }
    if (parsed.show_list) {
        std::cout << listText();
        return 0;
    }
    // A bad --dataset-dir silently running everything synthetic would
    // defeat the flag's purpose; same contract as capstan-report.
    // (Dry runs validate flags only: documented commands reference
    // directories the user has not fetched yet.)
    if (!parsed.options.dataset_dir.empty() &&
        !parsed.options.dry_run) {
        std::error_code ec;
        if (!std::filesystem::is_directory(parsed.options.dataset_dir,
                                           ec)) {
            std::cerr << kProg << ": --dataset-dir '"
                      << parsed.options.dataset_dir
                      << "' is not a directory\n";
            return 2;
        }
    }

    capstan::common::installInterruptHandlers();
    try {
        if (parsed.options.dry_run &&
            !parsed.options.sweepRequested()) {
            std::cout << kProg << ": dry run ok\n";
            return 0;
        }
        return parsed.options.sweepRequested()
                   ? runSweepMode(parsed.options)
                   : runSingle(parsed.options);
    } catch (const std::exception &e) {
        std::cerr << kProg << ": " << e.what() << "\n";
        return 1;
    }
}
