/**
 * @file
 * `capstan-report`: one-command paper reproduction.
 *
 * Runs registered studies (report/study.hpp) — every figure and table
 * the paper publishes — renders docs/RESULTS.md (Markdown),
 * report.json, and optionally a metrics CSV, and with `--check`
 * compares every checked metric against the paper values in
 * data/paper_reference.json, exiting non-zero iff any artifact
 * deviates beyond its tolerance.
 *
 * Front-end only: the whole selection executes as one
 * Engine::executeStudies call on the shared engine layer
 * (src/engine/) — every study's points in one deduplicated sweep, the
 * path a `capstan-serve` study job takes for one study, with the same
 * presets (engine::presetKnobs). SIGINT/SIGTERM cancel cooperatively:
 * in-flight points finish, unclaimed ones are skipped, every study
 * whose points all ran still derives, the partial report is flushed
 * with `"interrupted": true`, and the process exits 130.
 *
 *   capstan-report --all --preset quick --check
 *   capstan-report --study table12 --study fig5 --jobs 8
 *   capstan-report --list
 */

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <system_error>
#include <vector>

#include "common/interrupt.hpp"
#include "driver/options.hpp"
#include "engine/engine.hpp"
#include "report/catalog.hpp"
#include "report/render.hpp"
#include "report/study.hpp"

namespace {

using namespace capstan::report;
namespace engine = capstan::engine;

/** Exit status of a report cut short by SIGINT/SIGTERM. */
constexpr int kInterruptedExit = 130;

struct ReportArgs
{
    bool all = false;
    std::vector<std::string> studies;
    std::string preset = "quick"; //!< "quick" or "full".
    double scale = 0.0;           //!< >0 overrides the preset's scale.
    int tiles = 0;
    int iterations = 0;
    int jobs = 0;
    bool check = false;
    bool list = false;
    bool help = false;
    bool dry_run = false;
    std::string dataset_dir; //!< Real-dataset directory; empty = none.
    std::string reference; //!< Empty = search default locations.
    std::string markdown = "docs/RESULTS.md";
    std::string json = "report.json";
    std::string csv; //!< Empty = skip.
    std::string error;
};

const char *kUsage =
    "capstan-report: reproduce the paper's figures and tables\n"
    "\n"
    "Usage: capstan-report (--all | --study NAME...) [flags]\n"
    "\n"
    "Study selection:\n"
    "  --all              run every registered study (paper order)\n"
    "  --study NAME       run one study (repeatable; see --list)\n"
    "  --list             list registered studies, then exit\n"
    "\n"
    "Execution:\n"
    "  --preset P         quick (bench-smoke scales; the tolerances in\n"
    "                     data/paper_reference.json are calibrated\n"
    "                     here) or full (bench-default scales)\n"
    "  --scale F          override the preset's dataset scale\n"
    "  --tiles N          override the preset's tile count\n"
    "  --iterations N     override the preset's PR/BiCGStab iterations\n"
    "  --jobs N           sweep worker threads (default: all cores)\n"
    "  --dataset-dir DIR  resolve Table 6 names to real dataset files\n"
    "                     (DIR/<name>.mtx|.el|.txt) when present;\n"
    "                     absent names fall back to the synthetic\n"
    "                     stand-ins with a note\n"
    "\n"
    "Checking and output:\n"
    "  --check            compare against the paper reference; exit\n"
    "                     non-zero iff any artifact deviates beyond\n"
    "                     tolerance (or fails to run)\n"
    "  --reference PATH   paper reference JSON (default: search\n"
    "                     data/paper_reference.json, then\n"
    "                     ../data/paper_reference.json)\n"
    "  --markdown PATH    Markdown report (default: docs/RESULTS.md;\n"
    "                     'none' skips)\n"
    "  --json PATH        JSON report (default: report.json;\n"
    "                     'none' skips)\n"
    "  --csv PATH         also write one metric per row as CSV\n"
    "  --dry-run          validate flags and study names, run nothing\n"
    "  --help             this text\n";

ReportArgs
parseReportArgs(const std::vector<std::string> &args)
{
    ReportArgs a;
    auto fail = [&](const std::string &why) {
        a.error = why;
        return a;
    };
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= args.size())
                return false;
            out = args[++i];
            return true;
        };
        std::string v;
        if (arg == "--help" || arg == "-h") {
            a.help = true;
        } else if (arg == "--list") {
            a.list = true;
        } else if (arg == "--all") {
            a.all = true;
        } else if (arg == "--check") {
            a.check = true;
        } else if (arg == "--dry-run") {
            a.dry_run = true;
        } else if (arg == "--study") {
            if (!value(v))
                return fail("--study requires a name (see --list)");
            a.studies.push_back(v);
        } else if (arg == "--preset") {
            if (!value(v) || (v != "quick" && v != "full"))
                return fail("--preset requires quick|full");
            a.preset = v;
        } else if (arg == "--scale") {
            // Numeric flags go through the driver's strict parse
            // helpers (driver/options.hpp): "foo" or "4x" is a usage
            // error, never an uncaught exception or a silent zero.
            if (!value(v) || !capstan::driver::parseNumber(v, a.scale) ||
                a.scale <= 0)
                return fail("--scale requires a positive number");
        } else if (arg == "--tiles") {
            if (!value(v) || !capstan::driver::parseInt(v, a.tiles) ||
                a.tiles < 1)
                return fail("--tiles requires a positive integer");
        } else if (arg == "--iterations") {
            if (!value(v) ||
                !capstan::driver::parseInt(v, a.iterations) ||
                a.iterations < 1)
                return fail("--iterations requires a positive integer");
        } else if (arg == "--jobs") {
            // Same check as capstan-run and capstan-serve; 0 (the
            // default) means "all cores", resolved inside the engine.
            if (!value(v) || !capstan::driver::parseJobs(v, a.jobs))
                return fail("--jobs requires an integer in [0, 4096]");
        } else if (arg == "--dataset-dir") {
            if (!value(v))
                return fail("--dataset-dir requires a directory");
            a.dataset_dir = v;
        } else if (arg == "--reference") {
            if (!value(v))
                return fail("--reference requires a path");
            a.reference = v;
        } else if (arg == "--markdown") {
            if (!value(v))
                return fail("--markdown requires a path");
            a.markdown = v;
        } else if (arg == "--json") {
            if (!value(v))
                return fail("--json requires a path");
            a.json = v;
        } else if (arg == "--csv") {
            if (!value(v))
                return fail("--csv requires a path");
            a.csv = v;
        } else {
            return fail("unknown flag '" + arg + "' (see --help)");
        }
    }
    if (!a.help && !a.list && !a.all && a.studies.empty())
        return fail("nothing to run: pass --all or --study NAME "
                    "(see --list)");
    return a;
}

std::string
listStudies()
{
    std::string out = "Registered studies (paper order):\n";
    for (const auto &s : allStudies()) {
        out += "  " + s.name;
        out += std::string(s.name.size() < 18 ? 18 - s.name.size() : 1,
                           ' ');
        out += s.artifact + ": " + s.title + "\n";
    }
    return out;
}

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path);
    if (out)
        out << content;
    out.close();
    if (!out) {
        std::cerr << "capstan-report: failed writing '" << path
                  << "'\n";
        return false;
    }
    return true;
}

/** The study knobs and jobs the selection runs under. */
engine::JobRequest
studyRequest(const ReportArgs &args)
{
    engine::JobRequest req;
    req.kind = engine::JobRequest::Kind::Study;
    req.preset = args.preset;
    if (args.scale > 0)
        req.scale = args.scale;
    if (args.tiles > 0)
        req.tiles = args.tiles;
    if (args.iterations > 0)
        req.iterations = args.iterations;
    req.check = args.check;
    req.jobs = args.jobs;
    return req;
}

} // namespace

int
main(int argc, char **argv)
{
    ReportArgs args =
        parseReportArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (!args.error.empty()) {
        std::cerr << "capstan-report: " << args.error << "\n";
        return 2;
    }
    if (args.help) {
        std::cout << kUsage;
        return 0;
    }
    if (args.list) {
        std::cout << listStudies();
        return 0;
    }

    // Resolve the study selection: each study runs once, at its first
    // mention (--all mentions every study, in paper order).
    std::vector<const Study *> selected;
    if (args.all) {
        for (const auto &s : allStudies())
            selected.push_back(&s);
    }
    for (const auto &name : args.studies) {
        const Study *s = findStudy(name);
        if (!s) {
            std::cerr << "capstan-report: unknown study '" << name
                      << "' (see --list)\n";
            return 2;
        }
        if (std::find(selected.begin(), selected.end(), s) ==
            selected.end())
            selected.push_back(s);
    }

    if (args.dry_run) {
        std::cout << "capstan-report: dry run ok (" << selected.size()
                  << " studies)\n";
        return 0;
    }

    if (!args.dataset_dir.empty()) {
        std::error_code ec;
        if (!std::filesystem::is_directory(args.dataset_dir, ec)) {
            std::cerr << "capstan-report: --dataset-dir '"
                      << args.dataset_dir
                      << "' is not a directory\n";
            return 2;
        }
    }

    engine::EngineConfig cfg;
    cfg.jobs = args.jobs;
    cfg.dataset_dir = args.dataset_dir;
    cfg.reference = args.reference;
    engine::Engine eng(cfg);

    // Load the paper reference up front: an explicit path must parse;
    // the default search tolerates absence (studies then print plain
    // "ours" cells) unless --check needs it.
    const Reference *reference = nullptr;
    try {
        reference = eng.reference();
    } catch (const std::exception &e) {
        std::cerr << "capstan-report: " << e.what() << "\n";
        return 2;
    }
    if (args.check && !reference) {
        std::cerr << "capstan-report: --check needs a paper reference "
                     "(pass --reference data/paper_reference.json)\n";
        return 2;
    }

    // The request carries the knobs every selected study runs under.
    engine::JobRequest request = studyRequest(args);
    ReportMeta meta;
    meta.preset = args.preset;
    meta.checked = args.check;
    meta.knobs = eng.studyKnobs(request);

    capstan::common::installInterruptHandlers();

    engine::ExecHooks hooks;
    hooks.cancel = &capstan::common::interruptFlag();
    hooks.planned = [](const ReportPlan &plan) {
        std::fprintf(stderr,
                     "capstan-report: %zu studies, %zu planned points, "
                     "%zu distinct\n",
                     plan.studies.size(), plan.planned(),
                     plan.distinct.size());
    };
    std::vector<StudyRun> runs =
        eng.executeStudies(selected, request, hooks);
    bool dataset_usage_error = false;
    bool interrupted = false;
    for (const auto &run : runs) {
        dataset_usage_error |= run.usage_error;
        interrupted |= run.interrupted;
        std::fprintf(stderr, "capstan-report:   %s: %s\n",
                     run.study->name.c_str(), run.verdict().c_str());
    }

    bool wrote = true;
    if (args.markdown != "none")
        wrote &= writeFile(args.markdown, renderMarkdown(runs, meta));
    if (args.json != "none")
        wrote &= writeFile(
            args.json, reportToJson(runs, meta).dump(2) + "\n");
    if (!args.csv.empty())
        wrote &= writeFile(args.csv, renderCsv(runs, reference));
    if (!wrote)
        return 1;

    // Summary + exit status.
    std::size_t errors = 0, deviations = 0;
    for (const auto &run : runs) {
        errors += run.ok || run.interrupted ? 0 : 1;
        deviations += run.check.deviations.size();
        std::printf("%-18s %-12s %s", run.study->name.c_str(),
                    run.study->artifact.c_str(),
                    run.verdict().c_str());
        if (run.check.checked > 0)
            std::printf(" (%zu/%zu checked metrics)",
                        run.check.passed, run.check.checked);
        std::printf("\n");
    }
    if (interrupted) {
        std::fprintf(stderr, "capstan-report: interrupted; partial "
                             "report flushed\n");
        return kInterruptedExit;
    }
    if (errors > 0) {
        std::printf("%zu stud%s failed to run\n", errors,
                    errors == 1 ? "y" : "ies");
        if (dataset_usage_error) {
            std::cerr << capstan::driver::datasetHint() << "\n";
            return 2;
        }
        return 1;
    }
    if (args.check && deviations > 0) {
        std::printf("%zu checked metric%s deviated beyond tolerance "
                    "(see the report)\n",
                    deviations, deviations == 1 ? "" : "s");
        return 1;
    }
    return 0;
}
