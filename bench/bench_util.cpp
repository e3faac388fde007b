#include "bench_util.hpp"

#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>

#include "driver/options.hpp"
#include "report/reference.hpp"
#include "report/render.hpp"
#include "report/study.hpp"

namespace capstan::bench {

bool
parseArgs(int argc, char **argv, RunOptions &knobs, int &jobs)
{
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) {
            std::fprintf(stderr, "%s requires a value\n", flag.c_str());
            return false;
        }
        const std::string value = argv[++i];
        bool ok = false;
        if (flag == "--scale")
            ok = driver::parseNumber(value, knobs.scale_mult) &&
                 knobs.scale_mult > 0;
        else if (flag == "--tiles")
            ok = driver::parseInt(value, knobs.tiles) && knobs.tiles > 0;
        else if (flag == "--iterations")
            ok = driver::parseInt(value, knobs.iterations) &&
                 knobs.iterations > 0;
        else if (flag == "--jobs")
            ok = driver::parseInt(value, jobs) && jobs >= 0 &&
                 jobs <= 4096;
        else {
            std::fprintf(stderr,
                         "unknown flag '%s' (expected --scale, --tiles, "
                         "--iterations or --jobs)\n",
                         flag.c_str());
            return false;
        }
        if (!ok) {
            std::fprintf(stderr, "%s: invalid value '%s'\n",
                         flag.c_str(), value.c_str());
            return false;
        }
    }
    return true;
}

driver::SweepProgress
benchProgress()
{
    return [](std::size_t done, std::size_t total,
              const driver::SweepPointResult &r) {
        if (r.ok)
            std::fprintf(stderr, "  [%zu/%zu] %s / %s\n", done, total,
                         r.result.app.c_str(),
                         r.result.dataset.c_str());
        else
            std::fprintf(stderr, "  [%zu/%zu] FAILED: %s\n", done,
                         total, r.error.c_str());
    };
}

int
benchMain(const std::string &study_name, int argc, char **argv)
{
    const report::Study *study = report::findStudy(study_name);
    if (!study) {
        std::fprintf(stderr, "unknown study '%s'\n",
                     study_name.c_str());
        return 2;
    }

    report::StudyContext ctx;
    ctx.jobs = 0; // All cores.
    if (!parseArgs(argc, argv, ctx.knobs, ctx.jobs))
        return 2;
    ctx.progress = benchProgress();

    // Best-effort "ours / paper" cells: the reference lives at the
    // repo root; bench binaries usually run from there or from build/.
    report::Reference reference;
    for (const char *path : {"data/paper_reference.json",
                             "../data/paper_reference.json"}) {
        std::ifstream probe(path);
        if (!probe)
            continue;
        try {
            reference = report::Reference::fromFile(path);
            ctx.reference = &reference;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "warning: ignoring %s: %s\n", path,
                         e.what());
        }
        break;
    }

    std::printf("%s: %s\n\n", study->artifact.c_str(),
                study->title.c_str());
    report::StudyRun run =
        report::runPlan(report::planStudies({study}, ctx), ctx).front();
    if (!run.ok) {
        std::fprintf(stderr, "%s failed: %s\n", study_name.c_str(),
                     run.error.c_str());
        return 1;
    }
    std::cout << report::renderText(run.result);
    return 0;
}

} // namespace capstan::bench
