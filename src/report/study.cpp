#include "report/study.hpp"

#include <stdexcept>

#include "report/studies.hpp"

namespace capstan::report {

std::vector<driver::SweepPointResult>
StudyContext::sweep(
    const std::vector<driver::DriverOptions> &points) const
{
    driver::SweepExec exec;
    exec.jobs = jobs;
    exec.pool = pool;
    exec.cancel = cancel;
    exec.progress = progress;
    auto results = driver::runSweep(points, exec);
    std::size_t failed = 0;
    std::string detail;
    for (const auto &r : results) {
        // Skipped points (cancel fired before the claim) and points
        // unwound by the machine-level cancel poll both mean the
        // study was interrupted, not broken.
        if (r.skipped || (!r.ok && r.error == "interrupted"))
            throw StudyInterrupted();
        if (r.ok)
            continue;
        ++failed;
        if (failed <= 5)
            detail += (failed == 1 ? "" : "; ") + r.error;
    }
    if (failed > 0) {
        std::string what = std::to_string(failed) + " of " +
                           std::to_string(results.size()) +
                           " sweep points failed: " + detail;
        if (failed > 5)
            what += "; ...";
        throw std::runtime_error(what);
    }
    return results;
}

driver::DriverOptions
StudyContext::base(const std::string &app,
                   const std::string &dataset) const
{
    driver::DriverOptions base;
    base.app = app;
    base.dataset = dataset;
    base.dataset_dir = knobs.dataset_dir;
    base.scale = knobs.scale_mult;
    base.tiles = knobs.tiles;
    base.iterations = knobs.iterations;
    return base;
}

const std::vector<Study> &
allStudies()
{
    static const std::vector<Study> studies = {
        {"table4", "Table 4",
         "SpMU throughput vs queue depth, crossbar, priorities",
         runTable4},
        {"table5", "Table 5",
         "Scanner area vs width and output vectorization", runTable5},
        {"table8", "Table 8",
         "Chip area and power, Capstan vs Plasticine", runTable8},
        {"table9", "Table 9",
         "Application sensitivity to the SpMU architecture",
         runTable9},
        {"table10", "Table 10",
         "Cost of SpMU memory-ordering modes", runTable10},
        {"table11", "Table 11",
         "Sensitivity to the merge (shuffle) network", runTable11},
        {"table12", "Table 12",
         "Runtimes normalized to the fastest Capstan-HBM2E variant",
         runTable12},
        {"table13", "Table 13",
         "Capstan vs recently-proposed sparse ASICs", runTable13},
        {"fig4", "Figure 4",
         "Traced request vector under each ordering mode", runFig4},
        {"fig5", "Figure 5",
         "Bandwidth, area, and compression sensitivity", runFig5},
        {"fig6", "Figure 6",
         "Sensitivity to scanner geometry", runFig6},
        {"fig7", "Figure 7",
         "Execution-time breakdown per application and dataset",
         runFig7},
        {"micro_components", "Microbenchmarks",
         "Deterministic component throughput (allocator, SpMU, "
         "scanner, shuffle, compression)",
         runMicroComponents},
    };
    return studies;
}

const Study *
findStudy(const std::string &name)
{
    for (const auto &s : allStudies()) {
        if (s.name == name)
            return &s;
    }
    return nullptr;
}

} // namespace capstan::report
