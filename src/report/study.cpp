#include "report/study.hpp"

#include <map>
#include <stdexcept>
#include <tuple>

#include "common/interrupt.hpp"
#include "report/studies.hpp"
#include "workloads/io.hpp"

namespace capstan::report {

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
         nullptr, deriveTable4},
        {"table5", "Table 5",
         "Scanner area vs width and output vectorization", nullptr,
         deriveTable5},
        {"table8", "Table 8",
         "Chip area and power, Capstan vs Plasticine", nullptr,
         deriveTable8},
        {"table9", "Table 9",
         "Application sensitivity to the SpMU architecture",
         planTable9, deriveTable9},
        {"table10", "Table 10",
         "Cost of SpMU memory-ordering modes", planTable10,
         deriveTable10},
        {"table11", "Table 11",
         "Sensitivity to the merge (shuffle) network", planTable11,
         deriveTable11},
        {"table12", "Table 12",
         "Runtimes normalized to the fastest Capstan-HBM2E variant",
         planTable12, deriveTable12},
        {"table13", "Table 13",
         "Capstan vs recently-proposed sparse ASICs", planTable13,
         deriveTable13},
        {"fig4", "Figure 4",
         "Traced request vector under each ordering mode", nullptr,
         deriveFig4},
        {"fig5", "Figure 5",
         "Bandwidth, area, and compression sensitivity", planFig5,
         deriveFig5},
        {"fig6", "Figure 6",
         "Sensitivity to scanner geometry", planFig6, deriveFig6},
        {"fig7", "Figure 7",
         "Execution-time breakdown per application and dataset",
         planFig7, deriveFig7},
        {"micro_components", "Microbenchmarks",
         "Deterministic component throughput (allocator, SpMU, "
         "scanner, shuffle, compression)",
         nullptr, deriveMicroComponents},
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

std::string
StudyRun::verdict() const
{
    if (interrupted)
        return "interrupted";
    if (!ok)
        return "error";
    if (!check.has_reference || check.checked == 0)
        return "unchecked";
    return check.pass() ? "pass" : "deviation";
}

std::size_t
ReportPlan::planned() const
{
    std::size_t n = 0;
    for (const auto &e : studies)
        n += e.points.size();
    return n;
}

ReportPlan
planStudies(const std::vector<const Study *> &studies,
            const StudyContext &ctx)
{
    ReportPlan plan;
    // First pass: merge points by the simulation they resolve to, in
    // plan order, and bucket the distinct ones by (study, app,
    // dataset).
    std::vector<driver::DriverOptions> distinct;
    std::map<driver::SimulationKey, std::size_t> slot_of;
    std::map<std::tuple<const Study *, std::string, std::string>,
             std::size_t>
        group_of;
    std::vector<std::vector<std::size_t>> groups;
    for (const Study *study : studies) {
        ReportPlan::Entry entry;
        entry.study = study;
        if (study->plan) {
            try {
                entry.points = study->plan(ctx);
            } catch (const std::exception &e) {
                entry.points.clear();
                entry.error = e.what();
            }
        }
        for (const auto &point : entry.points) {
            driver::SimulationKey key = driver::simulationKey(point);
            auto [it, fresh] = slot_of.emplace(key, distinct.size());
            if (fresh) {
                auto [g, new_group] = group_of.emplace(
                    std::make_tuple(study, key.app, key.dataset),
                    groups.size());
                if (new_group)
                    groups.emplace_back();
                groups[g->second].push_back(distinct.size());
                distinct.push_back(point);
            }
            entry.slots.push_back(it->second);
        }
        plan.studies.push_back(std::move(entry));
    }

    // Second pass: claim order takes each group's next point in turn.
    std::vector<std::size_t> claim(distinct.size());
    for (std::size_t round = 0; plan.distinct.size() < distinct.size();
         ++round) {
        for (const auto &group : groups) {
            if (round >= group.size())
                continue;
            claim[group[round]] = plan.distinct.size();
            plan.distinct.push_back(distinct[group[round]]);
        }
    }
    for (auto &entry : plan.studies) {
        for (std::size_t &slot : entry.slots)
            slot = claim[slot];
    }
    return plan;
}

namespace {

/** One study's outcome from its planned points' results. */
StudyRun
deriveStudy(const ReportPlan::Entry &entry,
            const std::vector<driver::SweepPointResult> &results,
            const StudyContext &ctx)
{
    StudyRun run;
    run.study = entry.study;
    if (!entry.error.empty()) {
        run.error = entry.error;
        return run;
    }
    // Skipped points (cancel fired before the claim) and points
    // unwound by the machine-level cancel poll both mean the study was
    // interrupted, not broken.
    for (std::size_t slot : entry.slots) {
        const driver::SweepPointResult &r = results[slot];
        if (r.skipped || (!r.ok && r.error == "interrupted")) {
            run.interrupted = true;
            run.error = "interrupted: study cancelled before its sweep "
                        "completed";
            return run;
        }
    }
    // A study must not render inf/nan cells from a half-failed sweep.
    Timings timings;
    std::size_t failed = 0;
    std::string detail;
    for (std::size_t slot : entry.slots) {
        const driver::SweepPointResult &r = results[slot];
        if (r.ok) {
            timings.push_back(r.result.timing);
            continue;
        }
        run.usage_error |= r.usage_error;
        if (++failed <= 5)
            detail += (failed == 1 ? "" : "; ") + r.error;
    }
    if (failed > 0) {
        run.error = std::to_string(failed) + " of " +
                    std::to_string(entry.slots.size()) +
                    " sweep points failed: " + detail;
        if (failed > 5)
            run.error += "; ...";
        return run;
    }
    try {
        run.result = entry.study->derive(ctx, timings);
        run.ok = true;
        if (ctx.reference)
            run.check = ctx.reference->check(entry.study->name,
                                             run.result.metrics);
    } catch (const common::CancelledError &) {
        run.error = "interrupted";
        run.interrupted = true;
    } catch (const workloads::DatasetError &e) {
        run.error = e.what();
        run.usage_error = true;
    } catch (const std::exception &e) {
        run.error = e.what();
    }
    return run;
}

} // namespace

std::vector<StudyRun>
runPlan(const ReportPlan &plan, const StudyContext &ctx)
{
    // Progress counts planned points: each distinct run answers every
    // point that merged into it.
    std::map<driver::SimulationKey, std::size_t> slot_of;
    std::vector<std::vector<const driver::DriverOptions *>> answers(
        plan.distinct.size());
    std::size_t done = 0;
    const std::size_t total = plan.planned();
    driver::SweepProgress progress;
    if (ctx.progress) {
        for (std::size_t d = 0; d < plan.distinct.size(); ++d)
            slot_of.emplace(driver::simulationKey(plan.distinct[d]), d);
        for (const auto &entry : plan.studies) {
            for (std::size_t i = 0; i < entry.points.size(); ++i)
                answers[entry.slots[i]].push_back(&entry.points[i]);
        }
        progress = [&](std::size_t, std::size_t,
                       const driver::SweepPointResult &r) {
            driver::SweepPointResult point = r;
            std::size_t slot =
                slot_of.at(driver::simulationKey(r.options));
            for (const driver::DriverOptions *options : answers[slot]) {
                point.options = *options;
                ctx.progress(++done, total, point);
            }
        };
    }
    std::vector<driver::SweepPointResult> results =
        driver::runSweep(plan.distinct, ctx.jobs, progress);

    std::vector<StudyRun> runs;
    for (const auto &entry : plan.studies)
        runs.push_back(deriveStudy(entry, results, ctx));
    return runs;
}

} // namespace capstan::report
