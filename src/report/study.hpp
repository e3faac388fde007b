/**
 * @file
 * The paper-artifact study registry behind `capstan-report`, and the
 * one path that executes studies.
 *
 * Every figure and table the paper publishes is registered here as a
 * named *study*. An application-level study is split in two: its
 * *plan* lists the (app x dataset x machine) points it needs as driver
 * options, and its *derive* builds tables and metrics from those
 * points' results. A component-level study plans nothing and derives
 * by stepping the hardware models directly. Any selection of studies
 * executes the same way (planStudies + runPlan): every planned point
 * is keyed by the simulation it resolves to (driver::simulationKey),
 * the distinct simulations run as one parallel sweep, and each study
 * then derives, in selection order, from exactly the results it
 * planned. `capstan-report --all` is one such call for all 13
 * studies; `capstan-report --study NAME` and a `capstan-serve` study
 * job are the one-study case.
 *
 * Study results are deterministic: simulated cycles depend only on the
 * preset knobs, never on the host, thread count, claim order, or
 * wall-clock, so rendered reports are byte-identical across runs (the
 * same property the sweep reports guarantee, docs/OUTPUT_SCHEMA.md).
 */

#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "report/reference.hpp"

namespace capstan::report {

/** One rendered table of a study (most studies have exactly one). */
struct StudyTable
{
    std::string title; //!< Subfigure/table caption; may be empty.
    std::vector<std::string> headers;
    std::vector<std::vector<std::string>> rows;
};

/** Everything one study produces. */
struct StudyResult
{
    std::vector<StudyTable> tables;

    /**
     * Flat numeric results in emission order, keyed as
     * data/paper_reference.json keys them (e.g. "gmean/hash",
     * "util/d8/x16/p1"). The reference comparator and the JSON/CSV
     * renderers consume these.
     */
    std::vector<std::pair<std::string, double>> metrics;

    std::string notes; //!< Paragraph(s) printed after the tables.
    /** Render notes verbatim in a code block (Fig. 4's trace grids). */
    bool preformatted_notes = false;

    void metric(const std::string &key, double value)
    {
        metrics.emplace_back(key, value);
    }
};

/** The planned points' timings, index-aligned with Study::plan(). */
using Timings = std::vector<driver::AppTiming>;

/** Execution environment a study runs under. */
struct StudyContext
{
    driver::RunKnobs knobs;      //!< Preset scale/tiles/iterations.
    int jobs = 0;                //!< Sweep workers; 0 = all cores.
    const Reference *reference = nullptr; //!< May be null.
    /**
     * Optional; called once per planned point (a point merged with
     * another reports when their shared run finishes), with the
     * planned point's options and the planned total.
     */
    driver::SweepProgress progress;
    /** Persistent sweep pool (the engine's); null = spawn per call. */
    common::WorkerPool *pool = nullptr;
    /**
     * Cancel token: unclaimed points are skipped once it fires, and
     * every study that planned a skipped point is `interrupted`.
     */
    const std::atomic<bool> *cancel = nullptr;

    /**
     * The point every study axis varies around: @p app on @p dataset
     * (empty = the app's default) under the preset knobs.
     */
    driver::DriverOptions base(const std::string &app,
                               const std::string &dataset) const;

    /** The paper's published value for an "ours / paper" cell. */
    std::optional<double> paper(const std::string &study,
                                const std::string &metric) const
    {
        if (!reference)
            return std::nullopt;
        return reference->paper(study, metric);
    }
};

/** A registered paper artifact. */
struct Study
{
    std::string name;     //!< CLI name, e.g. "table12".
    std::string artifact; //!< Paper label, e.g. "Table 12".
    std::string title;    //!< One-line description.
    /**
     * The points the study reads, in the order derive() indexes them.
     * Null for component studies, which simulate no application.
     */
    std::vector<driver::DriverOptions> (*plan)(const StudyContext &) =
        nullptr;
    /** Tables + metrics from the planned points' timings. */
    StudyResult (*derive)(const StudyContext &, const Timings &) =
        nullptr;
};

/** All registered studies, in paper order. */
const std::vector<Study> &allStudies();

/** Look a study up by name; nullptr when unknown. */
const Study *findStudy(const std::string &name);

/** One study's execution outcome inside a report. */
struct StudyRun
{
    const Study *study = nullptr;
    bool ok = false;
    std::string error;  //!< Diagnostic when !ok.
    StudyResult result; //!< Valid when ok.
    StudyCheck check;   //!< Against the reference, when one was given.
    /** The cancel token fired before the study's points all ran. */
    bool interrupted = false;
    /**
     * The failure was a workloads::DatasetError (unknown name,
     * missing/malformed file): the exit-2 class.
     */
    bool usage_error = false;

    /** "pass", "deviation", "unchecked", "interrupted", or "error". */
    std::string verdict() const;
};

/** A selection of studies resolved to one deduplicated work list. */
struct ReportPlan
{
    struct Entry
    {
        const Study *study = nullptr;
        std::vector<driver::DriverOptions> points; //!< As planned.
        /** points[i] runs as distinct[slots[i]]. */
        std::vector<std::size_t> slots;
        std::string error; //!< plan() threw; the study fails with it.
    };

    std::vector<Entry> studies; //!< In selection order.
    /**
     * One point per distinct simulation, in claim order: round-robin
     * across groups, groups in plan order. A group is one study's
     * points on one (app, dataset); a point several studies plan
     * belongs to the first. A study plans a dataset's points back to
     * back, and claiming them back to back would keep several of the
     * largest (Conv) runs resident at once.
     */
    std::vector<driver::DriverOptions> distinct;

    /** Planned points over every study, repeats included. */
    std::size_t planned() const;
};

/** Plan @p studies under @p ctx's knobs. Never throws. */
ReportPlan planStudies(const std::vector<const Study *> &studies,
                       const StudyContext &ctx);

/**
 * Run @p plan: its distinct points as one sweep on @p ctx's pool, then
 * every study's derive in plan order, checked against ctx.reference
 * when one is set. One StudyRun per planned study. A failed point
 * fails only the studies that planned it. Never throws.
 */
std::vector<StudyRun> runPlan(const ReportPlan &plan,
                              const StudyContext &ctx);

} // namespace capstan::report
