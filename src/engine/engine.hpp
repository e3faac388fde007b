/**
 * @file
 * The shared execution engine behind every Capstan entry point.
 *
 * Before this layer existed, `capstan-run` and `capstan-report` each
 * held their own slice of execution logic: dataset caching lived in
 * the runner and report presets were wired into the report CLI.
 * The Engine owns those pieces once — the generate-once dataset /
 * `.cbin` caches (process-wide, driver/runner.cpp), the process's one
 * thread setting (`--jobs`), and the paper reference — and exposes one
 * validated JobRequest/JobResult model covering the three job kinds
 * (single run, sweep, report study). The CLIs are thin front-ends
 * that build a JobRequest and execute it here; `capstan-serve`
 * (src/serve/) keeps one Engine alive across every client, which is
 * what makes the daemon cache-warm.
 *
 * Determinism: executing a JobRequest produces the *byte-identical*
 * JSON document the corresponding CLI invocation prints
 * (tests/test_engine.cpp pins a 12-point differential matrix), and
 * results never depend on the worker count or on whether a cancel
 * token was armed but unfired.
 *
 * Concurrency: execute() and executeStudies() run one job on the
 * calling thread (internally parallel via driver::runSweep). The engine
 * serializes concurrent calls with a mutex — the serve executor is
 * single-threaded anyway — while stats() is safe to call from any
 * thread at any time.
 */

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "report/reference.hpp"
#include "report/render.hpp"
#include "report/study.hpp"

namespace capstan::engine {

using common::JsonValue;

/** Host-side environment shared by every job the engine executes. */
struct EngineConfig
{
    /**
     * Sweep worker threads (resolveJobs contract; 0 = all cores): the
     * one thread setting, used by every sweep and study job.
     */
    int jobs = 0;
    /** Real-dataset directory; empty keeps datasets synthetic. */
    std::string dataset_dir;
    /**
     * Paper reference path for study checks. Empty = search the
     * default locations (data/paper_reference.json, then
     * ../data/paper_reference.json) and tolerate absence.
     */
    std::string reference;
};

/**
 * One validated job. CLIs build it directly from parsed flags;
 * `capstan-serve` builds it from a wire JSON document via fromJson(),
 * which funnels every option through driver::applyOption — the same
 * single validation path the flag parser uses.
 */
struct JobRequest
{
    enum class Kind { Run, Sweep, Study };

    Kind kind = Kind::Run;

    /** Run: the full option set. Sweep: the base point. */
    driver::DriverOptions options;

    /** Sweep: base + axes (spec.base mirrors `options`). */
    driver::SweepSpec spec;

    /** Study: registered study name (report/study.hpp). */
    std::string study;
    /** Study: "quick" or "full" preset. */
    std::string preset = "quick";
    /** Study: preset overrides; unset = the preset's values. */
    std::optional<double> scale;
    std::optional<int> tiles;
    std::optional<int> iterations;
    /** Study: request a reference check (CLI --check). */
    bool check = false;

    /**
     * Build a request from a wire document, e.g.
     *   {"type": "run", "options": {"app": "spmv", "scale": 0.2}}
     *   {"type": "sweep", "options": {...}, "axes": {"app": [...]}}
     *   {"type": "study", "study": "table10", "preset": "quick"}
     * The host knob (the dataset dir) comes from
     * @p defaults — the daemon's environment — never from the wire.
     * Throws std::invalid_argument with a diagnostic on any unknown
     * member, unknown option key, or invalid value.
     */
    static JobRequest fromJson(const JsonValue &doc,
                               const EngineConfig &defaults);

    /** The wire form of this request; fromJson round-trips it. */
    JsonValue toJson() const;
};

/** Optional per-job streaming hooks. */
struct ExecHooks
{
    /**
     * Per-point progress: each sweep point, each planned study point
     * (merged points report when their shared run finishes), and the
     * run itself.
     */
    driver::SweepProgress progress;
    /** Study jobs: the plan, once it is built and before it runs. */
    std::function<void(const report::ReportPlan &)> planned;
    /**
     * Cooperative cancel token. The engine arms it for the job as the
     * process's token (common/interrupt.hpp): the sweep loop polls it
     * before each claim (finish the claimed point, skip the rest) and
     * an in-flight simulation unwinds at its next step boundary.
     */
    const std::atomic<bool> *cancel = nullptr;
};

/** The outcome of one executed job. */
struct JobResult
{
    bool ok = false;
    /** Exit-2 class: bad request, unknown dataset/study, bad value. */
    bool usage_error = false;
    /** The cancel token fired; `document` holds the partial report. */
    bool interrupted = false;
    std::string error; //!< Diagnostic when !ok.

    /**
     * The job's JSON document — byte-identical to the corresponding
     * CLI output: statsToJson (run), sweepReportToJson (sweep), or
     * reportToJson of the single study (study).
     */
    JsonValue document;

    /** Typed payloads for the in-process CLI front-ends. */
    std::optional<driver::RunResult> run;
    std::vector<driver::SweepPointResult> sweep;
    std::optional<report::StudyRun> study_run;
};

/** Whole-process engine counters (surfaced by `capstan-serve`). */
struct EngineStats
{
    std::uint64_t jobs_completed = 0;
    std::uint64_t jobs_failed = 0;    //!< Includes usage errors.
    std::uint64_t jobs_interrupted = 0;
    driver::DatasetCacheStats dataset_cache;
};

/** RunKnobs for a report preset ("quick" or "full"). */
driver::RunKnobs presetKnobs(const std::string &preset);

class Engine
{
  public:
    explicit Engine(EngineConfig cfg = {});
    Engine(const Engine &) = delete;
    Engine &operator=(const Engine &) = delete;

    const EngineConfig &config() const { return cfg_; }

    /** Resolved sweep worker count (>= 1). */
    int jobs() const { return jobs_; }

    /**
     * The paper reference: loads on first use (explicit path must
     * parse — throws std::runtime_error; default search tolerates
     * absence and returns null).
     */
    const report::Reference *reference();

    /** The study knobs a Study request resolves to (for ReportMeta). */
    driver::RunKnobs studyKnobs(const JobRequest &req) const;

    /** Execute one job; never throws (failures land in the result). */
    JobResult execute(const JobRequest &req,
                      const ExecHooks &hooks = {});

    /**
     * Execute @p studies as one report under @p req's preset and knob
     * overrides (its `study` is ignored): every study's planned points
     * run as one deduplicated sweep, then each study derives in the
     * given order (report::runPlan). One job under one hold of the
     * exec mutex; `capstan-report` runs its whole selection here, and
     * a Study job is the one-study case.
     * Study failures land in the StudyRuns; only studyKnobs() and
     * reference() errors (unknown preset, unparsable reference) throw.
     */
    std::vector<report::StudyRun>
    executeStudies(const std::vector<const report::Study *> &studies,
                   const JobRequest &req, const ExecHooks &hooks = {});

    EngineStats stats() const;

  private:
    JobResult executeLocked(const JobRequest &req,
                            const ExecHooks &hooks);
    std::vector<report::StudyRun>
    studiesLocked(const std::vector<const report::Study *> &studies,
                  const JobRequest &req, const ExecHooks &hooks);
    void countJob(bool ok, bool interrupted);

    EngineConfig cfg_;
    int jobs_ = 1; //!< cfg_.jobs resolved.

    std::mutex exec_mutex_; //!< Serializes execute() calls.

    std::mutex reference_mutex_;
    bool reference_loaded_ = false;
    std::optional<report::Reference> reference_;

    std::atomic<std::uint64_t> jobs_completed_{0};
    std::atomic<std::uint64_t> jobs_failed_{0};
    std::atomic<std::uint64_t> jobs_interrupted_{0};
};

} // namespace capstan::engine
