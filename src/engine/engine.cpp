#include "engine/engine.hpp"

#include <cmath>
#include <fstream>
#include <initializer_list>
#include <stdexcept>

#include "common/interrupt.hpp"
#include "workloads/io.hpp"

namespace capstan::engine {

namespace {

/** Largest integer a wire member takes where nothing tighter holds. */
constexpr int kMaxWireInt = 1'000'000'000;

int
requireInt(const JsonValue &v, const std::string &what, int min, int max)
{
    if (!v.isNumber() || v.asNumber() != std::floor(v.asNumber()))
        throw std::invalid_argument(what + " must be an integer");
    double n = v.asNumber();
    if (n < min || n > max)
        throw std::invalid_argument(what + " must be from " +
                                    std::to_string(min) + " to " +
                                    std::to_string(max));
    return static_cast<int>(n);
}

/** Apply a wire "options" object through the driver's single
 * validation path (driver::applyOption). */
void
applyOptionsObject(driver::DriverOptions &opts, const JsonValue &doc)
{
    if (!doc.isObject())
        throw std::invalid_argument(
            "\"options\" must be a JSON object of option: value "
            "members");
    for (const auto &[key, value] : doc.members()) {
        std::string err = driver::applyOption(
            opts, key,
            driver::scalarToString(value, "option '" + key + "'"));
        if (!err.empty())
            throw std::invalid_argument("option '" + key + "': " +
                                        err);
    }
}

/** The wire form of a run/sweep-base option set (round-trips
 * applyOptionsObject). */
JsonValue
optionsToJson(const driver::DriverOptions &o)
{
    JsonValue out = JsonValue::object();
    out.set("app", o.app);
    if (!o.dataset.empty())
        out.set("dataset", o.dataset);
    out.set("scale", o.scale);
    out.set("tiles", o.tiles);
    out.set("iterations", o.iterations);
    out.set("config", driver::configPointName(o.config));
    out.set("memtech", sim::memTechName(o.memtech));
    if (o.ordering)
        out.set("ordering", driver::optionToken(*o.ordering));
    if (o.merge)
        out.set("merge", driver::optionToken(*o.merge));
    if (o.hash)
        out.set("hash", driver::optionToken(*o.hash));
    if (o.allocator)
        out.set("allocator", driver::optionToken(*o.allocator));
    if (o.queue_depth)
        out.set("queue-depth", *o.queue_depth);
    if (o.bandwidth_gbps)
        out.set("bandwidth-gbps", *o.bandwidth_gbps);
    if (o.compression)
        out.set("compression", true);
    if (o.spmu_ideal)
        out.set("spmu-ideal", *o.spmu_ideal);
    if (o.scan_bits)
        out.set("scan-bits", *o.scan_bits);
    if (o.scan_outputs)
        out.set("scan-outputs", *o.scan_outputs);
    if (o.scan_data_elems)
        out.set("scan-data-elems", *o.scan_data_elems);
    return out;
}

/** Identity document for a run interrupted before stats existed. */
JsonValue
interruptedRunDoc(const driver::DriverOptions &o)
{
    std::string app = driver::canonicalApp(o.app).value_or(o.app);
    JsonValue doc = JsonValue::object();
    doc.set("app", app);
    doc.set("dataset", o.dataset.empty() ? driver::defaultDataset(app)
                                         : o.dataset);
    doc.set("interrupted", true);
    doc.set("error", "interrupted");
    return doc;
}

} // namespace

driver::RunKnobs
presetKnobs(const std::string &preset)
{
    // Mirrors what capstan-report always wired inline: quick runs the
    // bench-smoke scales the reference tolerances are calibrated
    // against; full runs the bench defaults.
    driver::RunKnobs knobs;
    if (preset == "quick") {
        knobs.scale_mult = 0.02;
        knobs.tiles = 4;
        knobs.iterations = 1;
    } else if (preset == "full") {
        knobs.scale_mult = 1.0;
        knobs.tiles = 16;
        knobs.iterations = 2;
    } else {
        throw std::invalid_argument("unknown preset '" + preset +
                                    "' (quick|full)");
    }
    return knobs;
}

JobRequest
JobRequest::fromJson(const JsonValue &doc, const EngineConfig &defaults)
{
    if (!doc.isObject())
        throw std::invalid_argument("request must be a JSON object");
    if (!doc.contains("type") || !doc.at("type").isString())
        throw std::invalid_argument(
            "request needs a \"type\" member: run|sweep|study");
    const std::string &type = doc.at("type").asString();

    JobRequest req;
    // Host knobs come from the engine's environment, never the wire.
    req.options.dataset_dir = defaults.dataset_dir;

    auto allow = [&](std::initializer_list<const char *> keys) {
        for (const auto &[key, value] : doc.members()) {
            (void)value;
            bool known = false;
            for (const char *k : keys)
                known |= key == k;
            if (!known)
                throw std::invalid_argument(
                    "unknown request member \"" + key + "\" for type "
                    "\"" + type + "\"");
        }
    };

    if (type == "run") {
        req.kind = Kind::Run;
        allow({"type", "options"});
        if (doc.contains("options"))
            applyOptionsObject(req.options, doc.at("options"));
    } else if (type == "sweep") {
        req.kind = Kind::Sweep;
        allow({"type", "options", "axes"});
        if (doc.contains("options"))
            applyOptionsObject(req.options, doc.at("options"));
        if (doc.contains("axes"))
            req.spec =
                driver::SweepSpec::fromJson(doc.at("axes"), req.options);
        else
            req.spec.base = req.options;
    } else if (type == "study") {
        req.kind = Kind::Study;
        allow({"type", "study", "preset", "scale", "tiles",
               "iterations", "check"});
        if (!doc.contains("study") || !doc.at("study").isString())
            throw std::invalid_argument(
                "study requests need a \"study\" name member");
        req.study = doc.at("study").asString();
        if (doc.contains("preset")) {
            if (!doc.at("preset").isString())
                throw std::invalid_argument(
                    "\"preset\" must be quick|full");
            req.preset = doc.at("preset").asString();
            presetKnobs(req.preset); // Validates the name.
        }
        if (doc.contains("scale")) {
            if (!doc.at("scale").isNumber() ||
                doc.at("scale").asNumber() <= 0)
                throw std::invalid_argument(
                    "\"scale\" must be a positive number");
            req.scale = doc.at("scale").asNumber();
        }
        if (doc.contains("tiles"))
            req.tiles = requireInt(doc.at("tiles"), "\"tiles\"", 1,
                                   sim::kMaxTiles);
        if (doc.contains("iterations"))
            req.iterations = requireInt(doc.at("iterations"),
                                        "\"iterations\"", 1, kMaxWireInt);
        if (doc.contains("check")) {
            if (!doc.at("check").isBool())
                throw std::invalid_argument(
                    "\"check\" must be a boolean");
            req.check = doc.at("check").asBool();
        }
    } else {
        throw std::invalid_argument("unknown request type \"" + type +
                                    "\" (run|sweep|study)");
    }
    return req;
}

JsonValue
JobRequest::toJson() const
{
    JsonValue doc = JsonValue::object();
    switch (kind) {
    case Kind::Run:
        doc.set("type", "run");
        doc.set("options", optionsToJson(options));
        break;
    case Kind::Sweep:
        doc.set("type", "sweep");
        doc.set("options", optionsToJson(spec.base));
        doc.set("axes", spec.toJson());
        break;
    case Kind::Study:
        doc.set("type", "study");
        doc.set("study", study);
        doc.set("preset", preset);
        if (scale)
            doc.set("scale", *scale);
        if (tiles)
            doc.set("tiles", *tiles);
        if (iterations)
            doc.set("iterations", *iterations);
        if (check)
            doc.set("check", true);
        break;
    }
    return doc;
}

Engine::Engine(EngineConfig cfg)
    : cfg_(std::move(cfg)), jobs_(driver::resolveJobs(cfg_.jobs))
{
}

const report::Reference *
Engine::reference()
{
    std::lock_guard<std::mutex> lock(reference_mutex_);
    if (reference_loaded_)
        return reference_ ? &*reference_ : nullptr;
    if (!cfg_.reference.empty()) {
        // An explicit path must parse; the error propagates so the
        // caller can report it as a usage error.
        reference_ = report::Reference::fromFile(cfg_.reference);
    } else {
        for (const std::string &path :
             {std::string("data/paper_reference.json"),
              std::string("../data/paper_reference.json")}) {
            std::ifstream probe(path);
            if (!probe)
                continue;
            reference_ = report::Reference::fromFile(path);
            break;
        }
    }
    reference_loaded_ = true;
    return reference_ ? &*reference_ : nullptr;
}

driver::RunKnobs
Engine::studyKnobs(const JobRequest &req) const
{
    driver::RunKnobs knobs = presetKnobs(req.preset);
    if (req.scale)
        knobs.scale_mult = *req.scale;
    if (req.tiles)
        knobs.tiles = *req.tiles;
    if (req.iterations)
        knobs.iterations = *req.iterations;
    knobs.dataset_dir = cfg_.dataset_dir;
    return knobs;
}

void
Engine::countJob(bool ok, bool interrupted)
{
    if (interrupted)
        jobs_interrupted_.fetch_add(1, std::memory_order_relaxed);
    else if (ok)
        jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    else
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
}

JobResult
Engine::execute(const JobRequest &req, const ExecHooks &hooks)
{
    std::lock_guard<std::mutex> lock(exec_mutex_);
    // Arm the job's cancel token as the process's token for the
    // duration of the job (common/interrupt.hpp): once it fires, the
    // sweep loop claims no more points and an in-flight simulation
    // unwinds at its next step boundary.
    common::ScopedCancelToken guard(hooks.cancel);
    JobResult res = executeLocked(req, hooks);
    countJob(res.ok, res.interrupted);
    return res;
}

std::vector<report::StudyRun>
Engine::executeStudies(const std::vector<const report::Study *> &studies,
                       const JobRequest &req, const ExecHooks &hooks)
{
    std::lock_guard<std::mutex> lock(exec_mutex_);
    common::ScopedCancelToken guard(hooks.cancel);
    std::vector<report::StudyRun> runs =
        studiesLocked(studies, req, hooks);
    bool ok = true, interrupted = false;
    for (const auto &run : runs) {
        ok &= run.ok;
        interrupted |= run.interrupted;
    }
    countJob(ok, interrupted);
    return runs;
}

std::vector<report::StudyRun>
Engine::studiesLocked(const std::vector<const report::Study *> &studies,
                      const JobRequest &req, const ExecHooks &hooks)
{
    report::StudyContext ctx;
    ctx.knobs = studyKnobs(req);
    ctx.jobs = jobs_;
    ctx.progress = hooks.progress;
    ctx.reference = reference();
    report::ReportPlan plan = report::planStudies(studies, ctx);
    if (hooks.planned)
        hooks.planned(plan);
    return report::runPlan(plan, ctx);
}

JobResult
Engine::executeLocked(const JobRequest &req, const ExecHooks &hooks)
{
    JobResult res;
    try {
        switch (req.kind) {
        case JobRequest::Kind::Run: {
            res.run = driver::runDriver(req.options);
            res.document = driver::statsToJson(*res.run);
            res.ok = true;
            if (hooks.progress) {
                driver::SweepPointResult point;
                point.options = req.options;
                point.ok = true;
                point.result = *res.run;
                hooks.progress(1, 1, point);
            }
            break;
        }
        case JobRequest::Kind::Sweep: {
            std::vector<driver::DriverOptions> points =
                driver::expandSweep(req.spec);
            if (points.empty())
                throw std::invalid_argument(
                    "sweep expands to zero points");
            res.sweep = driver::runSweep(points, jobs_, hooks.progress);
            res.document = driver::sweepReportToJson(req.spec,
                                                     res.sweep);
            bool failed = false;
            for (const auto &r : res.sweep) {
                failed |= !r.ok;
                res.usage_error |= r.usage_error;
                res.interrupted |= r.skipped;
            }
            res.ok = !failed;
            if (!res.ok)
                res.error = res.interrupted ? "interrupted"
                            : res.usage_error
                                ? "sweep points failed with dataset "
                                  "usage errors"
                                : "sweep points failed";
            break;
        }
        case JobRequest::Kind::Study: {
            const report::Study *study = report::findStudy(req.study);
            if (!study)
                throw std::invalid_argument(
                    "unknown study '" + req.study +
                    "' (see capstan-report --list)");
            std::vector<report::StudyRun> runs =
                studiesLocked({study}, req, hooks);
            report::ReportMeta meta;
            meta.preset = req.preset;
            meta.knobs = studyKnobs(req);
            meta.checked = req.check;
            res.document = report::reportToJson(runs, meta);
            res.study_run = std::move(runs.front());
            res.ok = res.study_run->ok;
            res.interrupted = res.study_run->interrupted;
            res.usage_error = res.study_run->usage_error;
            if (!res.ok)
                res.error = res.study_run->error;
            break;
        }
        }
    } catch (const common::CancelledError &) {
        res.ok = false;
        res.interrupted = true;
        res.error = "interrupted";
        if (res.document.isNull())
            res.document = interruptedRunDoc(req.options);
    } catch (const workloads::DatasetError &e) {
        res.ok = false;
        res.error = e.what();
        res.usage_error = true;
    } catch (const std::invalid_argument &e) {
        res.ok = false;
        res.error = e.what();
        res.usage_error = true;
    } catch (const std::exception &e) {
        res.ok = false;
        res.error = e.what();
    }
    return res;
}

EngineStats
Engine::stats() const
{
    EngineStats s;
    s.jobs_completed = jobs_completed_.load(std::memory_order_relaxed);
    s.jobs_failed = jobs_failed_.load(std::memory_order_relaxed);
    s.jobs_interrupted =
        jobs_interrupted_.load(std::memory_order_relaxed);
    s.dataset_cache = driver::datasetCacheStats();
    return s;
}

} // namespace capstan::engine
