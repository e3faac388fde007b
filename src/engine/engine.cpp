#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <initializer_list>
#include <stdexcept>

#include "common/interrupt.hpp"
#include "workloads/io.hpp"

namespace capstan::engine {

namespace {

/** Canonical string form of a scalar wire value, for applyOption. */
std::string
scalarToString(const JsonValue &v, const std::string &what)
{
    switch (v.kind()) {
    case JsonValue::Kind::String: return v.asString();
    case JsonValue::Kind::Number: return v.dump();
    case JsonValue::Kind::Bool: return v.asBool() ? "true" : "false";
    default:
        throw std::invalid_argument(
            what + " must be a string, number, or boolean");
    }
}

int
requireInt(const JsonValue &v, const std::string &what, int min)
{
    if (!v.isNumber() || v.asNumber() != std::floor(v.asNumber()))
        throw std::invalid_argument(what + " must be an integer");
    double n = v.asNumber();
    if (n < min || n > 1e9)
        throw std::invalid_argument(what + " is out of range");
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
            opts, key, scalarToString(value, "option '" + key + "'"));
        if (!err.empty())
            throw std::invalid_argument("option '" + key + "': " +
                                        err);
    }
}

/**
 * Wire tokens for the enum options whose sim display names
 * ("Address Ordered", "Mrg-0") are not in applyOption's vocabulary.
 */
const char *
orderingToken(sim::Ordering mode)
{
    switch (mode) {
    case sim::Ordering::Unordered: return "unordered";
    case sim::Ordering::AddressOrdered: return "address";
    case sim::Ordering::FullyOrdered: return "fully";
    case sim::Ordering::Arbitrated: return "arbitrated";
    }
    return "unordered";
}

const char *
mergeToken(sim::MergeMode mode)
{
    switch (mode) {
    case sim::MergeMode::None: return "none";
    case sim::MergeMode::Mrg0: return "mrg0";
    case sim::MergeMode::Mrg1: return "mrg1";
    case sim::MergeMode::Mrg16: return "mrg16";
    }
    return "none";
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
        out.set("ordering", orderingToken(*o.ordering));
    if (o.merge)
        out.set("merge", mergeToken(*o.merge));
    if (o.hash)
        out.set("hash",
                o.hash == sim::BankHash::Xor ? "xor" : "linear");
    if (o.allocator)
        out.set("allocator",
                o.allocator == sim::AllocatorKind::Weak ? "weak"
                                                        : "full");
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
        allow({"type", "options", "axes", "jobs"});
        if (doc.contains("options"))
            applyOptionsObject(req.options, doc.at("options"));
        if (doc.contains("axes"))
            req.spec =
                driver::SweepSpec::fromJson(doc.at("axes"), req.options);
        else
            req.spec.base = req.options;
        if (doc.contains("jobs"))
            req.jobs = requireInt(doc.at("jobs"), "\"jobs\"", 0);
    } else if (type == "study") {
        req.kind = Kind::Study;
        allow({"type", "study", "preset", "scale", "tiles",
               "iterations", "check", "jobs"});
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
            req.tiles = requireInt(doc.at("tiles"), "\"tiles\"", 1);
        if (doc.contains("iterations"))
            req.iterations =
                requireInt(doc.at("iterations"), "\"iterations\"", 1);
        if (doc.contains("check")) {
            if (!doc.at("check").isBool())
                throw std::invalid_argument(
                    "\"check\" must be a boolean");
            req.check = doc.at("check").asBool();
        }
        if (doc.contains("jobs"))
            req.jobs = requireInt(doc.at("jobs"), "\"jobs\"", 0);
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
        if (jobs > 0)
            doc.set("jobs", jobs);
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
        if (jobs > 0)
            doc.set("jobs", jobs);
        break;
    }
    return doc;
}

Engine::Engine(EngineConfig cfg) : cfg_(std::move(cfg))
{
    resolved_jobs_ = driver::resolveJobs(cfg_.jobs);
    if (resolved_jobs_ >= 2)
        pool_ = std::make_unique<common::WorkerPool>(resolved_jobs_);
}

Engine::~Engine() = default;

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

int
Engine::effectiveJobs(int request_jobs) const
{
    // A job may narrow, but never widen, the engine's pool.
    int jobs = request_jobs > 0 ? driver::resolveJobs(request_jobs)
                                : resolved_jobs_;
    return std::min(jobs, resolved_jobs_);
}

JobResult
Engine::execute(const JobRequest &req, const ExecHooks &hooks)
{
    std::lock_guard<std::mutex> lock(exec_mutex_);
    // Arm the machine-level cancel token for the duration of the job
    // (common/interrupt.hpp): an in-flight simulation unwinds at its
    // next step boundary once the token fires.
    common::ScopedCancelToken guard(hooks.cancel);
    JobResult res = executeLocked(req, hooks);
    if (res.interrupted)
        jobs_interrupted_.fetch_add(1, std::memory_order_relaxed);
    else if (res.ok)
        jobs_completed_.fetch_add(1, std::memory_order_relaxed);
    else
        jobs_failed_.fetch_add(1, std::memory_order_relaxed);
    return res;
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
            driver::SweepExec exec;
            exec.jobs = effectiveJobs(req.jobs);
            exec.pool = pool_.get();
            exec.cancel = hooks.cancel;
            exec.progress = hooks.progress;
            res.sweep = driver::runSweep(points, exec);
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
            report::StudyContext ctx;
            ctx.knobs = studyKnobs(req);
            ctx.jobs = effectiveJobs(req.jobs);
            ctx.pool = pool_.get();
            ctx.cancel = hooks.cancel;
            ctx.progress = hooks.progress;
            ctx.reference = reference();

            report::StudyRun run;
            run.study = study;
            try {
                run.result = study->run(ctx);
                run.ok = true;
                if (ctx.reference)
                    run.check = ctx.reference->check(
                        study->name, run.result.metrics);
            } catch (const report::StudyInterrupted &e) {
                run.error = e.what();
                run.interrupted = true;
            } catch (const common::CancelledError &) {
                run.error = "interrupted";
                run.interrupted = true;
            } catch (const workloads::DatasetError &e) {
                run.error = e.what();
                res.usage_error = true;
            } catch (const std::exception &e) {
                run.error = e.what();
            }
            report::ReportMeta meta;
            meta.preset = req.preset;
            meta.knobs = ctx.knobs;
            meta.checked = req.check;
            std::vector<report::StudyRun> runs;
            runs.push_back(run);
            res.document = report::reportToJson(runs, meta);
            res.study_run = std::move(run);
            res.ok = res.study_run->ok;
            res.interrupted = res.study_run->interrupted;
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
