/**
 * @file
 * Tests for the shared engine layer (src/engine/): the differential
 * contract that a JobRequest built from a wire JSON document executes
 * byte-identically to the same run built from DriverOptions (the CLI
 * path), JobRequest validation, the untrusted-input JSON parse limits
 * the wire path relies on, dataset-cache observability, and
 * cooperative sweep cancellation with skipped-point reporting.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "engine/engine.hpp"

namespace {

using namespace capstan;
using common::JsonLimits;
using common::JsonParseError;
using common::JsonValue;

engine::EngineConfig
serialConfig()
{
    engine::EngineConfig cfg;
    cfg.jobs = 1; // Keep unit tests single-threaded and cheap.
    return cfg;
}

/** A quick-scale wire submission for one app x config point. */
std::string
wireRun(const std::string &app, const std::string &config)
{
    return "{\"type\": \"run\", \"options\": {\"app\": \"" + app +
           "\", \"config\": \"" + config +
           "\", \"scale\": 0.02, \"tiles\": 4, \"iterations\": 1}}";
}

/** The same point built the way the CLI builds it, run directly. */
std::string
cliStats(const std::string &app, const std::string &config)
{
    driver::DriverOptions opts;
    EXPECT_EQ(driver::applyOption(opts, "app", app), "");
    EXPECT_EQ(driver::applyOption(opts, "config", config), "");
    EXPECT_EQ(driver::applyOption(opts, "scale", "0.02"), "");
    EXPECT_EQ(driver::applyOption(opts, "tiles", "4"), "");
    EXPECT_EQ(driver::applyOption(opts, "iterations", "1"), "");
    return driver::statsToJson(driver::runDriver(opts)).dump(2);
}

// The acceptance matrix: every app x config pair must produce the
// byte-identical stats document whether the run was requested from
// parsed flags (DriverOptions -> runDriver) or from a wire JSON job
// (JobRequest::fromJson -> Engine::execute), since capstan-run and
// capstan-serve share exactly that seam.
TEST(EngineDifferential, TwelvePointMatrixIsByteIdentical)
{
    const std::vector<std::string> apps = {"spmv", "spmspm", "bfs",
                                           "pagerank"};
    const std::vector<std::string> configs = {"capstan", "plasticine",
                                              "ideal"};
    engine::Engine eng(serialConfig());
    for (const auto &app : apps) {
        for (const auto &config : configs) {
            SCOPED_TRACE(app + " / " + config);
            engine::JobRequest req = engine::JobRequest::fromJson(
                JsonValue::parse(wireRun(app, config)), eng.config());
            engine::JobResult res = eng.execute(req);
            ASSERT_TRUE(res.ok) << res.error;
            EXPECT_FALSE(res.interrupted);
            EXPECT_EQ(res.document.dump(2), cliStats(app, config));
        }
    }
}

TEST(EngineDifferential, SweepDocumentMatchesLegacyRunSweep)
{
    engine::Engine eng(serialConfig());
    JsonValue doc = JsonValue::parse(
        "{\"type\": \"sweep\", \"options\": {\"scale\": 0.02, "
        "\"tiles\": 4, \"iterations\": 1}, "
        "\"axes\": {\"app\": [\"spmv\", \"bfs\"], "
        "\"memtech\": [\"hbm2e\", \"ddr4\"]}}");
    engine::JobRequest req =
        engine::JobRequest::fromJson(doc, eng.config());
    engine::JobResult res = eng.execute(req);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_EQ(res.sweep.size(), 4u);

    std::vector<driver::DriverOptions> points =
        driver::expandSweep(req.spec);
    std::vector<driver::SweepPointResult> direct =
        driver::runSweep(points, 1);
    EXPECT_EQ(res.document.dump(2),
              driver::sweepReportToJson(req.spec, direct).dump(2));
}

TEST(EngineRequest, FromJsonValidatesShapeAndValues)
{
    const engine::EngineConfig cfg;
    auto reject = [&](const std::string &text) {
        EXPECT_THROW(engine::JobRequest::fromJson(
                         JsonValue::parse(text), cfg),
                     std::invalid_argument)
            << text;
    };
    reject("[]");
    reject("{}");
    reject("{\"type\": \"launch\"}");
    reject("{\"type\": \"run\", \"axes\": {}}"); // run has no axes.
    reject("{\"type\": \"run\", \"options\": 3}");
    reject("{\"type\": \"run\", \"options\": {\"app\": \"nope\"}}");
    reject("{\"type\": \"run\", \"options\": {\"turbo\": true}}");
    reject("{\"type\": \"run\", \"options\": {\"tiles\": {}}}");
    reject("{\"type\": \"sweep\", \"axes\": {\"turbo\": [1, 2]}}");
    // The worker count is the process's --jobs, never the wire's.
    reject("{\"type\": \"sweep\", \"jobs\": 2}");
    reject("{\"type\": \"study\", \"study\": \"table12\", "
           "\"jobs\": 2}");
    reject("{\"type\": \"study\"}");
    reject("{\"type\": \"study\", \"study\": \"table12\", "
           "\"preset\": \"huge\"}");
    reject("{\"type\": \"study\", \"study\": \"table12\", "
           "\"scale\": -1}");
    reject("{\"type\": \"study\", \"study\": \"table12\", "
           "\"check\": \"yes\"}");
    // A study's tiles obey the same cap as a run's: a lane's owning
    // tile is an int8_t, so 129 tiles would misroute lanes.
    reject("{\"type\": \"study\", \"study\": \"table12\", "
           "\"tiles\": 129}");
    reject("{\"type\": \"study\", \"study\": \"table12\", "
           "\"tiles\": 300}");
    EXPECT_EQ(*engine::JobRequest::fromJson(
                   JsonValue::parse("{\"type\": \"study\", "
                                    "\"study\": \"table12\", "
                                    "\"tiles\": 128}"),
                   cfg)
                   .tiles,
              128);
}

TEST(EngineRequest, WireOptionsUseTheDriverValidationPath)
{
    const engine::EngineConfig cfg;
    // Numbers and bools arrive as JSON scalars and canonicalize
    // through driver::applyOption exactly like flag values.
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse("{\"type\": \"run\", \"options\": {"
                         "\"app\": \"bfs\", \"queue-depth\": 8, "
                         "\"compression\": true, "
                         "\"bandwidth-gbps\": 102.4}}"),
        cfg);
    EXPECT_EQ(req.options.app, "bfs");
    ASSERT_TRUE(req.options.queue_depth.has_value());
    EXPECT_EQ(*req.options.queue_depth, 8);
    EXPECT_TRUE(req.options.compression);
    ASSERT_TRUE(req.options.bandwidth_gbps.has_value());
    EXPECT_DOUBLE_EQ(*req.options.bandwidth_gbps, 102.4);
}

TEST(EngineRequest, HostKnobsComeFromTheEngineNotTheWire)
{
    engine::EngineConfig cfg;
    cfg.dataset_dir = "/nonexistent/datasets";
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse("{\"type\": \"run\"}"), cfg);
    EXPECT_EQ(req.options.dataset_dir, cfg.dataset_dir);
    // And the wire cannot override it: it is not an option key the
    // request accepts.
    EXPECT_THROW(engine::JobRequest::fromJson(
                     JsonValue::parse(
                         "{\"type\": \"run\", \"options\": "
                         "{\"dataset-dir\": \"/tmp\"}}"),
                     cfg),
                 std::invalid_argument);
}

TEST(EngineRequest, ToJsonRoundTrips)
{
    const engine::EngineConfig cfg;
    JsonValue doc = JsonValue::parse(
        "{\"type\": \"sweep\", \"options\": {\"app\": \"spmspm\", "
        "\"scale\": 0.5, \"ordering\": \"address\"}, "
        "\"axes\": {\"tiles\": [4, 8]}}");
    engine::JobRequest req =
        engine::JobRequest::fromJson(doc, cfg);
    engine::JobRequest back =
        engine::JobRequest::fromJson(req.toJson(), cfg);
    EXPECT_EQ(req.toJson().dump(), back.toJson().dump());

    JsonValue study = JsonValue::parse(
        "{\"type\": \"study\", \"study\": \"table12\", "
        "\"preset\": \"full\", \"tiles\": 8, \"check\": true}");
    engine::JobRequest sreq =
        engine::JobRequest::fromJson(study, cfg);
    engine::JobRequest sback =
        engine::JobRequest::fromJson(sreq.toJson(), cfg);
    EXPECT_EQ(sreq.toJson().dump(), sback.toJson().dump());

    // Every value of every enum option serializes as the spelling
    // applyOption() parses, and reads back as itself; the aliases and
    // other cases ("in:out") serialize as their value's one spelling.
    const std::vector<std::pair<std::string, std::vector<std::string>>>
        spellings = {
            {"ordering",
             {"unordered", "address", "fully", "arbitrated",
              "address-ordered:address", "fully-ordered:fully",
              "Arbitrated:arbitrated"}},
            {"merge", {"none", "mrg0", "mrg1", "mrg16", "MRG16:mrg16"}},
            {"hash", {"linear", "xor", "XOR:xor"}},
            {"allocator", {"full", "weak", "Weak:weak"}},
        };
    for (const auto &[key, values] : spellings) {
        for (const std::string &value : values) {
            std::string in = value.substr(0, value.find(':'));
            std::string out = value.substr(value.find(':') + 1);
            engine::JobRequest run = engine::JobRequest::fromJson(
                JsonValue::parse("{\"type\": \"run\", \"options\": {\"" +
                                 key + "\": \"" + in + "\"}}"),
                cfg);
            JsonValue wire = run.toJson();
            EXPECT_EQ(wire.at("options").at(key).asString(), out) << in;
            EXPECT_EQ(engine::JobRequest::fromJson(wire, cfg).toJson().dump(),
                      wire.dump())
                << in;
        }
    }
}

TEST(EngineRequest, UnknownStudyIsAUsageError)
{
    engine::Engine eng(serialConfig());
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse(
            "{\"type\": \"study\", \"study\": \"table99\"}"),
        eng.config());
    engine::JobResult res = eng.execute(req);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.usage_error);
    EXPECT_NE(res.error.find("unknown study"), std::string::npos);
}

// ---------------------------------------------------------------------
// Untrusted-input JSON limits (common/json.hpp): the wire path's
// defense against hostile documents.
// ---------------------------------------------------------------------

TEST(JsonLimitsTest, DepthLimitRejectsDeepNesting)
{
    JsonLimits limits;
    limits.max_depth = 8;
    std::string deep(16, '[');
    deep += std::string(16, ']');
    EXPECT_THROW(JsonValue::parse(deep, limits), JsonParseError);
    try {
        JsonValue::parse(deep, limits);
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "nesting depth exceeds limit (8)"),
                  std::string::npos)
            << e.what();
    }
    // Exactly at the limit is fine; objects count like arrays.
    std::string ok(8, '[');
    ok += std::string(8, ']');
    EXPECT_NO_THROW(JsonValue::parse(ok, limits));
    EXPECT_THROW(
        JsonValue::parse("{\"a\": {\"b\": {\"c\": {\"d\": {\"e\": "
                         "{\"f\": {\"g\": {\"h\": {\"i\": 1"
                         "}}}}}}}}}",
                         limits),
        JsonParseError);
}

TEST(JsonLimitsTest, DefaultDepthCoversTrustedFilesOnly)
{
    // The default guards the recursive parser's stack even for
    // trusted files: 1000 brackets must fail cleanly, not crash.
    std::string hostile(1000, '[');
    hostile += std::string(1000, ']');
    EXPECT_THROW(JsonValue::parse(hostile), JsonParseError);
    // Ordinary stats/report documents (< 10 levels) are far inside
    // the default.
    std::string normal(10, '[');
    normal += std::string(10, ']');
    EXPECT_NO_THROW(JsonValue::parse(normal));
}

TEST(JsonLimitsTest, SizeCapRejectsOversizedDocuments)
{
    JsonLimits limits;
    limits.max_bytes = 64;
    std::string big = "{\"pad\": \"" + std::string(80, 'x') + "\"}";
    EXPECT_THROW(JsonValue::parse(big, limits), JsonParseError);
    try {
        JsonValue::parse(big, limits);
        FAIL() << "expected JsonParseError";
    } catch (const JsonParseError &e) {
        EXPECT_NE(std::string(e.what()).find("exceeds limit (64"),
                  std::string::npos)
            << e.what();
    }
    EXPECT_NO_THROW(JsonValue::parse("{\"small\": 1}", limits));
    // 0 = unlimited (the trusted-file default).
    limits.max_bytes = 0;
    EXPECT_NO_THROW(JsonValue::parse(big, limits));
}

// ---------------------------------------------------------------------
// Cache observability and cancellation.
// ---------------------------------------------------------------------

TEST(EngineState, SecondRunOnSameDatasetHitsTheWarmCache)
{
    engine::Engine eng(serialConfig());
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse(wireRun("spmv", "capstan")), eng.config());
    ASSERT_TRUE(eng.execute(req).ok);
    driver::DatasetCacheStats before = driver::datasetCacheStats();
    ASSERT_TRUE(eng.execute(req).ok);
    driver::DatasetCacheStats after = driver::datasetCacheStats();
    EXPECT_GT(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);

    engine::EngineStats stats = eng.stats();
    EXPECT_EQ(stats.jobs_completed, 2u);
    EXPECT_EQ(stats.jobs_failed, 0u);
    EXPECT_EQ(stats.dataset_cache.hits, after.hits);
}

TEST(EngineCancel, PreFiredTokenSkipsEveryPoint)
{
    engine::Engine eng(serialConfig());
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse(
            "{\"type\": \"sweep\", \"options\": {\"scale\": 0.02, "
            "\"tiles\": 4, \"iterations\": 1}, "
            "\"axes\": {\"app\": [\"spmv\", \"bfs\", \"matadd\"]}}"),
        eng.config());
    std::atomic<bool> cancel{true};
    engine::ExecHooks hooks;
    hooks.cancel = &cancel;
    engine::JobResult res = eng.execute(req, hooks);
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(res.interrupted);
    ASSERT_EQ(res.sweep.size(), 3u);
    for (const auto &r : res.sweep) {
        EXPECT_TRUE(r.skipped);
        EXPECT_FALSE(r.ok);
    }
    const JsonValue &meta = res.document.at("sweep");
    ASSERT_TRUE(meta.contains("interrupted"));
    EXPECT_TRUE(meta.at("interrupted").asBool());
    EXPECT_EQ(eng.stats().jobs_interrupted, 1u);
}

TEST(EngineCancel, MidSweepCancelFinishesClaimedPointAndSkipsRest)
{
    engine::Engine eng(serialConfig());
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse(
            "{\"type\": \"sweep\", \"options\": {\"scale\": 0.02, "
            "\"tiles\": 4, \"iterations\": 1}, "
            "\"axes\": {\"app\": [\"spmv\", \"bfs\", \"matadd\", "
            "\"pagerank\"]}}"),
        eng.config());
    std::atomic<bool> cancel{false};
    engine::ExecHooks hooks;
    hooks.cancel = &cancel;
    hooks.progress = [&](std::size_t done, std::size_t,
                         const driver::SweepPointResult &) {
        if (done >= 1)
            cancel.store(true); // Fire after the first point lands.
    };
    engine::JobResult res = eng.execute(req, hooks);
    EXPECT_TRUE(res.interrupted);
    ASSERT_EQ(res.sweep.size(), 4u);
    // Single worker: point 0 completed before the token fired; the
    // rest were never claimed.
    EXPECT_TRUE(res.sweep[0].ok);
    EXPECT_FALSE(res.sweep[0].skipped);
    for (std::size_t i = 1; i < res.sweep.size(); ++i)
        EXPECT_TRUE(res.sweep[i].skipped) << i;

    // The flushed report marks the skips but keeps the completed
    // point's stats — the "partial JSON" the interrupted CLIs emit.
    const auto &results = res.document.at("results").items();
    ASSERT_EQ(results.size(), 4u);
    EXPECT_FALSE(results[0].contains("skipped"));
    ASSERT_TRUE(results[1].contains("skipped"));
    EXPECT_TRUE(results[1].at("skipped").asBool());
}

TEST(EngineStudy, QuickStudyRunsAndRendersOneStudyReport)
{
    engine::Engine eng(serialConfig());
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse("{\"type\": \"study\", "
                         "\"study\": \"micro_components\"}"),
        eng.config());
    engine::JobResult res = eng.execute(req);
    ASSERT_TRUE(res.ok) << res.error;
    ASSERT_TRUE(res.study_run.has_value());
    EXPECT_TRUE(res.study_run->ok);
    const JsonValue &header = res.document.at("report");
    EXPECT_EQ(header.at("preset").asString(), "quick");
    EXPECT_FALSE(header.contains("interrupted"));
    const auto &results = res.document.at("results").items();
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].at("name").asString(), "micro_components");
}

TEST(EngineStudy, StudyJobReportsEveryPlannedPoint)
{
    // Table 13 plans four points (EIE, SCNN, Graphicionado PR,
    // MatRaptor); each reaches the progress hook.
    engine::Engine eng(serialConfig());
    engine::JobRequest req = engine::JobRequest::fromJson(
        JsonValue::parse("{\"type\": \"study\", "
                         "\"study\": \"table13\"}"),
        eng.config());
    std::size_t calls = 0;
    engine::ExecHooks hooks;
    hooks.progress = [&](std::size_t done, std::size_t total,
                         const driver::SweepPointResult &r) {
        ++calls;
        EXPECT_EQ(done, calls);
        EXPECT_EQ(total, 4u);
        EXPECT_TRUE(r.ok) << r.error;
    };
    engine::JobResult res = eng.execute(req, hooks);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(calls, 4u);
}

TEST(EngineStudy, ExecuteStudiesIsOneJob)
{
    engine::Engine eng(serialConfig());
    engine::JobRequest req;
    req.kind = engine::JobRequest::Kind::Study;
    std::size_t plans = 0;
    engine::ExecHooks hooks;
    hooks.planned = [&](const report::ReportPlan &plan) {
        ++plans;
        EXPECT_EQ(plan.studies.size(), 2u);
        EXPECT_EQ(plan.planned(), 0u); // Component studies only.
    };
    std::vector<report::StudyRun> runs = eng.executeStudies(
        {report::findStudy("table5"), report::findStudy("table8")}, req,
        hooks);
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_EQ(runs[0].study->name, "table5");
    EXPECT_EQ(runs[1].study->name, "table8");
    EXPECT_TRUE(runs[0].ok) << runs[0].error;
    EXPECT_TRUE(runs[1].ok) << runs[1].error;
    EXPECT_EQ(plans, 1u);
    EXPECT_EQ(eng.stats().jobs_completed, 1u);
}

} // namespace
