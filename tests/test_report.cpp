/**
 * @file
 * Tests for the paper-reproduction report layer (src/report/): study
 * registry enumeration, the reference comparator's tolerance edges
 * (missing key, NaN, relative-vs-absolute slack), and golden
 * Markdown/CSV rendering.
 */

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>

#include <gtest/gtest.h>

#include "common/interrupt.hpp"
#include "report/catalog.hpp"
#include "report/reference.hpp"
#include "report/render.hpp"
#include "report/study.hpp"

using namespace capstan;
using namespace capstan::report;
using driver::JsonValue;

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(StudyRegistry, EnumeratesEveryPaperArtifact)
{
    const std::set<std::string> expected = {
        "table4", "table5",  "table8", "table9", "table10",
        "table11", "table12", "table13", "fig4",  "fig5",
        "fig6",   "fig7",    "micro_components"};
    std::set<std::string> names;
    for (const auto &s : allStudies()) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate study " << s.name;
        EXPECT_FALSE(s.artifact.empty()) << s.name;
        EXPECT_FALSE(s.title.empty()) << s.name;
        EXPECT_NE(s.derive, nullptr) << s.name;
    }
    EXPECT_EQ(names, expected);
}

TEST(StudyRegistry, FindStudyByName)
{
    const Study *s = findStudy("table12");
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->artifact, "Table 12");
    EXPECT_EQ(findStudy("table99"), nullptr);
    EXPECT_EQ(findStudy(""), nullptr);
}

TEST(StudyRegistry, SensitivitySeriesSubstituteGnutellaForGraphs)
{
    // Graph apps substitute Gnutella for the sensitivity series.
    for (const char *app : {"PR-Pull", "PR-Edge", "BFS", "SSSP"})
        EXPECT_EQ(sensitivityDataset(app), "p2p-Gnutella31") << app;
    for (const char *app : {"CSR", "Conv", "SpMSpM", "BiCGStab"})
        EXPECT_EQ(sensitivityDataset(app), driver::datasetsFor(app)[0])
            << app;
    EXPECT_THROW(sensitivityDataset("GEMM"), std::invalid_argument);
}

TEST(StudyRegistry, PresetsAreBaseOptions)
{
    // A preset is a base point; overrides go through applyOption in
    // order, whatever order the caller read them in.
    driver::DriverOptions quick = presetOptions("quick");
    EXPECT_DOUBLE_EQ(quick.scale, 0.02);
    EXPECT_EQ(quick.tiles, 4);
    EXPECT_EQ(quick.iterations, 1);
    driver::DriverOptions full = presetOptions("full");
    EXPECT_DOUBLE_EQ(full.scale, 1.0);
    EXPECT_EQ(full.tiles, 16);
    EXPECT_EQ(full.iterations, 2);
    driver::DriverOptions tiled =
        presetOptions("full", {{"tiles", "8"}, {"scale", "0.5"}});
    EXPECT_EQ(tiled.tiles, 8);
    EXPECT_DOUBLE_EQ(tiled.scale, 0.5);
    EXPECT_EQ(tiled.iterations, 2);
    EXPECT_THROW(presetOptions("huge"), std::invalid_argument);
    EXPECT_THROW(presetOptions("quick", {{"dataset-dir", "/tmp"}}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Reference comparator
// ---------------------------------------------------------------------------

namespace {

Reference
refFromText(const std::string &text)
{
    return Reference::fromJson(JsonValue::parse(text));
}

const char *kSmallRef = R"({
  "studies": {
    "demo": {
      "metrics": {
        "rel_only": {"paper": 100.0, "rel": 0.10},
        "abs_only": {"paper": 2.0, "abs": 0.5},
        "both": {"paper": 10.0, "rel": 0.10, "abs": 1.0},
        "display_only": {"paper": 42.0}
      }
    }
  }
})";

/** Check with every checked metric at its paper value except one. */
bool
passesWith(const Reference &ref, const std::string &key, double value)
{
    std::vector<std::pair<std::string, double>> metrics = {
        {"rel_only", 100.0}, {"abs_only", 2.0}, {"both", 10.0}};
    for (auto &[k, v] : metrics) {
        if (k == key)
            v = value;
    }
    StudyCheck check = ref.check("demo", metrics);
    for (const auto &d : check.deviations) {
        if (d.key == key)
            return false;
    }
    return true;
}

} // namespace

TEST(Reference, RelativeToleranceEdges)
{
    Reference ref = refFromText(kSmallRef);
    // 100 +- 10 passes at the boundary, fails just beyond it.
    EXPECT_TRUE(passesWith(ref, "rel_only", 110.0));
    EXPECT_TRUE(passesWith(ref, "rel_only", 90.0));
    EXPECT_FALSE(passesWith(ref, "rel_only", 110.5));
    EXPECT_FALSE(passesWith(ref, "rel_only", 89.4));
}

TEST(Reference, AbsoluteVsRelativeSlack)
{
    Reference ref = refFromText(kSmallRef);
    // abs_only: paper 2.0 with abs 0.5 — a 25% miss passes on the
    // absolute slack even though no relative tolerance exists.
    EXPECT_TRUE(passesWith(ref, "abs_only", 2.5));
    EXPECT_FALSE(passesWith(ref, "abs_only", 2.6));
    // both: slack = abs + rel * |paper| = 1.0 + 1.0 = 2.0.
    EXPECT_TRUE(passesWith(ref, "both", 12.0));
    EXPECT_FALSE(passesWith(ref, "both", 12.1));
    // All-at-paper passes outright.
    EXPECT_TRUE(ref.check("demo", {{"rel_only", 100.0},
                                   {"abs_only", 2.0},
                                   {"both", 10.0}})
                    .pass());
}

TEST(Reference, MissingMetricIsADeviation)
{
    Reference ref = refFromText(kSmallRef);
    StudyCheck check = ref.check("demo", {{"rel_only", 100.0}});
    EXPECT_TRUE(check.has_reference);
    EXPECT_EQ(check.checked, 3u); // display_only carries no tolerance.
    EXPECT_EQ(check.passed, 1u);
    ASSERT_EQ(check.deviations.size(), 2u);
    for (const auto &d : check.deviations) {
        EXPECT_FALSE(d.ours.has_value());
        EXPECT_NE(d.detail.find("no such metric"), std::string::npos);
    }
}

TEST(Reference, NanAndInfAreDeviations)
{
    Reference ref = refFromText(kSmallRef);
    StudyCheck nan_check = ref.check(
        "demo", {{"rel_only", std::nan("")},
                 {"abs_only", 2.0},
                 {"both", 10.0}});
    ASSERT_EQ(nan_check.deviations.size(), 1u);
    EXPECT_EQ(nan_check.deviations[0].key, "rel_only");
    EXPECT_NE(nan_check.deviations[0].detail.find("non-finite"),
              std::string::npos);

    StudyCheck inf_check = ref.check(
        "demo", {{"rel_only", 100.0},
                 {"abs_only", INFINITY},
                 {"both", 10.0}});
    ASSERT_EQ(inf_check.deviations.size(), 1u);
    EXPECT_EQ(inf_check.deviations[0].key, "abs_only");
}

TEST(Reference, DisplayOnlyEntriesNeverFail)
{
    Reference ref = refFromText(kSmallRef);
    EXPECT_EQ(ref.paper("demo", "display_only"), 42.0);
    // Wildly wrong display-only value: still passes.
    StudyCheck check = ref.check(
        "demo", {{"rel_only", 100.0}, {"abs_only", 2.0},
                 {"both", 10.0}, {"display_only", 9999.0}});
    EXPECT_TRUE(check.pass());
    EXPECT_EQ(check.checked, 3u);
}

TEST(Reference, UnknownStudyIsUnchecked)
{
    Reference ref = refFromText(kSmallRef);
    StudyCheck check = ref.check("nope", {{"x", 1.0}});
    EXPECT_FALSE(check.has_reference);
    EXPECT_TRUE(check.pass());
    EXPECT_TRUE(ref.check("demo", {}).has_reference);
    EXPECT_FALSE(ref.paper("nope", "x").has_value());
    EXPECT_FALSE(ref.paper("demo", "nope").has_value());
}

TEST(Reference, MalformedDocumentsThrow)
{
    EXPECT_THROW(refFromText("[]"), std::invalid_argument);
    EXPECT_THROW(refFromText("{}"), std::invalid_argument);
    EXPECT_THROW(refFromText(R"({"studies": {"s": {}}})"),
                 std::invalid_argument);
    EXPECT_THROW(
        refFromText(R"({"studies": {"s": {"metrics": {"m": {}}}}})"),
        std::invalid_argument);
    EXPECT_THROW(refFromText(R"({"studies": {"s": {"metrics":
        {"m": {"paper": 1, "rel": -0.1}}}}})"),
                 std::invalid_argument);
    EXPECT_THROW(Reference::fromFile("/nonexistent/ref.json"),
                 std::runtime_error);
}

// ---------------------------------------------------------------------------
// Rendering goldens
// ---------------------------------------------------------------------------

namespace {

/** A tiny fabricated study run reusing a registered study identity. */
StudyRun
demoRun()
{
    StudyRun run;
    run.study = findStudy("table5");
    run.ok = true;
    StudyTable table;
    table.title = "Demo";
    table.headers = {"App", "X"};
    table.rows = {{"CSR", "1.00"}, {"COO", "2.00"}};
    run.result.tables.push_back(std::move(table));
    run.result.metric("x/CSR", 1.0);
    run.result.metric("x/COO", 2.0);
    run.result.notes = "A note.";
    return run;
}

} // namespace

TEST(Render, NumFormatting)
{
    EXPECT_EQ(num(1.005, 1), "1.0");
    EXPECT_EQ(num(std::nullopt), "-");
    EXPECT_EQ(num(54.0, 0), "54");
    EXPECT_EQ(oursPaper(1.5, std::nullopt), "1.50");
    EXPECT_EQ(oursPaper(1.5, 2.0), "1.50 / 2.00");
}

TEST(Render, MarkdownGolden)
{
    StudyRun run = demoRun();
    ReportMeta meta;
    meta.preset = "quick";
    meta.knobs = presetOptions("quick");
    std::string md = renderMarkdown({run}, meta);
    EXPECT_NE(md.find("# Capstan paper-reproduction results"),
              std::string::npos);
    EXPECT_NE(md.find("| [table5](#table5) | Table 5 | UNCHECKED | "
                      "0 | 0 |"),
              std::string::npos);
    EXPECT_NE(md.find("**Demo**\n\n"
                      "| App | X |\n"
                      "|---|---|\n"
                      "| CSR | 1.00 |\n"
                      "| COO | 2.00 |\n"),
              std::string::npos);
    EXPECT_NE(md.find("A note."), std::string::npos);
    // Deterministic: renders byte-identically.
    EXPECT_EQ(md, renderMarkdown({run}, meta));
}

TEST(Render, MarkdownEscapesPipesAndShowsDeviations)
{
    StudyRun run = demoRun();
    run.result.tables[0].rows[0][0] = "a|b";
    run.check.has_reference = true;
    run.check.checked = 1;
    MetricCheck mc;
    mc.key = "x/CSR";
    mc.paper = 9.0;
    mc.ours = 1.0;
    mc.detail = "out of tolerance";
    run.check.deviations.push_back(mc);
    ReportMeta meta;
    meta.preset = "quick";
    std::string md = renderMarkdown({run}, meta);
    EXPECT_NE(md.find("a\\|b"), std::string::npos);
    EXPECT_NE(md.find("DEVIATION"), std::string::npos);
    EXPECT_NE(md.find("`x/CSR`"), std::string::npos);
    EXPECT_EQ(run.verdict(), "deviation");
}

TEST(Render, CsvGolden)
{
    Reference ref = refFromText(R"({
      "studies": {"table5": {"metrics": {
        "x/CSR": {"paper": 1.1, "rel": 0.2},
        "x/COO": {"paper": 40.0}
      }}}})");
    StudyRun run = demoRun();
    run.check = ref.check(run.study->name, run.result.metrics);
    EXPECT_TRUE(run.check.pass());
    std::string csv = renderCsv({run}, &ref);
    EXPECT_EQ(csv,
              "study,metric,value,paper,rel_tol,abs_tol,verdict\n"
              "table5,x/CSR,1,1.1,0.2,0,pass\n"
              "table5,x/COO,2,40,,,unchecked\n");
}

TEST(Render, CsvFieldEscaping)
{
    EXPECT_EQ(driver::csvField("plain"), "plain");
    EXPECT_EQ(driver::csvField("a,b"), "\"a,b\"");
    EXPECT_EQ(driver::csvField("a\"b"), "\"a\"\"b\"");
    EXPECT_EQ(driver::csvField("a\nb"), "\"a\nb\"");
}

TEST(Render, JsonReportShape)
{
    StudyRun run = demoRun();
    ReportMeta meta;
    meta.preset = "quick";
    meta.knobs = presetOptions("quick");
    JsonValue doc = reportToJson({run}, meta);
    EXPECT_EQ(doc.at("report").at("studies").asNumber(), 1.0);
    const JsonValue &first = doc.at("results").items().at(0);
    EXPECT_EQ(first.at("name").asString(), "table5");
    EXPECT_EQ(first.at("verdict").asString(), "unchecked");
    EXPECT_EQ(first.at("metrics").at("x/COO").asNumber(), 2.0);
    // Round-trips through the JSON parser.
    JsonValue reparsed = JsonValue::parse(doc.dump(2));
    const JsonValue &table =
        reparsed.at("results").items().at(0).at("tables").items().at(0);
    EXPECT_EQ(table.at("rows").items().at(1).items().at(0).asString(),
              "COO");
}

TEST(Render, ErrorRunsRenderAsErrors)
{
    StudyRun run;
    run.study = findStudy("fig4");
    run.ok = false;
    run.error = "boom";
    EXPECT_EQ(run.verdict(), "error");
    ReportMeta meta;
    meta.preset = "full";
    std::string md = renderMarkdown({run}, meta);
    EXPECT_NE(md.find("ERROR"), std::string::npos);
    EXPECT_NE(md.find("boom"), std::string::npos);
    JsonValue doc = reportToJson({run}, meta);
    EXPECT_EQ(doc.at("report").at("errors").asNumber(), 1.0);
    EXPECT_EQ(doc.at("results").items().at(0).at("error").asString(),
              "boom");
}

// ---------------------------------------------------------------------------
// Study execution (fast studies only; report_quick covers the rest)
// ---------------------------------------------------------------------------

namespace {

/** The quick preset's base point, on one worker. */
StudyContext
quickContext()
{
    StudyContext ctx;
    ctx.knobs = presetOptions("quick");
    ctx.jobs = 1;
    return ctx;
}

/** Plan and run @p studies together. */
std::vector<StudyRun>
runStudies(const std::vector<const Study *> &studies,
           const StudyContext &ctx)
{
    return runPlan(planStudies(studies, ctx), ctx);
}

/** A derive that records how many timings it was handed. */
StudyResult
countTimings(const StudyContext &, const Timings &t)
{
    StudyResult r;
    r.metric("points", static_cast<double>(t.size()));
    return r;
}

/** @p app on its default dataset under the quick knobs. */
driver::SimulationKey
keyOf(const std::string &app,
      const std::vector<std::pair<std::string, std::string>> &options)
{
    driver::DriverOptions o = quickContext().base(app, "");
    for (const auto &[key, value] : options)
        EXPECT_EQ(driver::applyOption(o, key, value), "") << key;
    return driver::simulationKey(o);
}

} // namespace

TEST(StudyExecution, AnalyticAreaStudiesRun)
{
    StudyContext ctx = quickContext();
    std::vector<StudyRun> runs =
        runStudies({findStudy("table5"), findStudy("table8")}, ctx);
    ASSERT_EQ(runs.size(), 2u);
    ASSERT_TRUE(runs[0].ok) << runs[0].error;
    ASSERT_TRUE(runs[1].ok) << runs[1].error;

    const StudyResult &t5 = runs[0].result;
    ASSERT_EQ(t5.tables.size(), 1u);
    EXPECT_EQ(t5.tables[0].rows.size(), 3u);
    bool found = false;
    for (const auto &[key, value] : t5.metrics) {
        if (key == "savings_pct") {
            found = true;
            EXPECT_NEAR(value, 54.0, 2.0);
        }
    }
    EXPECT_TRUE(found);

    for (const auto &[key, value] : runs[1].result.metrics) {
        if (key == "area_overhead_pct") {
            EXPECT_NEAR(value, 16.0, 2.0);
        }
    }
}

TEST(StudyPlan, Fig7LayersAreExistingOptionKeys)
{
    std::vector<driver::DriverOptions> points =
        findStudy("fig7")->plan(quickContext());
    ASSERT_FALSE(points.empty());
    ASSERT_EQ(points.size() % 4, 0u);

    // Ideal, + network, + allocated SRAM, + DRAM (Section 4.4).
    sim::CapstanConfig ideal = sim::CapstanConfig::ideal();
    sim::CapstanConfig with_net = ideal;
    with_net.network_hop_latency =
        sim::CapstanConfig::capstan().network_hop_latency;
    sim::CapstanConfig with_sram = with_net;
    with_sram.spmu.ideal = false;
    const std::vector<sim::CapstanConfig> layers = {
        ideal, with_net, with_sram,
        sim::CapstanConfig::capstan(sim::MemTech::HBM2E)};
    for (std::size_t i = 0; i < points.size(); ++i)
        EXPECT_TRUE(driver::buildConfig(points[i]) == layers[i % 4])
            << "point " << i << " (layer " << i % 4 << ")";
}

TEST(StudyPlan, SimulationKeyMergesEquivalentSpellings)
{
    const driver::SimulationKey plain = keyOf("BFS", {});
    // Set-to-default equals unset; config=ideal ignores memtech.
    EXPECT_TRUE(keyOf("BFS", {{"scan-bits", "256"}}) == plain);
    EXPECT_TRUE(keyOf("BFS", {{"config", "ideal"}}) ==
                keyOf("BFS", {{"config", "ideal"}, {"memtech", "ideal"}}));
    // Aliases and the default dataset resolve before comparing.
    EXPECT_TRUE(keyOf("bfs", {{"dataset", "usroads-48"}}) == plain);

    // One resolved field apart keeps points apart.
    EXPECT_FALSE(keyOf("BFS", {{"scan-bits", "512"}}) == plain);
    EXPECT_FALSE(keyOf("BFS", {{"memtech", "ddr4"}}) == plain);
    EXPECT_FALSE(keyOf("BFS", {{"spmu-ideal", "true"}}) == plain);
    EXPECT_FALSE(keyOf("BFS", {{"dataset", "flickr"}}) == plain);
    EXPECT_FALSE(keyOf("BFS", {{"tiles", "8"}}) == plain);
    EXPECT_FALSE(keyOf("BFS", {{"iterations", "2"}}) == plain);
    EXPECT_FALSE(keyOf("BFS", {{"scale", "0.5"}}) == plain);
    EXPECT_FALSE(keyOf("SSSP", {}) == plain);
    driver::DriverOptions elsewhere = quickContext().base("BFS", "");
    elsewhere.dataset_dir = "data/fixtures";
    EXPECT_FALSE(driver::simulationKey(elsewhere) == plain);

    // The planner merges on the key: fig7's ideal layer and Table
    // 12's ideal row are one simulation.
    Study a{"a", "A", "fig7-style", nullptr, countTimings};
    a.plan = [](const StudyContext &ctx) {
        driver::DriverOptions o = ctx.base("CSR", "");
        driver::applyOption(o, "config", "ideal");
        return std::vector<driver::DriverOptions>{o};
    };
    Study b{"b", "B", "table12-style", nullptr, countTimings};
    b.plan = [](const StudyContext &ctx) {
        driver::DriverOptions o = ctx.base("CSR", "ckt11752_dc_1");
        driver::applyOption(o, "config", "ideal");
        driver::applyOption(o, "memtech", "ideal");
        return std::vector<driver::DriverOptions>{o, o};
    };
    ReportPlan plan = planStudies({&a, &b}, quickContext());
    EXPECT_EQ(plan.planned(), 3u);
    EXPECT_EQ(plan.distinct.size(), 1u);
}

TEST(StudyPlan, ClaimOrderRoundRobinsOverPerStudyGroups)
{
    // Claiming a study's same-dataset points back to back would keep
    // its heaviest runs resident together: take one point per group
    // per round, a group being one study's points on one (app,
    // dataset), groups in plan order.
    Study a{"a", "A", "two groups", nullptr, countTimings};
    a.plan = [](const StudyContext &ctx) {
        std::vector<driver::DriverOptions> points;
        for (const char *tiles : {"2", "4", "8"}) {
            driver::DriverOptions o = ctx.base("CSR", "");
            driver::applyOption(o, "tiles", tiles);
            points.push_back(o);
        }
        for (const char *tiles : {"2", "8"}) {
            driver::DriverOptions o = ctx.base("BFS", "");
            driver::applyOption(o, "tiles", tiles);
            points.push_back(o);
        }
        return points;
    };
    Study b{"b", "B", "same app and dataset", nullptr, countTimings};
    b.plan = [](const StudyContext &ctx) {
        driver::DriverOptions o = ctx.base("CSR", "");
        driver::applyOption(o, "tiles", "16");
        // The first point repeats one of a's and stays in a's group.
        return std::vector<driver::DriverOptions>{ctx.base("CSR", ""),
                                                  o};
    };
    ReportPlan plan = planStudies({&a, &b}, quickContext());
    std::vector<std::pair<std::string, int>> order;
    for (const auto &p : plan.distinct)
        order.emplace_back(driver::simulationKey(p).app, p.tiles);
    const std::vector<std::pair<std::string, int>> expected = {
        {"CSR", 2}, {"BFS", 2}, {"CSR", 16}, // Round 0.
        {"CSR", 4}, {"BFS", 8},              // Round 1.
        {"CSR", 8}};                         // Round 2.
    EXPECT_EQ(order, expected);
    // Results still reach each study in its own plan order.
    ASSERT_EQ(plan.studies[1].slots.size(), 2u);
    EXPECT_EQ(plan.studies[1].slots[0], 3u); // a's tiles=4 point.
    EXPECT_EQ(plan.studies[1].slots[1], 2u);
}

TEST(StudyPlan, JointPlanMatchesEachStudyAlone)
{
    StudyContext ctx = quickContext();
    ctx.jobs = 2;
    const std::vector<const Study *> studies = {
        findStudy("table10"), findStudy("table11"), findStudy("fig6")};
    ReportPlan plan = planStudies(studies, ctx);
    // Table 10's and Table 11's plain Conv points are one simulation.
    EXPECT_LT(plan.distinct.size(), plan.planned());

    std::size_t calls = 0;
    ctx.progress = [&](std::size_t done, std::size_t total,
                       const driver::SweepPointResult &r) {
        ++calls;
        EXPECT_EQ(done, calls);
        EXPECT_EQ(total, plan.planned());
        EXPECT_TRUE(r.ok) << r.error;
    };
    std::vector<StudyRun> joint = runPlan(plan, ctx);
    EXPECT_EQ(calls, plan.planned());

    ctx.progress = {};
    ASSERT_EQ(joint.size(), studies.size());
    for (std::size_t i = 0; i < studies.size(); ++i) {
        StudyRun alone = runStudies({studies[i]}, ctx).front();
        ASSERT_TRUE(joint[i].ok) << joint[i].error;
        ASSERT_TRUE(alone.ok) << alone.error;
        EXPECT_EQ(joint[i].study, studies[i]);
        EXPECT_EQ(joint[i].result.metrics, alone.result.metrics)
            << studies[i]->name;
        ASSERT_EQ(joint[i].result.tables.size(),
                  alone.result.tables.size());
        for (std::size_t t = 0; t < alone.result.tables.size(); ++t) {
            EXPECT_EQ(joint[i].result.tables[t].title,
                      alone.result.tables[t].title);
            EXPECT_EQ(joint[i].result.tables[t].headers,
                      alone.result.tables[t].headers);
            EXPECT_EQ(joint[i].result.tables[t].rows,
                      alone.result.tables[t].rows);
        }
    }
}

TEST(StudyPlan, CancelInterruptsOnlyUnfinishedStudies)
{
    // One worker claims CSR (its own group, first in plan order), then
    // the cancel fires before either BFS point is claimed.
    Study first{"first", "First", "one point", nullptr, countTimings};
    first.plan = [](const StudyContext &ctx) {
        return std::vector<driver::DriverOptions>{ctx.base("CSR", "")};
    };
    Study second{"second", "Second", "two points", nullptr,
                 countTimings};
    second.plan = [](const StudyContext &ctx) {
        driver::DriverOptions wide = ctx.base("BFS", "");
        wide.tiles = 8;
        return std::vector<driver::DriverOptions>{ctx.base("BFS", ""),
                                                  wide};
    };
    std::atomic<bool> cancel{false};
    common::ScopedCancelToken armed(&cancel);
    StudyContext ctx = quickContext();
    ctx.progress = [&](std::size_t, std::size_t,
                       const driver::SweepPointResult &) {
        cancel.store(true);
    };
    std::vector<StudyRun> runs =
        runStudies({&first, &second, findStudy("table5")}, ctx);
    ASSERT_EQ(runs.size(), 3u);
    ASSERT_TRUE(runs[0].ok) << runs[0].error;
    EXPECT_FALSE(runs[0].interrupted);
    EXPECT_EQ(runs[0].result.metrics.front().second, 1.0);
    EXPECT_FALSE(runs[1].ok);
    EXPECT_TRUE(runs[1].interrupted);
    EXPECT_EQ(runs[1].verdict(), "interrupted");
    // A study that planned no points has nothing left to run.
    EXPECT_TRUE(runs[2].ok) << runs[2].error;
}

TEST(StudyPlan, FailedPointFailsOnlyItsStudy)
{
    Study broken{"broken", "Broken", "bad dataset", nullptr,
                 countTimings};
    broken.plan = [](const StudyContext &ctx) {
        return std::vector<driver::DriverOptions>{
            ctx.base("CSR", "no-such-dataset"), ctx.base("CSR", "")};
    };
    Study fine{"fine", "Fine", "shares a point", nullptr, countTimings};
    fine.plan = [](const StudyContext &ctx) {
        return std::vector<driver::DriverOptions>{ctx.base("CSR", "")};
    };
    std::vector<StudyRun> runs =
        runStudies({&broken, &fine}, quickContext());
    ASSERT_EQ(runs.size(), 2u);
    // A half-failed study renders no cells: it fails with the point's
    // error, classified as a dataset usage error.
    EXPECT_FALSE(runs[0].ok);
    EXPECT_FALSE(runs[0].interrupted);
    EXPECT_TRUE(runs[0].usage_error);
    EXPECT_NE(runs[0].error.find("1 of 2 sweep points failed"),
              std::string::npos)
        << runs[0].error;
    EXPECT_NE(runs[0].error.find("no-such-dataset"), std::string::npos);
    EXPECT_EQ(runs[0].verdict(), "error");
    ASSERT_TRUE(runs[1].ok) << runs[1].error;
    EXPECT_EQ(runs[1].result.metrics.front().second, 1.0);
}

TEST(StudyPlan, PlanErrorsFailTheirStudy)
{
    Study bad{"bad", "Bad", "throws", nullptr, countTimings};
    bad.plan = [](const StudyContext &) -> std::vector<driver::DriverOptions> {
        throw std::invalid_argument("bad axis value");
    };
    std::vector<StudyRun> runs =
        runStudies({&bad, findStudy("table5")}, quickContext());
    ASSERT_EQ(runs.size(), 2u);
    EXPECT_FALSE(runs[0].ok);
    EXPECT_EQ(runs[0].error, "bad axis value");
    EXPECT_TRUE(runs[1].ok);
}
