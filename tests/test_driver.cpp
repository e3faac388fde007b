/**
 * @file
 * Tests for the `capstan-run` driver subsystem: flag parsing, machine
 * configuration composition, app/workload dispatch, and the JSON stats
 * round-trip.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "common/json.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"
#include "workloads/datasets.hpp"

namespace {

using namespace capstan;
using namespace capstan::driver;

// ---------------------------------------------------------------------------
// Flag parsing.
// ---------------------------------------------------------------------------

TEST(DriverOptions, DefaultsAreSpmvOnFirstLinearAlgebraDataset)
{
    ParseResult r = parseArgs({});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.options.app, "spmv");
    EXPECT_EQ(r.options.dataset,
              workloads::linearAlgebraDatasetNames().front());
    EXPECT_EQ(r.options.tiles, 16);
    EXPECT_EQ(r.options.iterations, 2);
    EXPECT_DOUBLE_EQ(r.options.scale, 1.0);
    EXPECT_FALSE(r.options.json);
    EXPECT_EQ(r.options.config, ConfigPoint::Capstan);
    EXPECT_EQ(r.options.memtech, sim::MemTech::HBM2E);
}

TEST(DriverOptions, ParsesWorkloadAndMachineFlags)
{
    ParseResult r = parseArgs({"--app", "pagerank-edge",
                               "--dataset", "web-Stanford",
                               "--scale", "0.5",
                               "--tiles", "8",
                               "--iterations", "3",
                               "--config", "plasticine",
                               "--memtech", "ddr4",
                               "--ordering", "address",
                               "--merge", "mrg16",
                               "--hash", "linear",
                               "--allocator", "weak",
                               "--queue-depth", "4",
                               "--bandwidth-gbps", "240",
                               "--compression",
                               "--json", "--compact",
                               "--output", "/tmp/stats.json"});
    ASSERT_TRUE(r.ok()) << r.error;
    const DriverOptions &o = r.options;
    EXPECT_EQ(o.app, "pagerank-edge");
    EXPECT_EQ(o.dataset, "web-Stanford");
    EXPECT_DOUBLE_EQ(o.scale, 0.5);
    EXPECT_EQ(o.tiles, 8);
    EXPECT_EQ(o.iterations, 3);
    EXPECT_EQ(o.config, ConfigPoint::Plasticine);
    EXPECT_EQ(o.memtech, sim::MemTech::DDR4);
    ASSERT_TRUE(o.ordering.has_value());
    EXPECT_EQ(*o.ordering, sim::Ordering::AddressOrdered);
    ASSERT_TRUE(o.merge.has_value());
    EXPECT_EQ(*o.merge, sim::MergeMode::Mrg16);
    ASSERT_TRUE(o.hash.has_value());
    EXPECT_EQ(*o.hash, sim::BankHash::Linear);
    ASSERT_TRUE(o.allocator.has_value());
    EXPECT_EQ(*o.allocator, sim::AllocatorKind::Weak);
    ASSERT_TRUE(o.queue_depth.has_value());
    EXPECT_EQ(*o.queue_depth, 4);
    ASSERT_TRUE(o.bandwidth_gbps.has_value());
    EXPECT_DOUBLE_EQ(*o.bandwidth_gbps, 240.0);
    EXPECT_TRUE(o.compression);
    EXPECT_TRUE(o.json);
    EXPECT_EQ(o.json_indent, 0);
    EXPECT_EQ(o.output, "/tmp/stats.json");
}

TEST(DriverOptions, ScannerGeometryKeysComposeIntoConfig)
{
    ParseResult r = parseArgs({"--scan-bits", "64", "--scan-outputs",
                               "4", "--scan-data-elems", "8"});
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.options.scan_bits.has_value());
    EXPECT_EQ(*r.options.scan_bits, 64);
    sim::CapstanConfig cfg = buildConfig(r.options);
    EXPECT_EQ(cfg.scanner.window_bits, 64);
    EXPECT_EQ(cfg.scanner.outputs, 4);
    EXPECT_EQ(cfg.scanner.data_elements, 8);
    // Defaults stay at the Table 7 design point when unset.
    sim::CapstanConfig base = buildConfig(parseArgs({}).options);
    EXPECT_EQ(base.scanner.window_bits, 256);
    EXPECT_EQ(base.scanner.outputs, 16);
    EXPECT_EQ(base.scanner.data_elements, 16);

    EXPECT_FALSE(parseArgs({"--scan-bits", "0"}).ok());
    EXPECT_FALSE(parseArgs({"--scan-outputs", "-1"}).ok());
    EXPECT_FALSE(parseArgs({"--scan-data-elems", "x"}).ok());
}

TEST(DriverOptions, DryRunFlagParses)
{
    EXPECT_FALSE(parseArgs({}).options.dry_run);
    ParseResult r = parseArgs({"--dry-run", "--app", "spmv"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.options.dry_run);
}

TEST(DriverOptions, CompactImpliesJson)
{
    ParseResult r = parseArgs({"--compact"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_TRUE(r.options.json);
    EXPECT_EQ(r.options.json_indent, 0);
}

TEST(DriverOptions, RejectsBadInput)
{
    EXPECT_FALSE(parseArgs({"--app", "nonsense"}).ok());
    EXPECT_FALSE(parseArgs({"--app"}).ok());
    EXPECT_FALSE(parseArgs({"--scale", "-1"}).ok());
    EXPECT_FALSE(parseArgs({"--scale", "abc"}).ok());
    EXPECT_FALSE(parseArgs({"--tiles", "0"}).ok());
    EXPECT_FALSE(parseArgs({"--tiles", "2.5"}).ok());
    EXPECT_FALSE(parseArgs({"--config", "tpu"}).ok());
    EXPECT_FALSE(parseArgs({"--memtech", "hbm3"}).ok());
    EXPECT_FALSE(parseArgs({"--ordering", "sometimes"}).ok());
    EXPECT_FALSE(parseArgs({"--frobnicate"}).ok());
    EXPECT_FALSE(parseArgs({}).show_help);
    // Non-finite and out-of-range numerics must be rejected, not run.
    EXPECT_FALSE(parseArgs({"--scale", "nan"}).ok());
    EXPECT_FALSE(parseArgs({"--scale", "inf"}).ok());
    EXPECT_FALSE(parseArgs({"--bandwidth-gbps", "nan"}).ok());
    EXPECT_FALSE(parseArgs({"--tiles", "3000000000"}).ok());
    EXPECT_FALSE(parseArgs({"--queue-depth", "1e20"}).ok());
    EXPECT_FALSE(parseArgs({"--dataset-dir"}).ok());
}

TEST(DriverOptions, DatasetDirAndSchemesParse)
{
    ParseResult r = parseArgs({"--dataset", "file:some/path.mtx",
                               "--dataset-dir", "data/real"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.options.dataset, "file:some/path.mtx");
    EXPECT_EQ(r.options.dataset_dir, "data/real");

    // Sweep points inherit the dataset dir from the base options.
    ParseResult s = parseArgs({"--dataset-dir", "data/real", "--axis",
                               "app=spmv,matadd"});
    ASSERT_TRUE(s.ok()) << s.error;
    SweepSpec spec = specFromOptions(s.options, nullptr);
    for (const auto &point : expandSweep(spec))
        EXPECT_EQ(point.dataset_dir, "data/real");
}

TEST(DriverOptions, ParsesSweepFlags)
{
    ParseResult r = parseArgs({"--sweep", "spec.json",
                               "--axis", "tiles=2,4",
                               "--axis", "memtech=ddr4,hbm2e",
                               "--jobs", "4",
                               "--csv", "out.csv",
                               "--spmu-ideal"});
    ASSERT_TRUE(r.ok()) << r.error;
    const DriverOptions &o = r.options;
    EXPECT_TRUE(o.sweepRequested());
    EXPECT_EQ(o.sweep_file, "spec.json");
    ASSERT_EQ(o.sweep_axes.size(), 2u);
    EXPECT_EQ(o.sweep_axes[0].first, "tiles");
    EXPECT_EQ(o.sweep_axes[0].second, "2,4");
    EXPECT_EQ(o.jobs, 4);
    EXPECT_EQ(o.csv_output, "out.csv");
    ASSERT_TRUE(o.spmu_ideal.has_value());
    EXPECT_TRUE(*o.spmu_ideal);
    // Sweeps defer dataset defaults to per-point expansion.
    EXPECT_TRUE(o.dataset.empty());

    EXPECT_FALSE(parseArgs({}).options.sweepRequested());
    EXPECT_FALSE(parseArgs({"--axis", "tiles"}).ok());
    EXPECT_FALSE(parseArgs({"--axis", "=2,4"}).ok());
    EXPECT_FALSE(parseArgs({"--jobs", "-1"}).ok());
    EXPECT_FALSE(parseArgs({"--sweep"}).ok());
}

TEST(DriverOptions, ApplyOptionIsTheSingleValidationPath)
{
    DriverOptions o;
    EXPECT_EQ(applyOption(o, "memtech", "ddr4"), "");
    EXPECT_EQ(o.memtech, sim::MemTech::DDR4);
    EXPECT_EQ(applyOption(o, "spmu-ideal", "true"), "");
    ASSERT_TRUE(o.spmu_ideal.has_value());
    EXPECT_TRUE(*o.spmu_ideal);
    EXPECT_EQ(applyOption(o, "compression", "on"), "");
    EXPECT_TRUE(o.compression);
    EXPECT_FALSE(applyOption(o, "memtech", "hbm9").empty());
    EXPECT_FALSE(applyOption(o, "frobnicate", "1").empty());
    EXPECT_FALSE(applyOption(o, "tiles", "0").empty());
    // A lane's owning tile is an int8_t: 128 tiles is the most a
    // machine can address, and a refused value leaves the option alone.
    EXPECT_EQ(applyOption(o, "tiles", "128"), "");
    EXPECT_EQ(o.tiles, 128);
    EXPECT_NE(applyOption(o, "tiles", "129").find("1 to 128"),
              std::string::npos);
    EXPECT_FALSE(applyOption(o, "tiles", "300").empty());
    EXPECT_EQ(o.tiles, 128);
    EXPECT_FALSE(parseArgs({"--app", "pagerank", "--tiles", "257"}).ok());
    // parseTiles is the check applyOption and capstan-report share.
    int tiles = 7;
    EXPECT_FALSE(parseTiles("129", tiles));
    EXPECT_FALSE(parseTiles("0", tiles));
    EXPECT_FALSE(parseTiles("4.5", tiles));
    EXPECT_EQ(tiles, 7); // Unchanged on failure.
    EXPECT_TRUE(parseTiles("128", tiles));
    EXPECT_EQ(tiles, sim::kMaxTiles);
    // The SpMU finds a grant's slot in a 64-bit mask of queue
    // positions: 64 is the deepest queue, and a refused depth leaves
    // the option alone.
    EXPECT_EQ(applyOption(o, "queue-depth", "64"), "");
    EXPECT_EQ(o.queue_depth, sim::kMaxQueueDepth);
    EXPECT_NE(applyOption(o, "queue-depth", "65").find("1 to 64"),
              std::string::npos);
    EXPECT_FALSE(applyOption(o, "queue-depth", "0").empty());
    EXPECT_EQ(o.queue_depth, 64);
    EXPECT_FALSE(parseArgs({"--app", "spmv", "--queue-depth", "65"}).ok());
    // Every advertised key is dispatched (none falls through to the
    // unknown-option branch).
    for (const auto &key : optionKeys()) {
        DriverOptions fresh;
        std::string err = applyOption(fresh, key, "???");
        EXPECT_EQ(err.find("unknown option"), std::string::npos)
            << key << ": " << err;
    }
}

TEST(DriverOptions, HelpAndListShortCircuit)
{
    EXPECT_TRUE(parseArgs({"--help"}).show_help);
    EXPECT_TRUE(parseArgs({"-h"}).show_help);
    EXPECT_TRUE(parseArgs({"--list"}).show_list);
    EXPECT_FALSE(usageText().empty());
    EXPECT_NE(listText().find("spmv"), std::string::npos);
}

TEST(DriverOptions, CanonicalAppNamesCoverTable2)
{
    EXPECT_EQ(canonicalApp("spmv"), "CSR");
    EXPECT_EQ(canonicalApp("SPMV-COO"), "COO");
    EXPECT_EQ(canonicalApp("spmv-csc"), "CSC");
    EXPECT_EQ(canonicalApp("conv"), "Conv");
    EXPECT_EQ(canonicalApp("pagerank"), "PR-Pull");
    EXPECT_EQ(canonicalApp("pagerank-edge"), "PR-Edge");
    EXPECT_EQ(canonicalApp("graph"), "BFS");
    EXPECT_EQ(canonicalApp("bfs"), "BFS");
    EXPECT_EQ(canonicalApp("sssp"), "SSSP");
    EXPECT_EQ(canonicalApp("matadd"), "M+M");
    EXPECT_EQ(canonicalApp("spmspm"), "SpMSpM");
    EXPECT_EQ(canonicalApp("bicgstab"), "BiCGStab");
    EXPECT_FALSE(canonicalApp("gemm").has_value());
    EXPECT_FALSE(canonicalApp("").has_value());
    // Every advertised app name resolves, in the canonical keys' order,
    // and every key names a dataset family whose first is its default.
    ASSERT_EQ(appNames().size(), 11u);
    ASSERT_EQ(allApps().size(), 11u);
    for (std::size_t i = 0; i < appNames().size(); ++i) {
        EXPECT_EQ(canonicalApp(appNames()[i]), allApps()[i]);
        EXPECT_EQ(canonicalApp(allApps()[i]), allApps()[i]);
        ASSERT_FALSE(datasetsFor(allApps()[i]).empty()) << allApps()[i];
        EXPECT_EQ(defaultDataset(allApps()[i]),
                  datasetsFor(allApps()[i]).front());
    }
    EXPECT_EQ(datasetsFor("SSSP"), workloads::graphDatasetNames());
    EXPECT_EQ(datasetsFor("Conv"), workloads::convDatasetNames());
    EXPECT_THROW(datasetsFor("GEMM"), std::invalid_argument);
}

TEST(DriverOptions, DatasetDefaultsFollowTheApp)
{
    ParseResult graph = parseArgs({"--app", "bfs"});
    ASSERT_TRUE(graph.ok());
    EXPECT_EQ(graph.options.dataset,
              workloads::graphDatasetNames().front());

    ParseResult conv = parseArgs({"--app", "conv"});
    ASSERT_TRUE(conv.ok());
    EXPECT_EQ(conv.options.dataset,
              workloads::convDatasetNames().front());

    ParseResult spmspm = parseArgs({"--app", "spmspm"});
    ASSERT_TRUE(spmspm.ok());
    EXPECT_EQ(spmspm.options.dataset,
              workloads::spmspmDatasetNames().front());
}

TEST(DriverOptions, BuildConfigAppliesOverrides)
{
    ParseResult r = parseArgs({"--config", "capstan",
                               "--memtech", "hbm2",
                               "--ordering", "fully",
                               "--merge", "none",
                               "--queue-depth", "8",
                               "--bandwidth-gbps", "123",
                               "--compression"});
    ASSERT_TRUE(r.ok()) << r.error;
    sim::CapstanConfig cfg = buildConfig(r.options);
    EXPECT_EQ(cfg.dram.tech, sim::MemTech::HBM2);
    EXPECT_EQ(cfg.spmu.ordering, sim::Ordering::FullyOrdered);
    EXPECT_EQ(cfg.merge, sim::MergeMode::None);
    EXPECT_EQ(cfg.spmu.queue_depth, 8);
    EXPECT_DOUBLE_EQ(cfg.dram.bandwidth_override_gbps, 123.0);
    EXPECT_TRUE(cfg.dram.compression);

    ParseResult p = parseArgs({"--config", "plasticine"});
    ASSERT_TRUE(p.ok());
    EXPECT_FALSE(buildConfig(p.options).spmu.sparse_support);

    ParseResult i = parseArgs({"--config", "ideal"});
    ASSERT_TRUE(i.ok());
    EXPECT_EQ(buildConfig(i.options).dram.tech, sim::MemTech::Ideal);
}

// ---------------------------------------------------------------------------
// JSON document model.
// ---------------------------------------------------------------------------

TEST(DriverJson, DumpAndParseRoundTripsAllKinds)
{
    JsonValue doc = JsonValue::object();
    doc.set("string", "line\n\"quoted\"\tend");
    doc.set("int", std::int64_t{-42});
    doc.set("big", std::uint64_t{1} << 53);
    doc.set("pi", 3.14159265358979);
    doc.set("yes", true);
    doc.set("no", false);
    doc.set("nothing", JsonValue());
    JsonValue arr = JsonValue::array();
    arr.push(1).push("two").push(JsonValue::object().set("k", 3));
    doc.set("arr", std::move(arr));

    for (int indent : {0, 2}) {
        JsonValue back = JsonValue::parse(doc.dump(indent));
        EXPECT_EQ(back.at("string").asString(),
                  "line\n\"quoted\"\tend");
        EXPECT_DOUBLE_EQ(back.at("int").asNumber(), -42);
        EXPECT_DOUBLE_EQ(back.at("big").asNumber(),
                         9007199254740992.0);
        EXPECT_DOUBLE_EQ(back.at("pi").asNumber(), 3.14159265358979);
        EXPECT_TRUE(back.at("yes").asBool());
        EXPECT_FALSE(back.at("no").asBool());
        EXPECT_TRUE(back.at("nothing").isNull());
        ASSERT_EQ(back.at("arr").size(), 3u);
        const auto &items = back.at("arr").items();
        EXPECT_DOUBLE_EQ(items.at(0).asNumber(), 1);
        EXPECT_EQ(items.at(1).asString(), "two");
        EXPECT_DOUBLE_EQ(items.at(2).at("k").asNumber(), 3);
    }
}

TEST(DriverJson, ObjectKeysKeepInsertionOrderAndOverwrite)
{
    JsonValue obj = JsonValue::object();
    obj.set("z", 1).set("a", 2).set("z", 3);
    ASSERT_EQ(obj.members().size(), 2u);
    EXPECT_EQ(obj.members()[0].first, "z");
    EXPECT_EQ(obj.members()[1].first, "a");
    EXPECT_DOUBLE_EQ(obj.at("z").asNumber(), 3);
    EXPECT_TRUE(obj.contains("a"));
    EXPECT_FALSE(obj.contains("b"));
    EXPECT_THROW(obj.at("b"), std::out_of_range);
}

TEST(DriverJson, ParserRejectsMalformedDocuments)
{
    EXPECT_THROW(JsonValue::parse(""), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("[1,]"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("tru"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("\"unterminated"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("1 2"), JsonParseError);
    EXPECT_THROW(JsonValue::parse("1..5"), JsonParseError);
}

TEST(DriverJson, CountersPrintAsExactIntegers)
{
    JsonValue v(std::uint64_t{123456789});
    EXPECT_EQ(v.dump(), "123456789");
}

TEST(DriverJson, NonFiniteNumbersSerializeAsNull)
{
    // JSON has no NaN/Inf literals; a stat that divides by zero must
    // produce a document every parser still accepts. Regression guard
    // for report.json / sweep reports poisoned by bare `nan`.
    EXPECT_EQ(JsonValue(std::nan("")).dump(), "null");
    EXPECT_EQ(JsonValue(std::numeric_limits<double>::infinity()).dump(),
              "null");
    EXPECT_EQ(
        JsonValue(-std::numeric_limits<double>::infinity()).dump(),
        "null");

    JsonValue doc = JsonValue::object();
    doc.set("ok", 1.5);
    doc.set("bad", std::nan(""));
    JsonValue arr = JsonValue::array();
    arr.push(std::numeric_limits<double>::infinity());
    doc.set("arr", std::move(arr));
    EXPECT_EQ(doc.dump(), "{\"ok\":1.5,\"bad\":null,\"arr\":[null]}");

    // The emitted document round-trips through our own parser.
    JsonValue back = JsonValue::parse(doc.dump());
    EXPECT_TRUE(back.at("bad").isNull());
    EXPECT_TRUE(back.at("arr").items().at(0).isNull());
}

// ---------------------------------------------------------------------------
// Dispatch and the stats schema.
// ---------------------------------------------------------------------------

class DriverRun : public ::testing::Test
{
  protected:
    static RunResult tinyRun(const std::vector<std::string> &extra = {})
    {
        std::vector<std::string> args = {"--scale", "0.05", "--tiles",
                                         "4"};
        args.insert(args.end(), extra.begin(), extra.end());
        ParseResult r = parseArgs(args);
        EXPECT_TRUE(r.ok()) << r.error;
        return runDriver(r.options);
    }
};

TEST_F(DriverRun, SpmvProducesPopulatedStats)
{
    RunResult r = tinyRun();
    EXPECT_EQ(r.app, "CSR");
    EXPECT_GT(r.timing.cycles, 0u);
    EXPECT_GT(r.timing.runtime_ms, 0.0);
    EXPECT_GT(r.timing.dram.bursts, 0u);
    EXPECT_GT(r.timing.spmu.grants, 0u);
    EXPECT_GT(r.timing.totals.active_lane_cycles, 0.0);
    EXPECT_GT(r.info.rows, 0);
    EXPECT_GT(r.info.nnz, 0);
    EXPECT_FALSE(statsToText(r).empty());
}

TEST_F(DriverRun, DispatchReachesOtherAppFamilies)
{
    RunResult bfs = tinyRun({"--app", "bfs"});
    EXPECT_EQ(bfs.app, "BFS");
    EXPECT_GT(bfs.timing.cycles, 0u);

    RunResult spmspm = tinyRun({"--app", "spmspm"});
    EXPECT_EQ(spmspm.app, "SpMSpM");
    EXPECT_GT(spmspm.timing.cycles, 0u);
}

TEST_F(DriverRun, UnknownDatasetThrows)
{
    ParseResult r = parseArgs({"--dataset", "no_such_matrix"});
    ASSERT_TRUE(r.ok());
    EXPECT_THROW(runDriver(r.options), std::invalid_argument);
}

TEST_F(DriverRun, JsonStatsRoundTripMatchesTheRun)
{
    RunResult r = tinyRun({"--iterations", "1"});
    JsonValue back = JsonValue::parse(statsToJson(r).dump(2));

    EXPECT_EQ(back.at("app").asString(), "CSR");
    EXPECT_EQ(back.at("dataset").at("name").asString(), r.dataset);
    EXPECT_DOUBLE_EQ(back.at("dataset").at("nnz").asNumber(),
                     static_cast<double>(r.info.nnz));
    EXPECT_EQ(back.at("config").at("name").asString(), "capstan");
    EXPECT_EQ(back.at("config").at("memtech").asString(), "HBM2E");
    EXPECT_DOUBLE_EQ(back.at("config").at("tiles").asNumber(), 4);
    EXPECT_DOUBLE_EQ(back.at("timing").at("cycles").asNumber(),
                     static_cast<double>(r.timing.cycles));
    EXPECT_DOUBLE_EQ(back.at("dram").at("bursts").asNumber(),
                     static_cast<double>(r.timing.dram.bursts));
    EXPECT_DOUBLE_EQ(
        back.at("spmu").at("grants").asNumber(),
        static_cast<double>(r.timing.spmu.grants));
    EXPECT_DOUBLE_EQ(
        back.at("spmu").at("bank_utilization").asNumber(),
        r.timing.spmu.bankUtilization());
    double occupancy = back.at("lanes").at("occupancy").asNumber();
    EXPECT_GT(occupancy, 0.0);
    EXPECT_LE(occupancy, 1.0);
}

TEST_F(DriverRun, ConfigNameReportsTheRequestedDesignPoint)
{
    // Capstan with ideal memory is NOT the ideal design point; the
    // stats must keep the two distinguishable.
    RunResult r = tinyRun({"--config", "capstan", "--memtech",
                           "ideal"});
    EXPECT_EQ(r.config_name, "capstan");
    JsonValue back = JsonValue::parse(statsToJson(r).dump(0));
    EXPECT_EQ(back.at("config").at("name").asString(), "capstan");
    EXPECT_EQ(back.at("config").at("memtech").asString(), "Ideal");
}

TEST_F(DriverRun, CompactAndPrettyJsonParseIdentically)
{
    RunResult r = tinyRun();
    JsonValue doc = statsToJson(r);
    JsonValue compact = JsonValue::parse(doc.dump(0));
    JsonValue pretty = JsonValue::parse(doc.dump(4));
    EXPECT_EQ(compact.dump(0), pretty.dump(0));
}

TEST(ParseHelpers, ParseNumberRejectsGarbageAndInfinities)
{
    // The strict helpers are the single numeric-validation path shared
    // by capstan-run, capstan-report, and capstan-serve.
    double d = -1;
    EXPECT_TRUE(parseNumber("0.5", d));
    EXPECT_DOUBLE_EQ(d, 0.5);
    EXPECT_TRUE(parseNumber("1e3", d));
    EXPECT_DOUBLE_EQ(d, 1000.0);
    EXPECT_FALSE(parseNumber("", d));
    EXPECT_FALSE(parseNumber("foo", d));
    EXPECT_FALSE(parseNumber("4x", d));   // Trailing garbage.
    EXPECT_FALSE(parseNumber("1 2", d));
    EXPECT_FALSE(parseNumber("inf", d));
    EXPECT_FALSE(parseNumber("nan", d));
}

TEST(ParseHelpers, ParseIntRejectsFractionsAndOverflow)
{
    int i = -1;
    EXPECT_TRUE(parseInt("42", i));
    EXPECT_EQ(i, 42);
    EXPECT_TRUE(parseInt("-3", i));
    EXPECT_EQ(i, -3);
    EXPECT_TRUE(parseInt("00", i)); // Leading zeros are still zero.
    EXPECT_EQ(i, 0);
    EXPECT_FALSE(parseInt("1.5", i));
    EXPECT_FALSE(parseInt("foo", i));
    EXPECT_FALSE(parseInt("4x", i));
    EXPECT_FALSE(parseInt("1e18", i)); // Out of int range.
}

TEST(ParseHelpers, JobsContractIsSharedAcrossEntryPoints)
{
    // --jobs outside [0, 4096] is a parse error; 0 means "all cores"
    // and resolves to hardware_concurrency (>= 1) in one place.
    EXPECT_FALSE(parseArgs({"--jobs", "-1"}).ok());
    EXPECT_FALSE(parseArgs({"--jobs", "foo"}).ok());
    EXPECT_FALSE(parseArgs({"--jobs", "2.5"}).ok());
    ParseResult r = parseArgs({"--jobs", "0"});
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.options.jobs, 0);
    // The cap: an engine starts its pool threads up front.
    r = parseArgs({"--jobs", "4096"});
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_EQ(r.options.jobs, kMaxJobs);
    EXPECT_FALSE(parseArgs({"--jobs", "4097"}).ok());
    int jobs = 7;
    EXPECT_FALSE(parseJobs("4097", jobs));
    EXPECT_FALSE(parseJobs("-1", jobs));
    EXPECT_EQ(jobs, 7); // Unchanged on failure.
    EXPECT_TRUE(parseJobs("4096", jobs));
    EXPECT_EQ(jobs, 4096);
    EXPECT_GE(resolveJobs(0), 1);
    EXPECT_EQ(resolveJobs(3), 3);
    EXPECT_GE(resolveJobs(-7), 1); // Defensive: clamps like 0.
}

TEST(ParseHelpers, RetiredKnobsAreUnknownFlags)
{
    // Each retired knob is now an unknown flag (a usage error, exit 2
    // at the CLI) and not an option key: the intra-run thread count
    // (--jobs is the only host-parallelism knob) and the dataset
    // backing store (datasets are always CSR). Names are assembled so
    // no live source spells a retired knob.
    const std::string retired[] = {
        std::string("intra") + "-jobs",
        std::string("matrix") + "-store",
    };
    for (const std::string &key : retired) {
        SCOPED_TRACE(key);
        EXPECT_FALSE(parseArgs({"--" + key, "csr"}).ok());
        EXPECT_FALSE(parseArgs({"--" + key, "4"}).ok());
        DriverOptions o;
        EXPECT_NE(applyOption(o, key, "4"), "");
        for (const auto &k : optionKeys())
            EXPECT_NE(k, key);
    }
}

} // namespace
