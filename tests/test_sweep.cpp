/**
 * @file
 * Tests for the parallel sweep engine (src/driver/sweep.hpp): spec
 * construction from JSON and CLI axes, cartesian expansion (count,
 * ordering, deduplication, rejection of unknown axes/values), the
 * thread-pool runner (deterministic report ordering, per-point error
 * capture, single-run equivalence), the WorkerPool it runs on, and the
 * generate-once dataset cache under concurrency (exercised by the TSan
 * CI job).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <system_error>
#include <thread>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/json.hpp"
#include "common/parallel.hpp"
#include "driver/options.hpp"
#include "driver/runner.hpp"
#include "driver/sweep.hpp"

namespace {

using namespace capstan;
using namespace capstan::driver;

DriverOptions
tinyBase()
{
    DriverOptions base;
    base.scale = 0.02;
    base.tiles = 2;
    base.iterations = 1;
    return base;
}

// ---------------------------------------------------------------------------
// Spec construction.
// ---------------------------------------------------------------------------

TEST(SweepSpec, AxesKeepCanonicalOrderRegardlessOfInsertion)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("tiles", {"2", "4"});
    spec.set("app", {"spmv", "bfs"});
    spec.set("memtech", {"ddr4"});
    ASSERT_EQ(spec.axes.size(), 3u);
    EXPECT_EQ(spec.axes[0].key, "app");
    EXPECT_EQ(spec.axes[1].key, "tiles");
    EXPECT_EQ(spec.axes[2].key, "memtech");

    // Replacing an axis keeps its position and takes the new values.
    spec.set("app", {"spmspm"});
    ASSERT_EQ(spec.axes.size(), 3u);
    EXPECT_EQ(spec.axes[0].key, "app");
    EXPECT_EQ(spec.axes[0].values, std::vector<std::string>{"spmspm"});
}

TEST(SweepSpec, RejectsUnknownAxesAndEmptyValueLists)
{
    SweepSpec spec;
    EXPECT_THROW(spec.set("frobnicate", {"1"}), std::invalid_argument);
    EXPECT_THROW(spec.set("tiles", {}), std::invalid_argument);
    // Output-shaping flags are not run axes.
    EXPECT_THROW(spec.set("json", {"true"}), std::invalid_argument);
    EXPECT_THROW(spec.set("jobs", {"4"}), std::invalid_argument);
}

TEST(SweepSpec, FromJsonAcceptsScalarsArraysNumbersAndBools)
{
    JsonValue doc = JsonValue::parse(
        R"({"app": ["spmv", "bfs"],
            "bandwidth-gbps": [20, 200.5],
            "compression": [false, true],
            "tiles": 4})");
    SweepSpec spec = SweepSpec::fromJson(doc, tinyBase());
    ASSERT_EQ(spec.axes.size(), 4u);
    EXPECT_EQ(spec.axes[0].key, "app");
    EXPECT_EQ(spec.axes[1].key, "tiles");
    EXPECT_EQ(spec.axes[1].values, std::vector<std::string>{"4"});
    EXPECT_EQ(spec.axes[2].key, "bandwidth-gbps");
    EXPECT_EQ(spec.axes[2].values,
              (std::vector<std::string>{"20", "200.5"}));
    EXPECT_EQ(spec.axes[3].values,
              (std::vector<std::string>{"false", "true"}));
}

TEST(SweepSpec, FromJsonRejectsUnknownAxesAndBadShapes)
{
    DriverOptions base;
    EXPECT_THROW(SweepSpec::fromJson(
                     JsonValue::parse(R"({"frobnicate": [1]})"), base),
                 std::invalid_argument);
    EXPECT_THROW(
        SweepSpec::fromJson(JsonValue::parse(R"([1, 2])"), base),
        std::invalid_argument);
    EXPECT_THROW(SweepSpec::fromJson(
                     JsonValue::parse(R"({"app": [["nested"]]})"),
                     base),
                 std::invalid_argument);
    EXPECT_THROW(
        SweepSpec::fromJson(JsonValue::parse(R"({"app": []})"), base),
        std::invalid_argument);
}

TEST(SweepSpec, JsonRoundTripIsStable)
{
    JsonValue doc = JsonValue::parse(
        R"({"bandwidth-gbps": [20, 100], "app": ["spmv"],
            "spmu-ideal": [true, false]})");
    SweepSpec spec = SweepSpec::fromJson(doc, tinyBase());
    JsonValue out = spec.toJson();
    SweepSpec back = SweepSpec::fromJson(out, tinyBase());
    EXPECT_EQ(out.dump(2), back.toJson().dump(2));
    // Canonical order in the emitted spec: app before bandwidth.
    EXPECT_EQ(out.members()[0].first, "app");
}

TEST(SweepSpec, CliAxesOverrideTheSpecFile)
{
    JsonValue doc =
        JsonValue::parse(R"({"app": ["spmv", "bfs"], "tiles": [8]})");
    DriverOptions opts = tinyBase();
    opts.sweep_axes = {{"tiles", "2,4"}, {"memtech", "ddr4,hbm2e"}};
    SweepSpec spec = specFromOptions(opts, &doc);
    ASSERT_EQ(spec.axes.size(), 3u);
    EXPECT_EQ(spec.axes[1].key, "tiles");
    EXPECT_EQ(spec.axes[1].values,
              (std::vector<std::string>{"2", "4"}));
    EXPECT_EQ(spec.axes[2].values,
              (std::vector<std::string>{"ddr4", "hbm2e"}));
}

// ---------------------------------------------------------------------------
// Expansion.
// ---------------------------------------------------------------------------

TEST(SweepExpand, CartesianCountAndNestingOrder)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("app", {"spmv", "bfs"});
    spec.set("tiles", {"2", "4", "8"});
    spec.set("memtech", {"ddr4", "hbm2e"});
    std::vector<DriverOptions> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 2u * 3u * 2u);

    // First axis outermost, last axis fastest.
    EXPECT_EQ(points[0].app, "spmv");
    EXPECT_EQ(points[0].tiles, 2);
    EXPECT_EQ(points[0].memtech, sim::MemTech::DDR4);
    EXPECT_EQ(points[1].memtech, sim::MemTech::HBM2E);
    EXPECT_EQ(points[2].tiles, 4);
    EXPECT_EQ(points[6].app, "bfs");
    // Un-swept knobs come from the base point.
    for (const auto &p : points) {
        EXPECT_DOUBLE_EQ(p.scale, 0.02);
        EXPECT_EQ(p.iterations, 1);
    }
}

TEST(SweepExpand, NoAxesMeansTheBasePointAlone)
{
    SweepSpec spec;
    spec.base = tinyBase();
    std::vector<DriverOptions> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 1u);
    EXPECT_EQ(points[0].app, "spmv");
}

TEST(SweepExpand, DeduplicatesAliasedAndRepeatedPoints)
{
    SweepSpec spec;
    spec.base = tinyBase();
    // "spmv" and "csr" are the same canonical app; "bfs" appears
    // twice. 4 axis values, 2 distinct runs.
    spec.set("app", {"spmv", "csr", "bfs", "bfs"});
    std::vector<DriverOptions> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].app, "spmv"); // First occurrence wins.
    EXPECT_EQ(points[1].app, "bfs");
}

TEST(SweepExpand, RejectsInvalidAxisValues)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("tiles", {"0"});
    EXPECT_THROW(expandSweep(spec), std::invalid_argument);

    SweepSpec bad_app;
    bad_app.base = tinyBase();
    bad_app.set("app", {"gemm"});
    EXPECT_THROW(expandSweep(bad_app), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Execution and reporting.
// ---------------------------------------------------------------------------

TEST(SweepRun, ReportIsDeterministicAcrossThreadCountsAndRuns)
{
    // A 24-point spec (2 apps x 3 bandwidths x 2 tile counts x 2
    // memory techs) on 4 threads — the acceptance-criteria shape.
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("app", {"spmv", "spmspm"});
    spec.set("bandwidth-gbps", {"50", "100", "200"});
    spec.set("tiles", {"2", "4"});
    spec.set("memtech", {"ddr4", "hbm2e"});
    std::vector<DriverOptions> points = expandSweep(spec);
    ASSERT_EQ(points.size(), 24u);

    auto report = [&](int jobs) {
        return sweepReportToJson(spec, runSweep(points, jobs)).dump(2);
    };
    std::string on_four = report(4);
    EXPECT_EQ(on_four, report(4)); // Run-to-run.
    EXPECT_EQ(on_four, report(1)); // Thread-count independent.
}

TEST(SweepRun, MatchesSingleRunsPointForPoint)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("app", {"spmv", "bfs", "spmspm"});
    spec.set("tiles", {"2", "4"});
    std::vector<DriverOptions> points = expandSweep(spec);
    std::vector<SweepPointResult> results = runSweep(points, 4);
    ASSERT_EQ(results.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        ASSERT_TRUE(results[i].ok) << results[i].error;
        RunResult single = runDriver(points[i]);
        EXPECT_EQ(results[i].result.app, single.app);
        EXPECT_EQ(results[i].result.dataset, single.dataset);
        EXPECT_EQ(results[i].result.timing.cycles,
                  single.timing.cycles)
            << "point " << i << " diverged from its single run";
        EXPECT_EQ(results[i].result.timing.dram.bytes,
                  single.timing.dram.bytes);
    }
}

TEST(SweepRun, CapturesPerPointErrorsWithoutSinkingTheSweep)
{
    DriverOptions good = tinyBase();
    DriverOptions bad = tinyBase();
    bad.dataset = "no_such_matrix";
    std::vector<SweepPointResult> results =
        runSweep({bad, good}, 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].ok);
    EXPECT_NE(results[0].error.find("no_such_matrix"),
              std::string::npos);
    EXPECT_TRUE(results[1].ok) << results[1].error;

    SweepSpec spec;
    spec.base = good;
    JsonValue report = sweepReportToJson(spec, results);
    EXPECT_EQ(report.at("sweep").at("failed").asNumber(), 1);
    EXPECT_EQ(report.at("results")[0].at("error").asString(),
              results[0].error);
    EXPECT_EQ(report.at("results")[1].at("app").asString(), "CSR");
}

TEST(SweepRun, ProgressReportsEveryPointOnce)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("app", {"spmv", "spmspm"});
    spec.set("tiles", {"2", "4"});
    std::vector<DriverOptions> points = expandSweep(spec);
    std::atomic<std::size_t> calls{0};
    std::size_t max_done = 0;
    runSweep(points, 4,
             [&](std::size_t done, std::size_t total,
                 const SweepPointResult &r) {
                 ++calls;
                 max_done = std::max(max_done, done);
                 EXPECT_EQ(total, points.size());
                 EXPECT_TRUE(r.ok) << r.error;
             });
    EXPECT_EQ(calls.load(), points.size());
    EXPECT_EQ(max_done, points.size());
}

TEST(SweepRun, CsvHasHeaderAndOneRowPerPoint)
{
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("app", {"spmv", "spmspm"});
    std::vector<SweepPointResult> results =
        runSweep(expandSweep(spec), 2);
    std::string csv = sweepReportToCsv(results);
    std::size_t lines = 0;
    for (char c : csv)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 1u + results.size());
    EXPECT_EQ(csv.rfind("app,dataset,scale", 0), 0u);
    EXPECT_NE(csv.find("CSR,"), std::string::npos);
    EXPECT_NE(csv.find("SpMSpM,"), std::string::npos);
}

TEST(SweepRun, CallerPoolMatchesALocalPool)
{
    // A persistent pool passed in (the engine's) and the pool runSweep
    // builds for itself must produce the same report.
    SweepSpec spec;
    spec.base = tinyBase();
    spec.set("app", {"spmv", "bfs", "spmspm"});
    spec.set("tiles", {"2", "4"});
    std::vector<DriverOptions> points = expandSweep(spec);
    common::WorkerPool pool(3);
    SweepExec exec;
    exec.jobs = 3;
    exec.pool = &pool;
    EXPECT_EQ(sweepReportToJson(spec, runSweep(points, exec)).dump(2),
              sweepReportToJson(spec, runSweep(points, 3)).dump(2));
}

// ---------------------------------------------------------------------------
// WorkerPool: the static partition and reuse the sweep executor uses.
// ---------------------------------------------------------------------------

TEST(WorkerPool, ChunkPartitionsExactlyAndInOrder)
{
    // chunk() is the single source of truth for which worker owns
    // which indices: static, contiguous, and balanced.
    for (int n : {1, 2, 3, 7, 16, 31, 64}) {
        for (int workers : {1, 2, 3, 4, 8}) {
            int covered = 0;
            int prev_end = 0;
            for (int w = 0; w < workers; ++w) {
                auto [begin, end] = common::WorkerPool::chunk(
                    n, workers, w);
                EXPECT_EQ(begin, prev_end)
                    << "gap/overlap at n=" << n << " w=" << w;
                EXPECT_LE(begin, end);
                // Balanced: chunk sizes differ by at most one.
                EXPECT_LE(end - begin, n / workers + (n % workers ? 1 : 0));
                covered += end - begin;
                prev_end = end;
            }
            EXPECT_EQ(covered, n);
            EXPECT_EQ(prev_end, n);
        }
    }
}

TEST(WorkerPool, RunVisitsEveryIndexExactlyOnce)
{
    common::WorkerPool pool(4);
    EXPECT_EQ(pool.workers(), 4);
    std::vector<int> hits(97, 0);
    std::vector<int> owner(97, -1);
    pool.run(97, [&](int begin, int end, int w) {
        for (int i = begin; i < end; ++i) {
            ++hits[static_cast<std::size_t>(i)];
            owner[static_cast<std::size_t>(i)] = w;
        }
    });
    for (int i = 0; i < 97; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1) << "index " << i;
        auto [begin, end] = common::WorkerPool::chunk(97, 4,
            owner[static_cast<std::size_t>(i)]);
        EXPECT_TRUE(begin <= i && i < end)
            << "index " << i << " ran outside its owner's chunk";
    }
}

TEST(WorkerPool, ReusableAcrossManyDispatches)
{
    // The engine keeps one pool alive across every job a daemon
    // serves, so the pool must survive many dispatches.
    common::WorkerPool pool(3);
    long total = 0;
    for (int round = 0; round < 2000; ++round) {
        std::array<long, 3> partial{};
        pool.run(11, [&](int begin, int end, int w) {
            long s = 0;
            for (int i = begin; i < end; ++i)
                s += i;
            partial[static_cast<std::size_t>(w)] = s;
        });
        // Reduce after run() returns, in worker index order.
        for (long p : partial)
            total += p;
    }
    EXPECT_EQ(total, 2000L * (11 * 10 / 2));
}

// ASan and TSan reserve terabytes of shadow address space, so the
// address-space cap the next test relies on cannot be set under them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define CAPSTAN_TEST_NO_AS_CAP 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define CAPSTAN_TEST_NO_AS_CAP 1
#endif
#endif

#if defined(__linux__) && !defined(CAPSTAN_TEST_NO_AS_CAP)
TEST(WorkerPool, FailedThreadStartThrowsInsteadOfHanging)
{
    // A helper that cannot start must surface as std::system_error,
    // with the helpers already started joined first. Unwinding past
    // running helpers hangs in the condition variable's destructor or
    // aborts on a joinable std::thread. The forked child leaves itself
    // 64 MB of address space, far too little for 4095 thread stacks,
    // and arms an alarm so a hang kills it instead of the suite.
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        alarm(30);
        long vm_pages = 0;
        std::FILE *statm = std::fopen("/proc/self/statm", "r");
        if (!statm || std::fscanf(statm, "%ld", &vm_pages) != 1)
            _exit(3);
        std::fclose(statm);
        const rlim_t cap =
            static_cast<rlim_t>(vm_pages) *
                static_cast<rlim_t>(sysconf(_SC_PAGESIZE)) +
            (rlim_t{64} << 20);
        rlimit limit{};
        if (getrlimit(RLIMIT_AS, &limit) != 0)
            _exit(3);
        limit.rlim_cur = std::min(cap, limit.rlim_max);
        if (setrlimit(RLIMIT_AS, &limit) != 0)
            _exit(3);
        try {
            common::WorkerPool pool(4096);
        } catch (const std::system_error &) {
            _exit(0);
        }
        _exit(2); // Every helper started: the cap did not bind.
    }
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status))
        << "child killed by signal " << WTERMSIG(status)
        << " (SIGALRM means the pool hung)";
    EXPECT_EQ(WEXITSTATUS(status), 0);
}
#endif

// ---------------------------------------------------------------------------
// Concurrent dataset cache (run under TSan in CI).
// ---------------------------------------------------------------------------

TEST(SweepCache, ConcurrentGenerationIsRaceFreeAndConsistent)
{
    // An unusual scale keys fresh cache entries, so every thread
    // races on first-time generation rather than hitting warm data.
    RunKnobs knobs;
    knobs.tiles = 2;
    knobs.iterations = 1;
    knobs.scale_mult = 0.017;
    sim::CapstanConfig cfg = sim::CapstanConfig::capstan();

    constexpr int kThreads = 8;
    std::vector<sim::Cycle> cycles(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t) {
        pool.emplace_back([&, t] {
            // Mix apps so the matrix cache, the transpose cache, and
            // the conv cache all see concurrent first access.
            const char *app = (t % 2 == 0) ? "CSR" : "M+M";
            if (t == kThreads - 1)
                app = "Conv";
            const char *dataset = (t == kThreads - 1)
                                      ? "ResNet-50 #1"
                                      : "ckt11752_dc_1";
            cycles[static_cast<std::size_t>(t)] =
                runApp(app, dataset, cfg, knobs).cycles;
        });
    }
    for (auto &t : pool)
        t.join();

    // Same app + dataset + config => identical deterministic cycle
    // counts, generated exactly once.
    for (int t = 2; t < kThreads - 1; t += 2)
        EXPECT_EQ(cycles[static_cast<std::size_t>(t)], cycles[0]);
    for (int t = 3; t < kThreads - 1; t += 2)
        EXPECT_EQ(cycles[static_cast<std::size_t>(t)], cycles[1]);
    for (int t = 0; t < kThreads; ++t)
        EXPECT_GT(cycles[static_cast<std::size_t>(t)], 0u);
}

} // namespace
