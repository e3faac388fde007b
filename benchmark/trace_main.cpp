/**
 * @file
 * `capstan-bench-trace` — the benchmark's traced pass.
 *
 * Reads one workload's job list (newline-delimited engine wire
 * documents, the same lines `capstan-serve` accepts) and times calls
 * into each layer's public functions with a host steady clock:
 *
 *  1. engine   every job through engine::Engine::execute, first cold
 *              at 4 sweep workers (what a user runs), then again warm
 *              at 1 worker (the serial work behind it);
 *  2. driver   driver::runDriver once per distinct simulated point on
 *              the warm dataset cache, plus the cache counters;
 *  3. lang/sim exact simulated counts summed from those points' stats,
 *              and fixed-iteration loops over the unit models;
 *  4. workloads/sparse  dataset materialization, tiling, and the two
 *              matrix backings for every distinct dataset the points
 *              use;
 *  5. common   JSON dump/parse of the job result documents.
 *
 * Spans live in memory and are written once, as one JSON document
 * (--out): `metrics` (the per-layer names in BENCHMARK.json),
 * `breakdown` (per job, per app, real-file ingestion and report
 * rendering detail), `run_stats` (the exact compact stats bytes of
 * every run job, which the benchmark compares with the CLI's), and
 * `failures`. The program under test is not modified: every span is
 * taken here, around its public calls.
 *
 * Usage:
 *   capstan-bench-trace --jobs-file JOBS.ndjson --out TRACE.json
 *                       --reference data/paper_reference.json
 *                       --scratch DIR
 */

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"
#include "driver/runner.hpp"
#include "engine/engine.hpp"
#include "report/render.hpp"
#include "sim/allocator.hpp"
#include "sim/compression.hpp"
#include "sim/scanner.hpp"
#include "sim/shuffle.hpp"
#include "sim/spmu.hpp"
#include "sparse/bitvector.hpp"
#include "sparse/compressed.hpp"
#include "workloads/datasets.hpp"
#include "workloads/io.hpp"
#include "workloads/tiling.hpp"

namespace {

using namespace capstan;
using common::JsonValue;
using Clock = std::chrono::steady_clock;

/** Sweep workers of the cold pass: the benchmark host's core budget. */
constexpr int kParallelJobs = 4;

template <typename F>
double
timed(F &&f)
{
    auto t0 = Clock::now();
    f();
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Metric-name-safe form of an app or study name ("M+M" -> "M_M"). */
std::string
safeName(const std::string &s)
{
    std::string out = s;
    for (char &c : out)
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' &&
            c != '-' && c != '.')
            c = '_';
    return out;
}

struct Args
{
    std::string jobs_file;
    std::string out;
    std::string reference;
    std::string scratch;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            throw std::invalid_argument("missing value for " + flag);
        std::string value = argv[++i];
        if (flag == "--jobs-file")
            a.jobs_file = value;
        else if (flag == "--out")
            a.out = value;
        else if (flag == "--reference")
            a.reference = value;
        else if (flag == "--scratch")
            a.scratch = value;
        else
            throw std::invalid_argument("unknown flag " + flag);
    }
    if (a.jobs_file.empty() || a.out.empty() || a.scratch.empty())
        throw std::invalid_argument(
            "usage: capstan-bench-trace --jobs-file F --out F "
            "--scratch DIR [--reference F]");
    return a;
}

struct Job
{
    engine::JobRequest request;
    std::string label; //!< App (run), "sweep", or study name.
};

std::vector<Job>
readJobs(const std::string &path, const engine::EngineConfig &defaults)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::vector<Job> jobs;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        Job job;
        job.request =
            engine::JobRequest::fromJson(JsonValue::parse(line), defaults);
        switch (job.request.kind) {
        case engine::JobRequest::Kind::Run:
            job.label = job.request.options.app;
            break;
        case engine::JobRequest::Kind::Sweep: job.label = "sweep"; break;
        case engine::JobRequest::Kind::Study:
            job.label = job.request.study;
            break;
        }
        jobs.push_back(std::move(job));
    }
    if (jobs.empty())
        throw std::runtime_error("no jobs in " + path);
    return jobs;
}

/** A distinct simulated point seen while executing the jobs. */
struct Point
{
    driver::DriverOptions options;
    driver::RunResult result;
};

/** Wire form of a point's options: the distinct-point key. */
std::string
pointKey(const driver::DriverOptions &o)
{
    engine::JobRequest r;
    r.kind = engine::JobRequest::Kind::Run;
    r.options = o;
    return r.toJson().dump();
}

/** A distinct dataset the points use, with every tile count seen. */
struct DatasetUse
{
    std::string name;
    double scale = 1.0;
    bool conv = false;
    std::string source; //!< Real file path; empty when synthetic.
    std::set<int> tiles;
};

/** Everything one traced pass measures. */
struct Trace
{
    std::map<std::string, double> metrics;
    JsonValue breakdown = JsonValue::object();
    JsonValue run_stats = JsonValue::array();
    std::vector<std::string> failures;
    std::size_t attempted = 0;
};

/** Column-index checksum of a full row walk through one view. */
std::uint64_t
walkRows(const sparse::MatrixView &v)
{
    std::uint64_t sum = 0;
    for (Index r = 0; r < v.rows(); ++r)
        for (Index c : v.indices(r))
            sum += static_cast<std::uint64_t>(c) + 1;
    return sum;
}

/**
 * Engine pass: execute every job once. Collects the simulated points
 * (through the progress hook) and each job's result document.
 */
std::vector<double>
enginePass(engine::Engine &eng, const std::vector<Job> &jobs,
           Trace &trace, std::map<std::string, Point> *points,
           std::vector<JsonValue> *documents,
           std::vector<report::StudyRun> *study_runs)
{
    std::mutex points_mutex;
    engine::ExecHooks hooks;
    if (points)
        hooks.progress = [&](std::size_t, std::size_t,
                             const driver::SweepPointResult &p) {
            if (!p.ok)
                return;
            std::lock_guard<std::mutex> lock(points_mutex);
            points->emplace(pointKey(p.options),
                            Point{p.options, p.result});
        };
    std::vector<double> times;
    for (const Job &job : jobs) {
        engine::JobResult res;
        times.push_back(
            timed([&] { res = eng.execute(job.request, hooks); }));
        ++trace.attempted;
        if (!res.ok)
            trace.failures.push_back("job " + job.label + ": " +
                                     res.error);
        if (documents)
            documents->push_back(res.document);
        if (study_runs && res.study_run)
            study_runs->push_back(*res.study_run);
    }
    return times;
}

/** Driver pass: runDriver once per distinct point on a warm cache. */
void
driverPass(const std::map<std::string, Point> &points, Trace &trace)
{
    double run_s = 0, longest = 0;
    double cycles = 0, tokens = 0;
    std::map<std::string, double> counts;
    std::map<std::string, std::pair<double, double>> per_app;
    for (const auto &[key, point] : points) {
        driver::RunResult r;
        double t = timed([&] { r = driver::runDriver(point.options); });
        ++trace.attempted;
        run_s += t;
        longest = std::max(longest, t);
        JsonValue stats = driver::statsToJson(r);
        if (stats.dump() != driver::statsToJson(point.result).dump())
            trace.failures.push_back("point " + key +
                                     ": warm rerun changed the stats");
        double c = stats.at("timing").at("cycles").asNumber();
        cycles += c;
        tokens += stats.at("lanes").at("tokens").asNumber();
        for (const char *unit : {"spmu", "dram"})
            for (const auto &[name, value] : stats.at(unit).members())
                if (value.isNumber())
                    counts[std::string(unit) + "." + name] +=
                        value.asNumber();
        auto &app = per_app[safeName(point.options.app)];
        app.first += t;
        app.second += c;
    }
    auto &m = trace.metrics;
    m["driver.points"] = static_cast<double>(points.size());
    m["driver.run_s"] = run_s;
    m["driver.longest_point_s"] = longest;
    m["lang.sim_cycles"] = cycles;
    m["lang.tokens"] = tokens;
    m["lang.host_ns_per_cycle"] = cycles > 0 ? run_s * 1e9 / cycles : 0;
    m["lang.host_ns_per_token"] = tokens > 0 ? run_s * 1e9 / tokens : 0;
    m["sim.spmu.vectors_in"] = counts["spmu.vectors_in"];
    m["sim.spmu.grants"] = counts["spmu.grants"];
    m["sim.spmu.enqueue_stalls"] = counts["spmu.enqueue_stalls"];
    m["sim.dram.bytes"] = counts["dram.bytes"];
    m["sim.dram.bursts"] = counts["dram.bursts"];

    JsonValue apps = JsonValue::object();
    for (const auto &[app, tc] : per_app) {
        JsonValue a = JsonValue::object();
        a.set("run_s", tc.first);
        a.set("sim_cycles", tc.second);
        a.set("host_ns_per_cycle",
              tc.second > 0 ? tc.first * 1e9 / tc.second : 0.0);
        apps.set(app, std::move(a));
    }
    trace.breakdown.set("apps", std::move(apps));
}

/**
 * Real-file ingestion detail: the text parse, the content hash, a
 * cold load that writes a fresh `.cbin`, and the strict `.cbin` read.
 * Returns the cold load time.
 */
double
ingestProbe(const std::string &source, const std::string &scratch,
            int index, JsonValue &io)
{
    namespace fs = std::filesystem;
    fs::path copy = fs::path(scratch) /
                    ("cold_" + std::to_string(index) + ".mtx");
    fs::copy_file(source, copy, fs::copy_options::overwrite_existing);
    fs::remove(workloads::matrixCachePath(copy.string()));

    double cold = timed([&] {
        workloads::loadRealStore(copy.string(),
                                 workloads::CacheMode::Force);
    });
    double hash = timed([&] { workloads::hashFileContents(source); });
    double parse = timed([&] {
        std::ifstream in(source, std::ios::binary);
        workloads::readMatrixMarket(in, source);
    });
    double cbin = timed([&] {
        workloads::readCompressedCache(
            workloads::matrixCachePath(copy.string()));
    });
    double mb = static_cast<double>(fs::file_size(source)) / 1e6;

    JsonValue d = JsonValue::object();
    d.set("file_mb", mb);
    d.set("load_cold_s", cold);
    d.set("parse_s", parse);
    d.set("parse_mb_per_s", parse > 0 ? mb / parse : 0.0);
    d.set("hash_s", hash);
    d.set("cbin_read_s", cbin);
    io.set(source, std::move(d));

    fs::remove(workloads::matrixCachePath(copy.string()));
    fs::remove(copy);
    return cold;
}

/** Workloads + sparse probes over every distinct dataset. */
void
datasetProbes(const std::map<std::string, Point> &points,
              const std::string &scratch, Trace &trace)
{
    std::map<std::pair<std::string, long>, DatasetUse> uses;
    for (const auto &[key, p] : points) {
        const driver::RunResult &r = p.result;
        DatasetUse &u =
            uses[{r.dataset, std::lround(r.scale * 1000)}];
        u.name = r.dataset;
        u.scale = r.scale;
        u.conv = r.app == "Conv";
        u.source = r.info.source;
        u.tiles.insert(r.tiles);
    }

    double load = 0, load_max = 0, load_cold = 0, tiling = 0;
    double encode = 0, decode = 0, scan_csr = 0, scan_comp = 0;
    double csr_bytes = 0, encoded_bytes = 0;
    JsonValue io = JsonValue::object();
    int index = 0;
    for (const auto &[key, u] : uses) {
        if (u.conv) {
            double t = timed(
                [&] { workloads::loadConvDataset(u.name, u.scale); });
            load += t;
            load_max = std::max(load_max, t);
            load_cold += timed(
                [&] { workloads::loadConvDataset(u.name, u.scale); });
            continue;
        }
        workloads::MatrixDataset d;
        double t = timed([&] {
            d = workloads::resolveMatrixDataset(u.name, u.scale);
        });
        load += t;
        load_max = std::max(load_max, t);
        if (u.source.empty())
            load_cold += timed([&] {
                workloads::resolveMatrixDataset(u.name, u.scale);
            });
        else
            load_cold += ingestProbe(u.source, scratch, index++, io);

        for (int tiles : u.tiles)
            tiling += timed([&] {
                workloads::Tiling::byWeight(d.matrix, tiles);
                workloads::Tiling::roundRobin(d.matrix.rows(), tiles);
            });

        const sparse::CsrMatrix &csr = d.matrix.csr();
        sparse::CompressedCsrMatrix comp;
        encode += timed(
            [&] { comp = sparse::CompressedCsrMatrix::fromCsr(csr); });
        sparse::CsrMatrix back;
        decode += timed([&] { back = comp.toCsr(); });
        std::uint64_t sum_csr = 0, sum_comp = 0;
        scan_csr += timed([&] { sum_csr = walkRows(csr); });
        scan_comp += timed([&] { sum_comp = walkRows(comp); });
        if (sum_csr != sum_comp || back.nnz() != csr.nnz())
            trace.failures.push_back("dataset " + u.name +
                                     ": backings disagree");
        csr_bytes += static_cast<double>(d.matrix.csrBytes());
        encoded_bytes += static_cast<double>(comp.encodedBytes());
    }
    auto &m = trace.metrics;
    m["workloads.datasets"] = static_cast<double>(uses.size());
    m["workloads.load_s"] = load;
    m["workloads.load_max_s"] = load_max;
    m["workloads.load_cold_s"] = load_cold;
    m["workloads.tiling_s"] = tiling;
    m["sparse.encode_s"] = encode;
    m["sparse.decode_s"] = decode;
    m["sparse.scan_csr_s"] = scan_csr;
    m["sparse.scan_compressed_s"] = scan_comp;
    m["sparse.csr_bytes"] = csr_bytes;
    m["sparse.encoded_bytes"] = encoded_bytes;
    trace.breakdown.set("io", std::move(io));
}

/**
 * Fixed-iteration loops over the simulator's unit models. The
 * checksum keeps every result observable so no loop is elided.
 */
void
unitProbes(Trace &trace)
{
    std::uint64_t checksum = 0;
    auto &m = trace.metrics;

    {
        sim::SeparableAllocator alloc(16, 16, 3);
        std::mt19937 rng(1);
        std::vector<sim::RequestMatrix> mats(3);
        for (auto &mat : mats)
            for (int l = 0; l < 16; ++l)
                mat[l] = rng() & 0xFFFF;
        constexpr int kCalls = 200000;
        double s = timed([&] {
            for (int i = 0; i < kCalls; ++i)
                checksum += alloc.allocate(mats).grant_count;
        });
        m["sim.allocator.ns_per_call"] = s * 1e9 / kCalls;
    }
    {
        sim::SpmuConfig cfg;
        sim::SparseMemoryUnit spmu(cfg);
        std::mt19937 rng(2);
        constexpr int kSteps = 100000;
        double s = timed([&] {
            for (int i = 0; i < kSteps; ++i) {
                sim::AccessVector av;
                av.id = static_cast<std::uint64_t>(i);
                for (int l = 0; l < 16; ++l) {
                    av.lane[l].valid = true;
                    av.lane[l].addr = rng();
                }
                spmu.tryEnqueue(av);
                spmu.step();
                while (spmu.tryDequeue())
                    ++checksum;
            }
        });
        m["sim.spmu.ns_per_step"] = s * 1e9 / kSteps;
    }
    {
        sim::ScannerConfig cfg;
        cfg.window_bits = 512;
        sim::ScannerModel model(cfg);
        constexpr Index kBits = 1 << 16;
        sparse::BitVector a(kBits), b(kBits);
        std::mt19937 rng(3);
        for (Index i = 0; i < kBits; i += 1 + rng() % 64) {
            a.set(i);
            if (rng() % 2)
                b.set(i);
        }
        constexpr int kScans = 300;
        double s = timed([&] {
            for (int i = 0; i < kScans; ++i)
                checksum += model.scanBitVectors(a, b,
                                                 sim::ScanMode::Union)
                                .cycles;
        });
        m["sim.scanner.ns_per_kbit"] =
            s * 1e9 / (kScans * (kBits / 1024.0));
    }
    {
        sim::ShuffleConfig cfg;
        cfg.ports = 16;
        sim::ShuffleNetwork net(cfg);
        std::mt19937 rng(4);
        constexpr int kSteps = 50000;
        double s = timed([&] {
            for (int i = 0; i < kSteps; ++i) {
                sim::ShuffleVector v;
                v.src_port = i % 16;
                v.id = static_cast<std::uint64_t>(i);
                for (int l = 0; l < 16; ++l) {
                    v.valid[l] = true;
                    v.dst_port[l] = static_cast<int>(rng() % 16);
                    v.src_lane[l] = l;
                }
                net.tryInject(v.src_port, v);
                net.step();
                for (int p = 0; p < 16; ++p)
                    while (net.tryEject(p))
                        ++checksum;
            }
        });
        m["sim.shuffle.ns_per_step"] = s * 1e9 / kSteps;
    }
    {
        std::vector<std::uint32_t> words(1 << 14);
        std::mt19937 rng(5);
        for (auto &w : words)
            w = 100000 + rng() % 256;
        constexpr int kStreams = 300;
        double s = timed([&] {
            for (int i = 0; i < kStreams; ++i)
                checksum += sim::compressStream(words).compressed_bytes;
        });
        double kb = kStreams * (words.size() * 4 / 1024.0);
        m["sim.compression.ns_per_kb"] = s * 1e9 / kb;
    }
    trace.breakdown.set("unit_checksum", static_cast<double>(checksum));
}

/** JSON dump + parse of the job documents, repeated to >= 50 ms. */
void
jsonProbe(const std::vector<JsonValue> &docs, Trace &trace)
{
    double dump = 0, parse = 0;
    int reps = 0;
    std::size_t bytes = 0;
    while (reps < 3 || (dump + parse < 0.05 && reps < 10000)) {
        std::vector<std::string> texts;
        dump += timed([&] {
            for (const JsonValue &d : docs)
                texts.push_back(d.dump());
        });
        parse += timed([&] {
            for (const std::string &t : texts)
                bytes += JsonValue::parse(t).size();
        });
        ++reps;
    }
    trace.metrics["common.json.dump_s"] = dump / reps;
    trace.metrics["common.json.parse_s"] = parse / reps;
}

/** Report rendering detail, when the job list ran studies. */
void
renderProbe(engine::Engine &eng, const std::vector<Job> &jobs,
            const std::vector<report::StudyRun> &runs, Trace &trace)
{
    const engine::JobRequest *study = nullptr;
    for (const Job &job : jobs)
        if (job.request.kind == engine::JobRequest::Kind::Study) {
            study = &job.request;
            break;
        }
    if (!study || runs.empty())
        return;
    report::ReportMeta meta;
    meta.preset = study->preset;
    meta.knobs = eng.studyKnobs(*study);
    meta.checked = study->check;
    std::size_t bytes = 0;
    double s = timed([&] {
        bytes += report::renderMarkdown(runs, meta).size();
        bytes += report::renderCsv(runs, eng.reference()).size();
        bytes += report::reportToJson(runs, meta).dump().size();
    });
    JsonValue r = JsonValue::object();
    r.set("render_s", s);
    r.set("render_bytes", static_cast<std::uint64_t>(bytes));
    trace.breakdown.set("report", std::move(r));
}

Trace
runTrace(const Args &args)
{
    Trace trace;
    engine::EngineConfig cfg;
    cfg.reference = args.reference;
    std::vector<Job> jobs = readJobs(args.jobs_file, cfg);

    std::map<std::string, Point> points;
    std::vector<JsonValue> documents;
    std::vector<report::StudyRun> study_runs;

    // Cold pass at the host's parallelism: the process-wide dataset
    // cache starts empty, as in a fresh CLI process.
    cfg.jobs = kParallelJobs;
    engine::Engine parallel(cfg);
    driver::DatasetCacheStats before = driver::datasetCacheStats();
    std::vector<double> cold = enginePass(parallel, jobs, trace, &points,
                                          &documents, &study_runs);
    driver::DatasetCacheStats after = driver::datasetCacheStats();

    // Warm serial pass: the same jobs on one worker.
    cfg.jobs = 1;
    engine::Engine serial(cfg);
    std::vector<double> warm =
        enginePass(serial, jobs, trace, nullptr, nullptr, nullptr);

    driverPass(points, trace);
    datasetProbes(points, args.scratch, trace);
    unitProbes(trace);
    jsonProbe(documents, trace);
    renderProbe(parallel, jobs, study_runs, trace);

    double cold_s = 0, serial_s = 0;
    for (double t : cold)
        cold_s += t;
    for (double t : warm)
        serial_s += t;
    auto &m = trace.metrics;
    m["engine.jobs"] = static_cast<double>(jobs.size());
    m["engine.cold_s"] = cold_s;
    m["engine.serial_s"] = serial_s;
    m["engine.execute_p50_s"] = median(cold);
    m["driver.cache_hits"] =
        static_cast<double>(after.hits - before.hits);
    m["driver.cache_misses"] =
        static_cast<double>(after.misses - before.misses);
    m["driver.busy_frac"] =
        cold_s > 0 ? m["driver.run_s"] / (kParallelJobs * cold_s) : 0;

    JsonValue per_job = JsonValue::array();
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        JsonValue j = JsonValue::object();
        j.set("label", jobs[i].label);
        j.set("cold_s", cold[i]);
        j.set("serial_s", warm[i]);
        per_job.push(std::move(j));
        if (jobs[i].request.kind == engine::JobRequest::Kind::Run)
            trace.run_stats.push(documents[i].dump());
    }
    trace.breakdown.set("jobs", std::move(per_job));
    return trace;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Args args = parseArgs(argc, argv);
        Trace trace = runTrace(args);

        JsonValue metrics = JsonValue::object();
        for (const auto &[name, value] : trace.metrics)
            metrics.set(name, value);
        JsonValue failures = JsonValue::array();
        for (const std::string &f : trace.failures)
            failures.push(f);
        JsonValue doc = JsonValue::object();
        doc.set("attempted", static_cast<std::uint64_t>(trace.attempted));
        doc.set("failures", std::move(failures));
        doc.set("metrics", std::move(metrics));
        doc.set("breakdown", std::move(trace.breakdown));
        doc.set("run_stats", std::move(trace.run_stats));

        std::ofstream out(args.out);
        out << doc.dump(1) << "\n";
        if (!out)
            throw std::runtime_error("cannot write " + args.out);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "capstan-bench-trace: %s\n", e.what());
        return 1;
    }
    return 0;
}
