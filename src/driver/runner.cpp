#include "driver/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "apps/bicgstab.hpp"
#include "apps/conv.hpp"
#include "apps/graph.hpp"
#include "apps/matadd.hpp"
#include "apps/pagerank.hpp"
#include "apps/spmspm.hpp"
#include "apps/spmv.hpp"
#include "workloads/datasets.hpp"

namespace capstan::driver {

using namespace capstan::apps;
using namespace capstan::workloads;

double
defaultScale(const std::string &dataset)
{
    // Bench-friendly sizes; EXPERIMENTS.md records these. --scale 1
    // multiplies back toward the published sizes.
    if (dataset == "ckt11752_dc_1")
        return 0.25;
    if (dataset == "Trefethen_20000")
        return 0.25;
    if (dataset == "bcsstk30")
        return 0.08;
    if (dataset == "usroads-48")
        return 0.08;
    if (dataset == "web-Stanford")
        return 0.05;
    if (dataset == "flickr")
        return 0.02;
    if (dataset == "p2p-Gnutella31")
        return 0.35;
    if (dataset.starts_with("ResNet"))
        return 0.12;
    return 1.0; // SpMSpM datasets are tiny already.
}

namespace {

/**
 * Cache observability counters, shared by every GenerateOnceCache
 * instance (driver::datasetCacheStats). Atomics are synchronization-
 * free tallies only; they never influence results.
 */
std::atomic<std::uint64_t> g_cache_hits{0};
std::atomic<std::uint64_t> g_cache_misses{0};

struct DatasetKey
{
    std::string name; //!< Dataset name, prefixed by the dataset dir.
    long scale_milli;
    bool operator<(const DatasetKey &o) const
    {
        return std::tie(name, scale_milli) <
               std::tie(o.name, o.scale_milli);
    }
};

/**
 * Cache key spanning name, generation scale, and dataset dir. Names
 * that resolve to a real file collapse the scale component: scale only
 * applies to synthetic generation, so without this a scale sweep over
 * a real dataset would re-load and hold one identical multi-hundred-MB
 * matrix per scale value.
 */
DatasetKey
datasetKey(const std::string &name, double scale,
           const std::string &dataset_dir)
{
    if (realDatasetPath(name, dataset_dir))
        scale = 1.0;
    return {dataset_dir + '\x1f' + name, std::lround(scale * 1000)};
}

/**
 * Generate-once cache shared by concurrent sweep workers. A short
 * global lock maps the key to a per-entry slot; generation runs under
 * the entry's own once-flag, so two threads asking for the same
 * (name, scale) block on one generation while different datasets
 * generate in parallel. Entries are heap-allocated and never evicted,
 * so returned references stay valid for the process lifetime (the
 * contract the single-threaded cache always had). A generator that
 * throws (unknown dataset name) leaves the once-flag unset, so the
 * error is reported to every caller rather than cached.
 */
template <typename T> class GenerateOnceCache
{
  public:
    template <typename Generator>
    const T &get(const DatasetKey &key, Generator &&generate)
    {
        std::shared_ptr<Entry> entry;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            std::shared_ptr<Entry> &slot = entries_[key];
            if (!slot)
                slot = std::make_shared<Entry>();
            entry = slot;
        }
        bool generated = false;
        std::call_once(entry->once, [&] {
            entry->value = std::make_unique<T>(generate());
            generated = true;
        });
        (generated ? g_cache_misses : g_cache_hits)
            .fetch_add(1, std::memory_order_relaxed);
        return *entry->value;
    }

  private:
    struct Entry
    {
        std::once_flag once;
        std::unique_ptr<T> value;
    };

    std::mutex mutex_;
    std::map<DatasetKey, std::shared_ptr<Entry>> entries_;
};

const MatrixDataset &
cachedMatrix(const std::string &name, double scale,
             const std::string &dataset_dir)
{
    static GenerateOnceCache<MatrixDataset> cache;
    return cache.get(datasetKey(name, scale, dataset_dir), [&] {
        return resolveMatrixDataset(name, scale, dataset_dir);
    });
}

const ConvDataset &
cachedConv(const std::string &name, double scale)
{
    static GenerateOnceCache<ConvDataset> cache;
    DatasetKey key{name, std::lround(scale * 1000)};
    return cache.get(key, [&] { return loadConvDataset(name, scale); });
}

} // namespace

DatasetCacheStats
datasetCacheStats()
{
    return {g_cache_hits.load(std::memory_order_relaxed),
            g_cache_misses.load(std::memory_order_relaxed)};
}

namespace {

sparse::DenseVector
denseInput(Index n)
{
    sparse::DenseVector v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = 0.25f + 0.5f * ((i * 2654435761u) % 1024) / 1024.0f;
    return v;
}

} // namespace

double
effectiveScale(const std::string &dataset, const RunKnobs &knobs)
{
    return defaultScale(dataset) * knobs.scale_mult;
}

Workload
workload(const std::string &app, const std::string &dataset,
         const RunKnobs &knobs)
{
    double scale = effectiveScale(dataset, knobs);
    Workload w;
    if (app == "Conv")
        w.layer = &cachedConv(dataset, scale).layer;
    else
        w.matrix = &cachedMatrix(dataset, scale, knobs.dataset_dir);
    return w;
}

AppTiming
runApp(const std::string &app, const std::string &dataset,
       const CapstanConfig &cfg, const RunKnobs &knobs)
{
    Workload w = workload(app, dataset, knobs);
    if (w.layer)
        return runConv(*w.layer, cfg, knobs.tiles).timing;
    const sparse::MatrixStore &m = w.matrix->matrix;
    // Graph traversals, M+M (A + A^T), SpMSpM (A x A), and BiCGStab
    // index one dimension with the other's indices, so a rectangular
    // matrix would read/write out of bounds. Every synthetic
    // generator is square; only real dataset files can get here.
    if (app != "CSR" && app != "COO" && app != "CSC" &&
        m.rows() != m.cols()) {
        throw workloads::DatasetError(
            "app " + app + " requires a square matrix; dataset '" +
            dataset + "' is " + std::to_string(m.rows()) + "x" +
            std::to_string(m.cols()));
    }
    if (app == "CSR")
        return runSpmvCsr(m, denseInput(m.cols()), cfg, knobs.tiles).timing;
    if (app == "COO")
        return runSpmvCoo(m, denseInput(m.cols()), cfg, knobs.tiles).timing;
    if (app == "CSC") {
        // The paper uses a 30%-dense input vector for CSC SpMV.
        auto v = sparseVector(m.cols(), 0.30, 0xCEC);
        return runSpmvCsc(m, v, cfg, knobs.tiles).timing;
    }
    if (app == "PR-Pull")
        return runPageRankPull(m, knobs.iterations, cfg, knobs.tiles).timing;
    if (app == "PR-Edge")
        return runPageRankEdge(m, knobs.iterations, cfg, knobs.tiles).timing;
    if (app == "BFS")
        return runBfs(m, 0, cfg, knobs.tiles, knobs.write_pointers).timing;
    if (app == "SSSP")
        return runSssp(m, 0, cfg, knobs.tiles, knobs.write_pointers).timing;
    if (app == "M+M") {
        // Add the dataset to its transpose: same dimensions and
        // density, different (but correlated) occupancy.
        static GenerateOnceCache<sparse::MatrixStore> tcache;
        const sparse::MatrixStore &mt = tcache.get(
            datasetKey(dataset, effectiveScale(dataset, knobs),
                       knobs.dataset_dir),
            [&] { return sparse::MatrixStore(m.transpose()); });
        return runMatAdd(m, mt, cfg, knobs.tiles).timing;
    }
    if (app == "SpMSpM")
        return runSpmspm(m, m, cfg, knobs.tiles).timing;
    if (app == "BiCGStab")
        return runBicgstab(m, denseInput(m.rows()), knobs.iterations,
                           cfg, knobs.tiles).timing;
    throw std::invalid_argument("unknown app: " + app);
}

RunResult
runDriver(const DriverOptions &opts)
{
    auto canonical = canonicalApp(opts.app);
    if (!canonical)
        throw std::invalid_argument("unknown app: " + opts.app);

    RunResult r;
    r.app = *canonical;
    r.dataset = opts.dataset.empty() ? defaultDataset(*canonical)
                                     : opts.dataset;
    r.config_name = configPointName(opts.config);
    r.tiles = opts.tiles;
    r.iterations = opts.iterations;
    r.config = buildConfig(opts);

    RunKnobs knobs;
    knobs.tiles = opts.tiles;
    knobs.iterations = opts.iterations;
    knobs.scale_mult = opts.scale;
    knobs.dataset_dir = opts.dataset_dir;
    r.scale = effectiveScale(r.dataset, knobs);
    r.timing = runApp(r.app, r.dataset, r.config, knobs);

    Workload w = workload(r.app, r.dataset, knobs);
    if (w.layer) {
        r.info.rows = w.layer->dim;
        r.info.cols = w.layer->dim;
        r.info.nnz = -1;
    } else {
        const MatrixDataset &d = *w.matrix;
        r.info.rows = d.matrix.rows();
        r.info.cols = d.matrix.cols();
        r.info.nnz = d.matrix.nnz();
        r.info.source = d.source;
        r.info.csr_bytes = d.matrix.csrBytes();
        r.info.encoded_bytes = d.matrix.encodedBytes();
    }
    return r;
}

SimulationKey
simulationKey(const DriverOptions &opts)
{
    SimulationKey key;
    key.app = canonicalApp(opts.app).value_or(opts.app);
    key.dataset =
        opts.dataset.empty() ? defaultDataset(key.app) : opts.dataset;
    key.dataset_dir = opts.dataset_dir;
    key.scale = opts.scale;
    key.tiles = opts.tiles;
    key.iterations = opts.iterations;
    key.config = buildConfig(opts);
    return key;
}

JsonValue
statsToJson(const RunResult &r)
{
    const lang::RunTotals &t = r.timing.totals;
    const sim::DramStats &d = r.timing.dram;
    const sim::SpmuStats &s = r.timing.spmu;

    JsonValue doc = JsonValue::object();
    doc.set("app", r.app);

    JsonValue dataset = JsonValue::object();
    dataset.set("name", r.dataset);
    dataset.set("scale", r.scale);
    dataset.set("rows", static_cast<std::int64_t>(r.info.rows));
    dataset.set("cols", static_cast<std::int64_t>(r.info.cols));
    dataset.set("nnz", static_cast<std::int64_t>(r.info.nnz));
    // Only real datasets carry a source path; the synthetic schema is
    // unchanged so pre-ingestion stats stay byte-identical.
    if (!r.info.source.empty())
        dataset.set("source", r.info.source);
    // Matrix datasets carry both storage footprints (conv layers have
    // neither): measured properties of the matrix itself.
    if (r.info.nnz >= 0) {
        dataset.set("csr_bytes",
                    static_cast<std::uint64_t>(r.info.csr_bytes));
        dataset.set("encoded_bytes",
                    static_cast<std::uint64_t>(r.info.encoded_bytes));
        dataset.set("compression_ratio",
                    r.info.encoded_bytes > 0
                        ? static_cast<double>(r.info.csr_bytes) /
                              static_cast<double>(r.info.encoded_bytes)
                        : 0.0);
    }
    doc.set("dataset", std::move(dataset));

    JsonValue cfg = JsonValue::object();
    cfg.set("name", r.config_name);
    cfg.set("memtech", sim::memTechName(r.config.dram.tech));
    cfg.set("tiles", r.tiles);
    cfg.set("iterations", r.iterations);
    cfg.set("clock_ghz", r.config.clock_ghz);
    cfg.set("ordering", sim::orderingName(r.config.spmu.ordering));
    cfg.set("merge", sim::mergeModeName(r.config.shuffle.mode));
    cfg.set("hash", sim::bankHashName(r.config.spmu.hash));
    cfg.set("allocator",
            sim::allocatorKindName(r.config.spmu.allocator));
    cfg.set("queue_depth", r.config.spmu.queue_depth);
    cfg.set("banks", r.config.spmu.banks);
    cfg.set("bandwidth_gbps",
            r.config.dram.bandwidth_override_gbps > 0
                ? r.config.dram.bandwidth_override_gbps
                : sim::memTechBandwidth(r.config.dram.tech));
    cfg.set("compression", r.config.dram.compression);
    cfg.set("spmu_ideal", r.config.spmu.ideal);
    cfg.set("scan_bits", r.config.scanner.window_bits);
    cfg.set("scan_outputs", r.config.scanner.outputs);
    cfg.set("scan_data_elems", r.config.scanner.data_elements);
    doc.set("config", std::move(cfg));

    JsonValue timing = JsonValue::object();
    timing.set("cycles", static_cast<std::uint64_t>(r.timing.cycles));
    timing.set("runtime_ms", r.timing.runtime_ms);
    doc.set("timing", std::move(timing));

    double counted = t.active_lane_cycles + t.vector_idle_lane_cycles;
    JsonValue lanes = JsonValue::object();
    lanes.set("active_lane_cycles", t.active_lane_cycles);
    lanes.set("vector_idle_lane_cycles", t.vector_idle_lane_cycles);
    lanes.set("scan_empty_cycles", t.scan_empty_cycles);
    lanes.set("imbalance_lane_cycles", t.imbalance_lane_cycles);
    lanes.set("tokens", t.tokens);
    lanes.set("occupancy",
              counted > 0 ? t.active_lane_cycles / counted : 0.0);
    doc.set("lanes", std::move(lanes));

    JsonValue dram = JsonValue::object();
    dram.set("bursts", d.bursts);
    dram.set("reads", d.reads);
    dram.set("writes", d.writes);
    dram.set("row_hits", d.row_hits);
    dram.set("row_misses", d.row_misses);
    dram.set("bytes", d.bytes);
    dram.set("row_hit_rate", d.rowHitRate());
    doc.set("dram", std::move(dram));

    JsonValue spmu = JsonValue::object();
    spmu.set("busy_cycles", static_cast<std::uint64_t>(s.cycles));
    spmu.set("grants", s.grants);
    spmu.set("vectors_in", s.vectors_in);
    spmu.set("vectors_out", s.vectors_out);
    spmu.set("enqueue_stalls", s.enqueue_stalls);
    spmu.set("elided_reads", s.elided_reads);
    spmu.set("splits", s.splits);
    spmu.set("bank_utilization",
             s.bankUtilization(r.config.spmu.banks));
    doc.set("spmu", std::move(spmu));

    return doc;
}

std::string
statsToText(const RunResult &r)
{
    const lang::RunTotals &t = r.timing.totals;
    const sim::DramStats &d = r.timing.dram;
    const sim::SpmuStats &s = r.timing.spmu;
    double counted = t.active_lane_cycles + t.vector_idle_lane_cycles;

    std::ostringstream out;
    out << r.app << " on " << r.dataset << " (scale " << r.scale
        << ", " << r.info.rows << "x" << r.info.cols;
    if (r.info.nnz >= 0)
        out << ", " << r.info.nnz << " nnz";
    out << ")\n";
    if (!r.info.source.empty())
        out << "source: " << r.info.source << "\n";
    if (r.info.nnz >= 0 && r.info.encoded_bytes > 0)
        out << "storage: " << r.info.csr_bytes << " B csr, "
            << r.info.encoded_bytes << " B encoded ("
            << static_cast<double>(r.info.csr_bytes) /
                   static_cast<double>(r.info.encoded_bytes)
            << "x)\n";
    out << "config: " << r.config_name << " / "
        << sim::memTechName(r.config.dram.tech) << ", " << r.tiles
        << " tiles\n";
    out << "cycles: " << r.timing.cycles << "  ("
        << r.timing.runtime_ms << " ms at " << r.config.clock_ghz
        << " GHz)\n";
    out << "lane occupancy: "
        << (counted > 0 ? 100.0 * t.active_lane_cycles / counted : 0.0)
        << "%  (" << t.tokens << " tokens)\n";
    out << "dram: " << d.bursts << " bursts, " << d.bytes
        << " bytes, row-hit rate " << 100.0 * d.rowHitRate() << "%\n";
    out << "spmu: bank utilization "
        << 100.0 * s.bankUtilization(r.config.spmu.banks) << "%, "
        << s.elided_reads << " elided reads, " << s.enqueue_stalls
        << " enqueue stalls\n";
    return out.str();
}

} // namespace capstan::driver
