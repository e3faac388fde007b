#include "driver/runner.hpp"

#include <algorithm>
#include <atomic>
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
    // Bench-friendly sizes: the full preset runs these, the quick
    // preset 0.02x of them (docs/REPRODUCTION.md, "Presets"). --scale
    // multiplies them back toward the published sizes.
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
    double scale;     //!< Exact generation scale: nearby scales differ.
    bool operator<(const DatasetKey &o) const
    {
        return std::tie(name, scale) < std::tie(o.name, o.scale);
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
    return {dataset_dir + '\x1f' + name, scale};
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
    return cache.get({name, scale},
                     [&] { return loadConvDataset(name, scale); });
}

} // namespace

DatasetCacheStats
datasetCacheStats()
{
    return {g_cache_hits.load(std::memory_order_relaxed),
            g_cache_misses.load(std::memory_order_relaxed)};
}

Workload
workload(const SimulationKey &key)
{
    Workload w;
    if (key.app == "Conv")
        w.layer = &cachedConv(key.dataset, key.scale).layer;
    else
        w.matrix = &cachedMatrix(key.dataset, key.scale, key.dataset_dir);
    return w;
}

AppTiming
runApp(const SimulationKey &key, bool back_pointers)
{
    const std::string &app = key.app;
    const CapstanConfig &cfg = key.config;
    const int tiles = key.tiles;
    Workload w = workload(key);
    if (w.layer)
        return runConv(*w.layer, cfg, tiles);
    const sparse::MatrixStore &m = w.matrix->matrix;
    // Graph traversals, M+M (A + A^T), SpMSpM (A x A), and BiCGStab
    // index one dimension with the other's indices, so a rectangular
    // matrix would read/write out of bounds. Every synthetic
    // generator is square; only real dataset files can get here.
    if (app != "CSR" && app != "COO" && app != "CSC" &&
        m.rows() != m.cols()) {
        throw workloads::DatasetError(
            "app " + app + " requires a square matrix; dataset '" +
            key.dataset + "' is " + std::to_string(m.rows()) + "x" +
            std::to_string(m.cols()));
    }
    if (app == "CSR")
        return runSpmvCsr(m, cfg, tiles);
    if (app == "COO")
        return runSpmvCoo(m, cfg, tiles);
    if (app == "CSC") {
        // The paper uses a 30%-dense input vector for CSC SpMV.
        auto v = sparseVector(m.cols(), 0.30, 0xCEC);
        return runSpmvCsc(m, v, cfg, tiles);
    }
    if (app == "PR-Pull")
        return runPageRankPull(m, key.iterations, cfg, tiles);
    if (app == "PR-Edge")
        return runPageRankEdge(m, key.iterations, cfg, tiles);
    if (app == "BFS")
        return runBfs(m, 0, cfg, tiles, back_pointers).timing;
    if (app == "SSSP")
        return runSssp(m, 0, cfg, tiles, back_pointers).timing;
    if (app == "M+M") {
        // Add the dataset to its transpose: same dimensions and
        // density, different (but correlated) occupancy.
        static GenerateOnceCache<sparse::MatrixStore> tcache;
        const sparse::MatrixStore &mt = tcache.get(
            datasetKey(key.dataset, key.scale, key.dataset_dir),
            [&] { return sparse::MatrixStore(m.transpose()); });
        return runMatAdd(m, mt, cfg, tiles);
    }
    if (app == "SpMSpM")
        return runSpmspm(m, m, cfg, tiles);
    if (app == "BiCGStab")
        return runBicgstab(m, key.iterations, cfg, tiles);
    throw std::invalid_argument("unknown app: " + app);
}

RunResult
runDriver(const DriverOptions &opts)
{
    if (!canonicalApp(opts.app))
        throw std::invalid_argument("unknown app: " + opts.app);
    const SimulationKey key = simulationKey(opts);

    RunResult r;
    r.app = key.app;
    r.dataset = key.dataset;
    r.config_name = configPointName(opts.config);
    r.scale = key.scale;
    r.tiles = key.tiles;
    r.iterations = key.iterations;
    r.config = key.config;
    r.timing = runApp(key, /*back_pointers=*/true);

    Workload w = workload(key);
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
    key.scale = defaultScale(key.dataset) * opts.scale;
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
    cfg.set("clock_ghz", sim::kClockGhz);
    cfg.set("ordering", sim::orderingName(r.config.spmu.ordering));
    cfg.set("merge", sim::mergeModeName(r.config.merge));
    cfg.set("hash", sim::bankHashName(r.config.spmu.hash));
    cfg.set("allocator",
            sim::allocatorKindName(r.config.spmu.allocator));
    cfg.set("queue_depth", r.config.spmu.queue_depth);
    cfg.set("banks", sim::kSpmuBanks);
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
    spmu.set("bank_utilization", s.bankUtilization());
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
        << r.timing.runtime_ms << " ms at " << sim::kClockGhz
        << " GHz)\n";
    out << "lane occupancy: "
        << (counted > 0 ? 100.0 * t.active_lane_cycles / counted : 0.0)
        << "%  (" << t.tokens << " tokens)\n";
    out << "dram: " << d.bursts << " bursts, " << d.bytes
        << " bytes, row-hit rate " << 100.0 * d.rowHitRate() << "%\n";
    out << "spmu: bank utilization "
        << 100.0 * s.bankUtilization() << "%, "
        << s.elided_reads << " elided reads, " << s.enqueue_stalls
        << " enqueue stalls\n";
    return out.str();
}

} // namespace capstan::driver
