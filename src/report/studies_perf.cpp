/**
 * @file
 * Application-level studies: artifacts whose points are full
 * (application x dataset x machine-configuration) simulations. Every
 * study here declares its runs as SweepSpecs over the driver's option
 * keys, expands them with driver::expandSweep, and executes all points
 * on the parallel sweep engine (driver::runSweep) through
 * StudyContext::sweep — the same path as `capstan-run --sweep`.
 * Figure 7 and Table 13 are the exceptions: their layered
 * configurations and back-pointer knob are not expressible as option
 * keys, so they call the shared dispatch (driver::runApp) directly.
 */

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "baselines/asic_models.hpp"
#include "baselines/cpu_gpu.hpp"
#include "driver/options.hpp"
#include "report/catalog.hpp"
#include "report/render.hpp"
#include "report/studies.hpp"
#include "sim/area.hpp"
#include "sim/stats.hpp"
#include "workloads/datasets.hpp"

namespace capstan::report {

namespace {

using driver::DriverOptions;
using driver::SweepPointResult;
using driver::SweepSpec;

double
pointSeconds(const SweepPointResult &r)
{
    return seconds(r.result.timing); // ctx.sweep ran: r.ok holds.
}

/** Apply a named option to a base point; throws on invalid values. */
void
apply(DriverOptions &opts, const std::string &key,
      const std::string &value)
{
    std::string err = driver::applyOption(opts, key, value);
    if (!err.empty())
        throw std::invalid_argument(err);
}

std::vector<std::string>
toStrings(const std::vector<double> &values)
{
    std::vector<std::string> out;
    for (double v : values)
        out.push_back(common::JsonValue(v).dump());
    return out;
}

std::vector<std::string>
toStrings(const std::vector<int> &values)
{
    std::vector<std::string> out;
    for (int v : values)
        out.push_back(std::to_string(v));
    return out;
}

} // namespace

StudyResult
runTable9(const StudyContext &ctx)
{
    struct Variant
    {
        std::string key;      //!< Metric-key component.
        std::string label;    //!< Column header.
        std::string ordering; //!< Sweep-axis value.
        std::string hash;
        std::string allocator;
        std::string ideal;
    };
    const std::vector<Variant> variants = {
        {"ideal", "Ideal", "unordered", "xor", "full", "true"},
        {"hash", "Hash", "unordered", "xor", "full", "false"},
        {"lin", "Lin.", "unordered", "linear", "full", "false"},
        {"weak_h", "Weak-H", "unordered", "xor", "weak", "false"},
        {"weak_l", "Weak-L", "unordered", "linear", "weak", "false"},
        {"arb_h", "Arb-H", "arbitrated", "xor", "full", "false"},
        {"arb_l", "Arb-L", "arbitrated", "linear", "full", "false"},
    };

    // One spec per variant; the app axis expands to all eleven
    // applications, each on its family's default dataset. Points are
    // variant-major: index v * apps + a.
    std::vector<DriverOptions> points;
    for (const auto &v : variants) {
        SweepSpec spec;
        spec.base = ctx.base(allApps().front(), "");
        spec.set("app", allApps());
        spec.set("ordering", {v.ordering});
        spec.set("hash", {v.hash});
        spec.set("allocator", {v.allocator});
        spec.set("spmu-ideal", {v.ideal});
        auto expanded = driver::expandSweep(spec);
        points.insert(points.end(), expanded.begin(), expanded.end());
    }
    auto results = ctx.sweep(points);

    const std::size_t napps = allApps().size();
    auto secondsAt = [&](std::size_t variant, std::size_t app) {
        return pointSeconds(results[variant * napps + app]);
    };

    StudyResult result;
    StudyTable table;
    table.headers = {"App"};
    for (const auto &v : variants)
        table.headers.push_back(v.label);
    std::vector<std::vector<double>> columns(variants.size());
    for (std::size_t a = 0; a < napps; ++a) {
        const std::string &app = allApps()[a];
        double base = secondsAt(1, a); // Capstan + hash.
        std::vector<std::string> row = {app};
        for (std::size_t i = 0; i < variants.size(); ++i) {
            double norm = secondsAt(i, a) / base;
            columns[i].push_back(norm);
            std::string key = app + "/" + variants[i].key;
            result.metric(key, norm);
            row.push_back(
                oursPaper(norm, ctx.paper("table9", key), 2));
        }
        table.rows.push_back(std::move(row));
    }
    std::vector<std::string> grow = {"gmean"};
    for (std::size_t i = 0; i < columns.size(); ++i) {
        double g = gmean(columns[i]);
        std::string key = "gmean/" + variants[i].key;
        result.metric(key, g);
        grow.push_back(oursPaper(g, ctx.paper("table9", key), 2));
    }
    table.rows.push_back(std::move(grow));
    result.tables.push_back(std::move(table));
    result.notes = "Runtime normalized to Capstan's allocated design "
                   "with address hashing (ours / paper).";
    return result;
}

StudyResult
runTable10(const StudyContext &ctx)
{
    const std::vector<std::string> apps = {"CSR", "COO", "CSC", "Conv",
                                           "BiCGStab"};
    const std::vector<std::pair<std::string, std::string>> modes = {
        {"unordered", "Capstan"},
        {"address", "Address Ordered"},
        {"fully", "Ordered"},
    };

    // One spec per app (datasets differ); the ordering axis expands to
    // the three modes. Points are app-major: index a * modes + m.
    std::vector<DriverOptions> points;
    std::vector<std::string> mode_values;
    for (const auto &[value, label] : modes)
        mode_values.push_back(value);
    for (const auto &app : apps) {
        SweepSpec spec;
        spec.base = ctx.base(app, datasetsFor(app)[0]);
        spec.set("ordering", mode_values);
        auto expanded = driver::expandSweep(spec);
        points.insert(points.end(), expanded.begin(), expanded.end());
    }
    auto results = ctx.sweep(points);

    StudyResult result;
    StudyTable table;
    table.headers = {"Mode"};
    for (const auto &a : apps)
        table.headers.push_back(a);
    table.headers.push_back("gmean");

    // Normalize per app against the fully-reordering (first) mode.
    std::map<std::string, std::array<double, 3>> norm;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        double base = pointSeconds(results[a * modes.size()]);
        for (std::size_t m = 0; m < modes.size(); ++m)
            norm[apps[a]][m] =
                pointSeconds(results[a * modes.size() + m]) / base;
    }
    for (std::size_t m = 0; m < modes.size(); ++m) {
        std::vector<std::string> row = {modes[m].second};
        std::vector<double> vals;
        for (const auto &app : apps) {
            double v = norm[app][m];
            vals.push_back(v);
            std::string key = app + "/" + modes[m].first;
            result.metric(key, v);
            row.push_back(oursPaper(v, ctx.paper("table10", key), 2));
        }
        double g = gmean(vals);
        std::string key = "gmean/" + modes[m].first;
        result.metric(key, g);
        row.push_back(oursPaper(g, ctx.paper("table10", key), 2));
        table.rows.push_back(std::move(row));
    }
    result.tables.push_back(std::move(table));
    result.notes = "Runtime normalized to full reordering, for the "
                   "applications relying on random on-chip accesses "
                   "(ours / paper).";
    return result;
}

StudyResult
runTable11(const StudyContext &ctx)
{
    const std::vector<std::string> apps = {"PR-Pull", "PR-Edge",
                                           "Conv"};
    const std::vector<std::string> techs = {"ddr4", "hbm2e"};
    const std::vector<std::string> merges = {"none", "mrg0", "mrg1",
                                             "mrg16"};

    // One spec per app crossing memtech x merge; canonical axis order
    // puts memtech outermost, so index a*8 + t*4 + m.
    std::vector<DriverOptions> points;
    for (const auto &app : apps) {
        SweepSpec spec;
        spec.base = ctx.base(app, datasetsFor(app)[0]);
        spec.set("memtech", techs);
        spec.set("merge", merges);
        auto expanded = driver::expandSweep(spec);
        points.insert(points.end(), expanded.begin(), expanded.end());
    }
    auto results = ctx.sweep(points);
    auto secondsAt = [&](std::size_t app, std::size_t tech,
                         std::size_t merge) {
        return pointSeconds(
            results[app * techs.size() * merges.size() +
                    tech * merges.size() + merge]);
    };

    // Columns: None(DDR4), None(HBM2E), Mrg-0, Mrg-1, Mrg-16. Each
    // normalizes against the Mrg-1 baseline of its own memory
    // technology, as the paper does.
    struct Column
    {
        std::string key;
        std::string label;
        std::size_t tech, merge, base_tech;
    };
    const std::vector<Column> columns = {
        {"none_ddr4", "None DDR4", 0, 0, 0},
        {"none_hbm2e", "None HBM2E", 1, 0, 1},
        {"mrg0", "Mrg-0", 1, 1, 1},
        {"mrg1", "Mrg-1", 1, 2, 1},
        {"mrg16", "Mrg-16", 1, 3, 1},
    };

    StudyResult result;
    StudyTable table;
    table.headers = {"App"};
    for (const auto &c : columns)
        table.headers.push_back(c.label);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        std::vector<std::string> row = {apps[a]};
        for (const auto &c : columns) {
            double base = secondsAt(a, c.base_tech, 2); // Mrg-1.
            double v = secondsAt(a, c.tech, c.merge) / base;
            std::string key = apps[a] + "/" + c.key;
            result.metric(key, v);
            row.push_back(oursPaper(v, ctx.paper("table11", key), 2));
        }
        table.rows.push_back(std::move(row));
    }
    result.tables.push_back(std::move(table));
    result.notes =
        "Runtime normalized to Mrg-1 (ours / paper); 'None' removes "
        "the merge network, forcing cross-tile updates through DRAM. "
        "The DDR4 and HBM2E 'None' columns normalize against the "
        "Mrg-1 baseline of their own memory technology; Conv's DDR4 "
        "point is not reported in the paper.";
    return result;
}

StudyResult
runTable12(const StudyContext &ctx)
{
    using namespace capstan::baselines;
    using namespace capstan::workloads;

    struct ConfigRow
    {
        std::string key;   //!< Metric-key component.
        std::string label; //!< Display row name.
        std::string config;
        std::string memtech;
        std::vector<std::string> apps;
    };
    // Plasticine cannot map Conv, PR-Edge, BFS, SSSP, M+M, or SpMSpM.
    const std::vector<std::string> plasticine_apps = {
        "CSR", "COO", "CSC", "PR-Pull", "BiCGStab"};
    const std::vector<ConfigRow> configs = {
        {"ideal", "Capstan (Ideal)", "ideal", "ideal", allApps()},
        {"hbm2e", "Capstan (HBM2E)", "capstan", "hbm2e", allApps()},
        {"hbm2", "Capstan (HBM2)", "capstan", "hbm2", allApps()},
        {"ddr4", "Capstan (DDR4)", "capstan", "ddr4", allApps()},
        {"plasticine", "Plasticine (HBM2E)", "plasticine", "hbm2e",
         plasticine_apps},
    };

    // One spec per (row, app) whose dataset axis expands to the app's
    // Table 6 family; all points execute as one parallel sweep.
    std::vector<DriverOptions> points;
    struct Span
    {
        std::size_t offset, count;
    };
    std::map<std::string, std::map<std::string, Span>> spans;
    for (const auto &cr : configs) {
        for (const auto &app : cr.apps) {
            SweepSpec spec;
            spec.base = ctx.base(app, "");
            apply(spec.base, "config", cr.config);
            apply(spec.base, "memtech", cr.memtech);
            spec.set("dataset", datasetsFor(app));
            auto expanded = driver::expandSweep(spec);
            spans[cr.key][app] = {points.size(), expanded.size()};
            points.insert(points.end(), expanded.begin(),
                          expanded.end());
        }
    }
    auto results = ctx.sweep(points);

    // Per-app geometric-mean runtime (seconds) per configuration row.
    std::map<std::string, std::map<std::string, double>> secs;
    for (const auto &[row, apps] : spans) {
        for (const auto &[app, span] : apps) {
            std::vector<double> times;
            for (std::size_t i = 0; i < span.count; ++i)
                times.push_back(pointSeconds(results[span.offset + i]));
            secs[row][app] = gmean(times);
        }
    }

    // Baseline models (analytic profiles; no simulation).
    auto baselineSeconds = [&](const std::string &app, bool gpu) {
        std::vector<double> times;
        for (const auto &ds : datasetsFor(app)) {
            double scale =
                driver::defaultScale(ds) * ctx.knobs.scale_mult;
            KernelProfile p;
            if (app == "Conv") {
                const auto &layer = loadConvDataset(ds, scale).layer;
                // cuDNN runs the dense convolution; the CPU tensor
                // compiler emits a scalar sparse loop nest.
                p = gpu ? profileConv(layer)
                        : profileConvSparseCpu(layer);
            } else {
                auto m =
                    resolveMatrixDataset(ds, scale, ctx.knobs.dataset_dir)
                        .matrix;
                if (app == "CSR")
                    p = profileSpmvCsr(m);
                else if (app == "COO")
                    p = profileSpmvCoo(m);
                else if (app == "CSC")
                    p = profileSpmvCsc(m, 0.30);
                else if (app == "PR-Pull")
                    p = profilePageRankPull(m, ctx.knobs.iterations);
                else if (app == "PR-Edge")
                    p = profilePageRankEdge(m, ctx.knobs.iterations);
                else if (app == "BFS")
                    p = profileBfs(m, 0);
                else if (app == "SSSP")
                    p = profileSssp(m, 0);
                else if (app == "M+M")
                    p = profileMatAdd(m, m);
                else if (app == "SpMSpM")
                    p = profileSpmspm(m, m);
                else if (app == "BiCGStab")
                    p = profileBicgstab(m, ctx.knobs.iterations);
            }
            times.push_back(gpu ? gpuSeconds(p) : cpuSeconds(p));
        }
        return gmean(times);
    };
    const std::vector<std::string> gpu_apps = {
        "CSR", "COO", "Conv", "PR-Pull", "PR-Edge",
        "BFS", "SSSP", "SpMSpM", "BiCGStab"};
    for (const auto &app : gpu_apps)
        secs["v100"][app] = baselineSeconds(app, true);
    for (const auto &app : allApps())
        secs["cpu"][app] = baselineSeconds(app, false);

    // Normalization bases: fastest HBM2E variant within each group
    // (the three SpMV variants share one base, as do the two PageRank
    // variants).
    auto base = [&](const std::string &app) {
        const auto &hbm = secs.at("hbm2e");
        if (app == "CSR" || app == "COO" || app == "CSC")
            return std::min(
                {hbm.at("CSR"), hbm.at("COO"), hbm.at("CSC")});
        if (app == "PR-Pull" || app == "PR-Edge")
            return std::min(hbm.at("PR-Pull"), hbm.at("PR-Edge"));
        return hbm.at(app);
    };

    StudyResult result;
    StudyTable table;
    table.headers = {"Configuration"};
    for (const auto &app : allApps())
        table.headers.push_back(app);
    table.headers.push_back("gmean");

    std::vector<std::pair<std::string, std::string>> order = {
        {"ideal", "Capstan (Ideal)"},
        {"hbm2e", "Capstan (HBM2E)"},
        {"hbm2", "Capstan (HBM2)"},
        {"ddr4", "Capstan (DDR4)"},
        {"plasticine", "Plasticine (HBM2E)"},
        {"v100", "V100 GPU"},
        {"cpu", "128-Thread CPU"},
    };
    for (const auto &[row_key, row_label] : order) {
        std::vector<std::string> cells = {row_label};
        std::vector<double> normalized;
        for (const auto &app : allApps()) {
            auto it = secs[row_key].find(app);
            if (it == secs[row_key].end()) {
                cells.push_back("-");
                continue;
            }
            double v = it->second / base(app);
            normalized.push_back(v);
            std::string key = row_key + "/" + app;
            result.metric(key, v);
            cells.push_back(
                oursPaper(v, ctx.paper("table12", key), 2));
        }
        double g = gmean(normalized);
        std::string key = "gmean/" + row_key;
        result.metric(key, g);
        cells.push_back(oursPaper(g, ctx.paper("table12", key), 2));
        table.rows.push_back(std::move(cells));
    }
    result.tables.push_back(std::move(table));
    result.notes =
        "Runtimes normalized to the fastest Capstan-HBM2E version of "
        "each application, geometric mean over each app's Table 6 "
        "datasets (ours / paper); '-' marks unsupported mappings.";
    return result;
}

StudyResult
runTable13(const StudyContext &ctx)
{
    using namespace capstan::baselines;
    using namespace capstan::workloads;
    using sim::CapstanConfig;
    using sim::MemTech;

    StudyResult result;
    StudyTable table;
    table.headers = {"Baseline", "App", "1.6 GHz", "1 GHz"};

    auto addRow = [&](const std::string &key,
                      const std::string &baseline,
                      const std::string &app, double speedup) {
        result.metric("speedup16/" + key, speedup);
        result.metric("speedup10/" + key, speedup / 1.6);
        table.rows.push_back(
            {baseline, app,
             oursPaper(speedup, ctx.paper("table13", "speedup16/" + key),
                       2),
             oursPaper(speedup / 1.6,
                       ctx.paper("table13", "speedup10/" + key), 2)});
    };

    // EIE: CSC SpMV compute throughput (weights on-chip for EIE, so
    // the Capstan run uses the ideal network + memory design point).
    {
        std::string ds = "ckt11752_dc_1";
        double scale = driver::defaultScale(ds) * ctx.knobs.scale_mult;
        auto m = resolveMatrixDataset(ds, scale, ctx.knobs.dataset_dir)
                     .matrix;
        double cap = seconds(driver::runApp(
            "CSC", ds, CapstanConfig::ideal(), ctx.knobs));
        addRow("eie", "EIE", "CSC", eieSeconds(m, 0.30) / cap);
    }

    // SCNN: convolution. SCNN's 1024-multiplier array dwarfs the
    // simulated tiles/200 chip slice, so its throughput is weak-scaled
    // by the same fraction.
    {
        std::string ds = "ResNet-50 #2";
        double scale = driver::defaultScale(ds) * ctx.knobs.scale_mult;
        auto layer = loadConvDataset(ds, scale).layer;
        double cap = seconds(driver::runApp(
            "Conv", ds, CapstanConfig::capstan(MemTech::HBM2E),
            ctx.knobs));
        double fraction = std::min(1.0, ctx.knobs.tiles / 200.0);
        addRow("scnn", "SCNN", "Conv",
               scnnSeconds(layer) / fraction / cap);
    }

    // Graphicionado: PR / BFS / SSSP with DDR4, no back pointers.
    {
        const std::vector<std::pair<std::string, std::string>> rows = {
            {"PR-Pull", "graphicionado_pr"},
            {"BFS", "graphicionado_bfs"},
            {"SSSP", "graphicionado_sssp"}};
        for (const auto &[app, key] : rows) {
            std::string ds = "flickr";
            double scale =
                driver::defaultScale(ds) * ctx.knobs.scale_mult;
            auto g =
                resolveMatrixDataset(ds, scale, ctx.knobs.dataset_dir)
                    .matrix;
            driver::RunKnobs knobs = ctx.knobs;
            knobs.write_pointers = false;
            double cap = seconds(driver::runApp(
                app, ds, CapstanConfig::capstan(MemTech::DDR4),
                knobs));
            double passes =
                app == "PR-Pull" ? knobs.iterations : 6;
            double edges =
                static_cast<double>(g.nnz()) *
                (app == "PR-Pull" ? knobs.iterations : 1.2);
            double graphi = graphicionadoSeconds(
                edges, static_cast<int>(passes));
            addRow(key, "Graphicionado",
                   app == "PR-Pull" ? "PR" : app, graphi / cap);
        }
    }

    // MatRaptor: SpMSpM at its highest demonstrated 10 GOP/s.
    {
        std::string ds = "qc324";
        double scale = driver::defaultScale(ds) * ctx.knobs.scale_mult;
        auto m = resolveMatrixDataset(ds, scale, ctx.knobs.dataset_dir)
                     .matrix;
        sparse::MatrixView mv(m);
        double mults = 0;
        for (Index i = 0; i < mv.rows(); ++i) {
            for (Index j : mv.indices(i))
                mults += mv.length(j);
        }
        double cap = seconds(driver::runApp(
            "SpMSpM", ds, CapstanConfig::capstan(MemTech::HBM2E),
            ctx.knobs));
        addRow("matraptor", "MatRaptor", "SpMSpM",
               matraptorSeconds(mults) / cap);
    }

    result.tables.push_back(std::move(table));
    result.notes =
        "Capstan speedup over recent sparse accelerators at 1.6 GHz "
        "and at the 1 GHz clock-parity point (ours / paper). "
        "Reference areas (paper): EIE 64 mm^2/28 nm, SCNN 7.9 "
        "mm^2/16 nm, Graphicionado 64 MiB eDRAM, MatRaptor 2.26 "
        "mm^2/28 nm; Capstan 184.5 mm^2/15 nm. Absolute-throughput "
        "comparisons are strongly scale-sensitive; only the EIE rows "
        "are checked at the quick preset (docs/REPRODUCTION.md).";
    return result;
}

namespace {

/**
 * Expand one axis per app and run every app's points in one parallel
 * sweep. Results are app-major: index app_i * values + value_j.
 */
std::vector<SweepPointResult>
appAxisSweep(const StudyContext &ctx, const std::string &axis,
             const std::vector<std::string> &values)
{
    std::vector<DriverOptions> points;
    for (const auto &app : allApps()) {
        SweepSpec spec;
        spec.base = ctx.base(app, sensitivityDataset(app));
        spec.set(axis, values);
        auto expanded = driver::expandSweep(spec);
        points.insert(points.end(), expanded.begin(), expanded.end());
    }
    return ctx.sweep(points);
}

} // namespace

StudyResult
runFig5(const StudyContext &ctx)
{
    StudyResult result;

    // (a) Speedup vs DRAM bandwidth, normalized to 20 GB/s.
    {
        const std::vector<double> bandwidths = {20,  50,   100, 200,
                                                500, 1000, 2000};
        auto results =
            appAxisSweep(ctx, "bandwidth-gbps", toStrings(bandwidths));
        StudyTable table;
        table.title = "Figure 5a: speedup vs DRAM bandwidth "
                      "(normalized to 20 GB/s)";
        table.headers = {"App"};
        for (double bw : bandwidths)
            table.headers.push_back(num(bw, 0) + "GB/s");
        std::size_t i = 0;
        for (const auto &app : allApps()) {
            double base = pointSeconds(results[i]);
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < bandwidths.size(); ++j, ++i) {
                double v = base / pointSeconds(results[i]);
                result.metric("a/" + app + "/" +
                                  num(bandwidths[j], 0),
                              v);
                row.push_back(num(v, 2));
            }
            table.rows.push_back(std::move(row));
        }
        result.tables.push_back(std::move(table));
    }

    // (b) Speedup vs weighted on-chip area as outer-parallelism
    // scales.
    {
        const std::vector<int> tile_counts = {2, 4, 8, 16, 32};
        auto results = appAxisSweep(ctx, "tiles",
                                    toStrings(tile_counts));
        sim::CapstanConfig cfg =
            sim::CapstanConfig::capstan(sim::MemTech::HBM2E);
        StudyTable table;
        table.title = "Figure 5b: speedup vs weighted on-chip area "
                      "(outer-parallelization sweep)";
        table.headers = {"App"};
        for (int t : tile_counts) {
            double pct = 100.0 * sim::weightedAreaFraction(t, t, cfg);
            table.headers.push_back(num(pct, 1) + "%");
        }
        std::size_t i = 0;
        for (const auto &app : allApps()) {
            double base = pointSeconds(results[i]);
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < tile_counts.size();
                 ++j, ++i) {
                double v = base / pointSeconds(results[i]);
                result.metric("b/" + app + "/t" +
                                  std::to_string(tile_counts[j]),
                              v);
                row.push_back(num(v, 2));
            }
            table.rows.push_back(std::move(row));
        }
        result.tables.push_back(std::move(table));
    }

    // (c) Speedup from read-only pointer compression vs bandwidth.
    // Two axes per app: bandwidth (outer) x compression (inner), so
    // each bandwidth's plain/compressed pair is adjacent.
    {
        const std::vector<double> bandwidths = {20, 50, 100, 200, 500};
        std::vector<DriverOptions> points;
        for (const auto &app : allApps()) {
            SweepSpec spec;
            spec.base = ctx.base(app, sensitivityDataset(app));
            spec.set("bandwidth-gbps", toStrings(bandwidths));
            spec.set("compression", {"false", "true"});
            auto expanded = driver::expandSweep(spec);
            points.insert(points.end(), expanded.begin(),
                          expanded.end());
        }
        auto results = ctx.sweep(points);
        StudyTable table;
        table.title = "Figure 5c: speedup from pointer compression "
                      "vs bandwidth";
        table.headers = {"App"};
        for (double bw : bandwidths)
            table.headers.push_back(num(bw, 0) + "GB/s");
        std::size_t i = 0;
        for (const auto &app : allApps()) {
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < bandwidths.size();
                 ++j, i += 2) {
                double plain = pointSeconds(results[i]);
                double comp = pointSeconds(results[i + 1]);
                double v = plain / comp;
                result.metric("c/" + app + "/" +
                                  num(bandwidths[j], 0),
                              v);
                row.push_back(num(v, 2));
            }
            table.rows.push_back(std::move(row));
        }
        result.tables.push_back(std::move(table));
    }

    result.notes =
        "As in the paper, p2p-Gnutella31 substitutes for flickr and "
        "the first dataset of each family represents its "
        "applications; series normalize to their slowest point so the "
        "curves read as speedups. The paper publishes Figure 5 only "
        "as plots, so this study is shape-level (unchecked): "
        "memory-bound apps keep scaling past 900 GB/s, compression "
        "helps PR-Edge and COO most.";
    return result;
}

StudyResult
runFig6(const StudyContext &ctx)
{
    StudyResult result;

    struct SubFig
    {
        std::string key;   //!< Metric prefix ("a", "b", "c").
        std::string title;
        std::string axis;  //!< Driver option key swept.
        std::vector<int> values;
        std::vector<std::string> apps;
    };
    const std::vector<SubFig> subs = {
        {"a",
         "Figure 6a: slowdown vs bits scanned per cycle (relative to "
         "512-bit scanner)",
         "scan-bits",
         {1, 4, 16, 64, 256, 512},
         {"BFS", "SSSP", "M+M", "SpMSpM"}},
        {"b",
         "Figure 6b: slowdown vs data elements scanned per cycle "
         "(relative to 16)",
         "scan-data-elems",
         {1, 2, 4, 8, 16},
         {"CSC", "Conv"}},
        {"c",
         "Figure 6c: slowdown vs scan output vectorization (relative "
         "to 16)",
         "scan-outputs",
         {1, 2, 4, 8, 16},
         {"M+M", "SpMSpM"}},
    };

    for (const auto &sub : subs) {
        std::vector<DriverOptions> points;
        for (const auto &app : sub.apps) {
            SweepSpec spec;
            spec.base = ctx.base(app, datasetsFor(app)[0]);
            spec.set(sub.axis, toStrings(sub.values));
            auto expanded = driver::expandSweep(spec);
            points.insert(points.end(), expanded.begin(),
                          expanded.end());
        }
        auto results = ctx.sweep(points);

        StudyTable table;
        table.title = sub.title;
        table.headers = {"App"};
        for (int v : sub.values)
            table.headers.push_back(std::to_string(v));
        std::size_t i = 0;
        for (const auto &app : sub.apps) {
            std::vector<double> times;
            for (std::size_t j = 0; j < sub.values.size(); ++j, ++i)
                times.push_back(pointSeconds(results[i]));
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < times.size(); ++j) {
                double v = times[j] / times.back();
                result.metric(sub.key + "/" + app + "/" +
                                  std::to_string(sub.values[j]),
                              v);
                row.push_back(num(v, 2));
            }
            table.rows.push_back(std::move(row));
        }
        result.tables.push_back(std::move(table));
    }

    result.notes =
        "Slowdown relative to the maximal scanner configuration, swept "
        "through the driver's scan-bits / scan-data-elems / "
        "scan-outputs axes. The paper publishes Figure 6 only as "
        "plots, so this study is shape-level (unchecked): scalar "
        "scanning is catastrophic (hence the 256-bit design), the "
        "16-element data scanner suffices, and SpMSpM needs the full "
        "16-wide scan output.";
    return result;
}

StudyResult
runFig7(const StudyContext &ctx)
{
    using sim::CapstanConfig;
    using sim::StallBreakdown;
    using sim::StallClass;

    StudyResult result;
    StudyTable table;
    table.headers = {"App", "Dataset"};
    for (int c = 0; c < sim::kStallClasses; ++c)
        table.headers.push_back(
            sim::stallClassName(static_cast<StallClass>(c)));

    for (const auto &app : allApps()) {
        if (app == "BiCGStab")
            continue; // Fig. 7 covers the ten Table 2 applications.
        for (const auto &ds : datasetsFor(app)) {
            // Layered configurations: ideal, + network, + allocated
            // SRAM, + DRAM (Section 4.4 "Stall Breakdown").
            CapstanConfig ideal = CapstanConfig::ideal();
            CapstanConfig with_net = CapstanConfig::ideal();
            with_net.network_hop_latency =
                CapstanConfig::capstan().network_hop_latency;
            CapstanConfig with_sram = with_net;
            with_sram.spmu.ideal = false;
            CapstanConfig full =
                CapstanConfig::capstan(sim::MemTech::HBM2E);

            auto t_ideal = driver::runApp(app, ds, ideal, ctx.knobs);
            auto t_net = driver::runApp(app, ds, with_net, ctx.knobs);
            auto t_sram =
                driver::runApp(app, ds, with_sram, ctx.knobs);
            auto t_full = driver::runApp(app, ds, full, ctx.knobs);

            const int lanes = full.spmu.lanes;
            double lane_width =
                static_cast<double>(lanes) * ctx.knobs.tiles;

            StallBreakdown synth;
            const auto &tot = t_ideal.totals;
            synth[StallClass::Active] = tot.active_lane_cycles;
            synth[StallClass::Scan] = tot.scan_empty_cycles * lanes;
            synth[StallClass::VectorLength] =
                tot.vector_idle_lane_cycles;
            synth[StallClass::Imbalance] = tot.imbalance_lane_cycles;
            double total_lane_cycles =
                static_cast<double>(t_ideal.cycles) * lane_width;
            double accounted = synth[StallClass::Active] +
                               synth[StallClass::Scan] +
                               synth[StallClass::VectorLength] +
                               synth[StallClass::Imbalance];
            synth[StallClass::LoadStore] =
                std::max(0.0, total_lane_cycles - accounted);

            StallBreakdown b = layerBreakdown(
                synth, static_cast<double>(t_ideal.cycles),
                static_cast<double>(t_net.cycles),
                static_cast<double>(t_sram.cycles),
                static_cast<double>(t_full.cycles), lane_width);

            std::vector<std::string> row = {app, ds};
            for (int c = 0; c < sim::kStallClasses; ++c) {
                double pct =
                    b.percent(static_cast<StallClass>(c));
                result.metric(
                    app + "/" + ds + "/" +
                        sim::stallClassName(
                            static_cast<StallClass>(c)),
                    pct);
                row.push_back(num(pct, 1));
            }
            table.rows.push_back(std::move(row));
        }
    }
    result.tables.push_back(std::move(table));
    result.notes =
        "Execution-time breakdown (% of lane-cycles). Synthetic "
        "classes come from an ideal-configuration run; simulated "
        "classes layer in the network, the allocated SRAM, and the "
        "DRAM model one at a time. The paper publishes Figure 7 only "
        "as plots, so this study is shape-level (unchecked): SpMSpM "
        "pipelines well, PR-Pull loses lanes to Vector Length, "
        "PR-Edge to SRAM conflicts on power-law hubs, BFS/SSSP pay "
        "the network between levels.";
    return result;
}

} // namespace capstan::report
