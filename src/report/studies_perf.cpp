/**
 * @file
 * Application-level studies: artifacts whose points are full
 * (application x dataset x machine-configuration) simulations. Each
 * study is a plan/derive pair. The plan declares its runs as
 * SweepSpecs over the driver's option keys and expands them with
 * driver::expandSweep; the derive reads the planned points' timings by
 * index. The points themselves run in report::runPlan, merged with
 * every other selected study's points into one parallel sweep
 * (driver::runSweep), the same path as `capstan-run --sweep`. Figure
 * 7's layered configurations and Table 13's ASIC design points are
 * option keys too; only Table 13's two Graphicionado runs without back
 * pointers (BFS, SSSP) call the shared dispatch (driver::runApp)
 * directly from the derive, as no option key sets that knob.
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

namespace capstan::report {

namespace {

using driver::DriverOptions;
using driver::SweepSpec;

/** Apply a named option to a base point; throws on invalid values. */
void
apply(DriverOptions &opts, const std::string &key,
      const std::string &value)
{
    std::string err = driver::applyOption(opts, key, value);
    if (!err.empty())
        throw std::invalid_argument(err);
}

/** Expand @p spec and append its points to @p points. */
void
expandInto(std::vector<DriverOptions> &points, const SweepSpec &spec)
{
    auto expanded = driver::expandSweep(spec);
    points.insert(points.end(), expanded.begin(), expanded.end());
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

struct Table9Variant
{
    std::string key;      //!< Metric-key component.
    std::string label;    //!< Column header.
    std::string ordering; //!< Sweep-axis value.
    std::string hash;
    std::string allocator;
    std::string ideal;
};

const std::vector<Table9Variant> kTable9Variants = {
    {"ideal", "Ideal", "unordered", "xor", "full", "true"},
    {"hash", "Hash", "unordered", "xor", "full", "false"},
    {"lin", "Lin.", "unordered", "linear", "full", "false"},
    {"weak_h", "Weak-H", "unordered", "xor", "weak", "false"},
    {"weak_l", "Weak-L", "unordered", "linear", "weak", "false"},
    {"arb_h", "Arb-H", "arbitrated", "xor", "full", "false"},
    {"arb_l", "Arb-L", "arbitrated", "linear", "full", "false"},
};

} // namespace

std::vector<DriverOptions>
planTable9(const StudyContext &ctx)
{
    // One spec per variant; the app axis expands to all eleven
    // applications, each on its family's default dataset. Points are
    // variant-major: index v * apps + a.
    std::vector<DriverOptions> points;
    for (const auto &v : kTable9Variants) {
        SweepSpec spec;
        spec.base = ctx.base(allApps().front(), "");
        spec.set("app", allApps());
        spec.set("ordering", {v.ordering});
        spec.set("hash", {v.hash});
        spec.set("allocator", {v.allocator});
        spec.set("spmu-ideal", {v.ideal});
        expandInto(points, spec);
    }
    return points;
}

StudyResult
deriveTable9(const StudyContext &ctx, const Timings &t)
{
    const auto &variants = kTable9Variants;
    const std::size_t napps = allApps().size();
    auto secondsAt = [&](std::size_t variant, std::size_t app) {
        return seconds(t[variant * napps + app]);
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

namespace {

const std::vector<std::string> kTable10Apps = {"CSR", "COO", "CSC",
                                               "Conv", "BiCGStab"};
const std::vector<std::pair<std::string, std::string>> kTable10Modes = {
    {"unordered", "Capstan"},
    {"address", "Address Ordered"},
    {"fully", "Ordered"},
};

} // namespace

std::vector<DriverOptions>
planTable10(const StudyContext &ctx)
{
    // One spec per app (datasets differ); the ordering axis expands to
    // the three modes. Points are app-major: index a * modes + m.
    std::vector<DriverOptions> points;
    std::vector<std::string> mode_values;
    for (const auto &[value, label] : kTable10Modes)
        mode_values.push_back(value);
    for (const auto &app : kTable10Apps) {
        SweepSpec spec;
        spec.base = ctx.base(app, datasetsFor(app)[0]);
        spec.set("ordering", mode_values);
        expandInto(points, spec);
    }
    return points;
}

StudyResult
deriveTable10(const StudyContext &ctx, const Timings &t)
{
    const auto &apps = kTable10Apps;
    const auto &modes = kTable10Modes;

    StudyResult result;
    StudyTable table;
    table.headers = {"Mode"};
    for (const auto &a : apps)
        table.headers.push_back(a);
    table.headers.push_back("gmean");

    // Normalize per app against the fully-reordering (first) mode.
    std::map<std::string, std::array<double, 3>> norm;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        double base = seconds(t[a * modes.size()]);
        for (std::size_t m = 0; m < modes.size(); ++m)
            norm[apps[a]][m] = seconds(t[a * modes.size() + m]) / base;
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

namespace {

const std::vector<std::string> kTable11Apps = {"PR-Pull", "PR-Edge",
                                               "Conv"};
const std::vector<std::string> kTable11Techs = {"ddr4", "hbm2e"};
const std::vector<std::string> kTable11Merges = {"none", "mrg0", "mrg1",
                                                 "mrg16"};

} // namespace

std::vector<DriverOptions>
planTable11(const StudyContext &ctx)
{
    // One spec per app crossing memtech x merge; canonical axis order
    // puts memtech outermost, so index a*8 + t*4 + m.
    std::vector<DriverOptions> points;
    for (const auto &app : kTable11Apps) {
        SweepSpec spec;
        spec.base = ctx.base(app, datasetsFor(app)[0]);
        spec.set("memtech", kTable11Techs);
        spec.set("merge", kTable11Merges);
        expandInto(points, spec);
    }
    return points;
}

StudyResult
deriveTable11(const StudyContext &ctx, const Timings &t)
{
    const auto &apps = kTable11Apps;
    const std::size_t techs = kTable11Techs.size();
    const std::size_t merges = kTable11Merges.size();
    auto secondsAt = [&](std::size_t app, std::size_t tech,
                         std::size_t merge) {
        return seconds(t[app * techs * merges + tech * merges + merge]);
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

namespace {

struct Table12Row
{
    std::string key;   //!< Metric-key component.
    std::string label; //!< Display row name.
    std::string config;
    std::string memtech;
    std::vector<std::string> apps;
};

/** Table 12's simulated rows; each app spans its Table 6 datasets. */
std::vector<Table12Row>
table12Rows()
{
    // Plasticine cannot map Conv, PR-Edge, BFS, SSSP, M+M, or SpMSpM.
    const std::vector<std::string> plasticine_apps = {
        "CSR", "COO", "CSC", "PR-Pull", "BiCGStab"};
    return {
        {"ideal", "Capstan (Ideal)", "ideal", "ideal", allApps()},
        {"hbm2e", "Capstan (HBM2E)", "capstan", "hbm2e", allApps()},
        {"hbm2", "Capstan (HBM2)", "capstan", "hbm2", allApps()},
        {"ddr4", "Capstan (DDR4)", "capstan", "ddr4", allApps()},
        {"plasticine", "Plasticine (HBM2E)", "plasticine", "hbm2e",
         plasticine_apps},
    };
}

} // namespace

std::vector<DriverOptions>
planTable12(const StudyContext &ctx)
{
    // One spec per (row, app) whose dataset axis expands to the app's
    // Table 6 family, in row-major order.
    std::vector<DriverOptions> points;
    for (const auto &row : table12Rows()) {
        for (const auto &app : row.apps) {
            SweepSpec spec;
            spec.base = ctx.base(app, "");
            apply(spec.base, "config", row.config);
            apply(spec.base, "memtech", row.memtech);
            spec.set("dataset", datasetsFor(app));
            expandInto(points, spec);
        }
    }
    return points;
}

StudyResult
deriveTable12(const StudyContext &ctx, const Timings &t)
{
    using namespace capstan::baselines;

    // Per-app geometric-mean runtime (seconds) per configuration row.
    std::map<std::string, std::map<std::string, double>> secs;
    std::size_t next = 0;
    for (const auto &row : table12Rows()) {
        for (const auto &app : row.apps) {
            std::vector<double> times;
            for (std::size_t i = 0; i < datasetsFor(app).size(); ++i)
                times.push_back(seconds(t[next++]));
            secs[row.key][app] = gmean(times);
        }
    }

    // Baseline models (analytic profiles; no simulation).
    auto baselineSeconds = [&](const std::string &app, bool gpu) {
        std::vector<double> times;
        for (const auto &ds : datasetsFor(app)) {
            driver::Workload w = driver::workload(app, ds, ctx.knobs);
            KernelProfile p;
            if (w.layer) {
                // cuDNN runs the dense convolution; the CPU tensor
                // compiler emits a scalar sparse loop nest.
                p = gpu ? profileConv(*w.layer)
                        : profileConvSparseCpu(*w.layer);
            } else {
                const sparse::MatrixStore &m = w.matrix->matrix;
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

std::vector<DriverOptions>
planTable13(const StudyContext &ctx)
{
    // EIE's weights sit on-chip, so its Capstan run uses the ideal
    // network + memory design point; Graphicionado runs with DDR4.
    DriverOptions eie = ctx.base("CSC", "ckt11752_dc_1");
    apply(eie, "config", "ideal");
    DriverOptions graphicionado = ctx.base("PR-Pull", "flickr");
    apply(graphicionado, "memtech", "ddr4");
    return {eie, ctx.base("Conv", "ResNet-50 #2"), graphicionado,
            ctx.base("SpMSpM", "qc324")};
}

StudyResult
deriveTable13(const StudyContext &ctx, const Timings &t)
{
    using namespace capstan::baselines;
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
    auto matrix = [&](const std::string &app, const std::string &ds)
        -> const sparse::MatrixStore & {
        return driver::workload(app, ds, ctx.knobs).matrix->matrix;
    };

    // EIE: CSC SpMV compute throughput.
    addRow("eie", "EIE", "CSC",
           eieSeconds(matrix("CSC", "ckt11752_dc_1"), 0.30) /
               seconds(t[0]));

    // SCNN: convolution. SCNN's 1024-multiplier array dwarfs the
    // simulated tiles/200 chip slice, so its throughput is weak-scaled
    // by the same fraction.
    {
        const workloads::ConvLayer &layer =
            *driver::workload("Conv", "ResNet-50 #2", ctx.knobs).layer;
        double fraction = std::min(1.0, ctx.knobs.tiles / 200.0);
        addRow("scnn", "SCNN", "Conv",
               scnnSeconds(layer) / fraction / seconds(t[1]));
    }

    // Graphicionado: PR / BFS / SSSP with DDR4, no back pointers.
    // PageRank writes none, so its planned run serves; BFS and SSSP
    // turn them off through the dispatch's knobs.
    {
        const std::vector<std::pair<std::string, std::string>> rows = {
            {"PR-Pull", "graphicionado_pr"},
            {"BFS", "graphicionado_bfs"},
            {"SSSP", "graphicionado_sssp"}};
        for (const auto &[app, key] : rows) {
            std::string ds = "flickr";
            double cap = seconds(t[2]);
            if (app != "PR-Pull") {
                driver::RunKnobs knobs = ctx.knobs;
                knobs.write_pointers = false;
                cap = seconds(driver::runApp(
                    app, ds, CapstanConfig::capstan(MemTech::DDR4),
                    knobs));
            }
            int iterations = ctx.knobs.iterations;
            double passes = app == "PR-Pull" ? iterations : 6;
            double edges =
                static_cast<double>(matrix(app, ds).nnz()) *
                (app == "PR-Pull" ? iterations : 1.2);
            double graphi = graphicionadoSeconds(
                edges, static_cast<int>(passes));
            addRow(key, "Graphicionado",
                   app == "PR-Pull" ? "PR" : app, graphi / cap);
        }
    }

    // MatRaptor: SpMSpM at its highest demonstrated 10 GOP/s.
    {
        sparse::MatrixView mv(matrix("SpMSpM", "qc324"));
        double mults = 0;
        for (Index i = 0; i < mv.rows(); ++i) {
            for (Index j : mv.indices(i))
                mults += mv.length(j);
        }
        addRow("matraptor", "MatRaptor", "SpMSpM",
               matraptorSeconds(mults) / seconds(t[3]));
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

const std::vector<double> kFig5aBandwidths = {20,  50,   100, 200,
                                              500, 1000, 2000};
const std::vector<int> kFig5bTiles = {2, 4, 8, 16, 32};
const std::vector<double> kFig5cBandwidths = {20, 50, 100, 200, 500};

/**
 * Expand one axis per app on its sensitivity dataset. Points are
 * app-major: index app_i * values + value_j.
 */
void
appAxisInto(std::vector<DriverOptions> &points, const StudyContext &ctx,
            const std::string &axis,
            const std::vector<std::string> &values)
{
    for (const auto &app : allApps()) {
        SweepSpec spec;
        spec.base = ctx.base(app, sensitivityDataset(app));
        spec.set(axis, values);
        expandInto(points, spec);
    }
}

} // namespace

std::vector<DriverOptions>
planFig5(const StudyContext &ctx)
{
    // Subfigures (a), (b), (c) back to back. (c) crosses bandwidth
    // (outer) with compression (inner), so each bandwidth's
    // plain/compressed pair is adjacent; its plain points are (a)'s.
    std::vector<DriverOptions> points;
    appAxisInto(points, ctx, "bandwidth-gbps",
                toStrings(kFig5aBandwidths));
    appAxisInto(points, ctx, "tiles", toStrings(kFig5bTiles));
    for (const auto &app : allApps()) {
        SweepSpec spec;
        spec.base = ctx.base(app, sensitivityDataset(app));
        spec.set("bandwidth-gbps", toStrings(kFig5cBandwidths));
        spec.set("compression", {"false", "true"});
        expandInto(points, spec);
    }
    return points;
}

StudyResult
deriveFig5(const StudyContext &, const Timings &t)
{
    StudyResult result;
    std::size_t i = 0; // Next planned point; subfigures in plan order.

    // (a) Speedup vs DRAM bandwidth, normalized to 20 GB/s.
    {
        const auto &bandwidths = kFig5aBandwidths;
        StudyTable table;
        table.title = "Figure 5a: speedup vs DRAM bandwidth "
                      "(normalized to 20 GB/s)";
        table.headers = {"App"};
        for (double bw : bandwidths)
            table.headers.push_back(num(bw, 0) + "GB/s");
        for (const auto &app : allApps()) {
            double base = seconds(t[i]);
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < bandwidths.size(); ++j, ++i) {
                double v = base / seconds(t[i]);
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
        const auto &tile_counts = kFig5bTiles;
        StudyTable table;
        table.title = "Figure 5b: speedup vs weighted on-chip area "
                      "(outer-parallelization sweep)";
        table.headers = {"App"};
        for (int tiles : tile_counts) {
            double pct =
                100.0 * sim::weightedAreaFraction(tiles, tiles);
            table.headers.push_back(num(pct, 1) + "%");
        }
        for (const auto &app : allApps()) {
            double base = seconds(t[i]);
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < tile_counts.size();
                 ++j, ++i) {
                double v = base / seconds(t[i]);
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
    {
        const auto &bandwidths = kFig5cBandwidths;
        StudyTable table;
        table.title = "Figure 5c: speedup from pointer compression "
                      "vs bandwidth";
        table.headers = {"App"};
        for (double bw : bandwidths)
            table.headers.push_back(num(bw, 0) + "GB/s");
        for (const auto &app : allApps()) {
            std::vector<std::string> row = {app};
            for (std::size_t j = 0; j < bandwidths.size();
                 ++j, i += 2) {
                double plain = seconds(t[i]);
                double comp = seconds(t[i + 1]);
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

namespace {

struct Fig6SubFigure
{
    std::string key;   //!< Metric prefix ("a", "b", "c").
    std::string title;
    std::string axis;  //!< Driver option key swept.
    std::vector<int> values;
    std::vector<std::string> apps;
};

const std::vector<Fig6SubFigure> kFig6SubFigures = {
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

} // namespace

std::vector<DriverOptions>
planFig6(const StudyContext &ctx)
{
    // Subfigures back to back, app-major within each.
    std::vector<DriverOptions> points;
    for (const auto &sub : kFig6SubFigures) {
        for (const auto &app : sub.apps) {
            SweepSpec spec;
            spec.base = ctx.base(app, datasetsFor(app)[0]);
            spec.set(sub.axis, toStrings(sub.values));
            expandInto(points, spec);
        }
    }
    return points;
}

StudyResult
deriveFig6(const StudyContext &, const Timings &t)
{
    StudyResult result;
    std::size_t i = 0; // Next planned point.
    for (const auto &sub : kFig6SubFigures) {
        StudyTable table;
        table.title = sub.title;
        table.headers = {"App"};
        for (int v : sub.values)
            table.headers.push_back(std::to_string(v));
        for (const auto &app : sub.apps) {
            std::vector<double> times;
            for (std::size_t j = 0; j < sub.values.size(); ++j, ++i)
                times.push_back(seconds(t[i]));
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

std::vector<DriverOptions>
planFig7(const StudyContext &ctx)
{
    // Four layered configurations per (app, dataset), Section 4.4
    // "Stall Breakdown": ideal (ideal memory, conflict-free SpMU,
    // zero-latency network), + network (Capstan's hop latency),
    // + allocated SRAM (bank conflicts), + DRAM (HBM2E).
    std::vector<DriverOptions> points;
    for (const auto &app : allApps()) {
        if (app == "BiCGStab")
            continue; // Fig. 7 covers the ten Table 2 applications.
        for (const auto &ds : datasetsFor(app)) {
            DriverOptions ideal = ctx.base(app, ds);
            apply(ideal, "config", "ideal");
            DriverOptions with_net = ctx.base(app, ds);
            apply(with_net, "memtech", "ideal");
            apply(with_net, "spmu-ideal", "true");
            DriverOptions with_sram = ctx.base(app, ds);
            apply(with_sram, "memtech", "ideal");
            DriverOptions full = ctx.base(app, ds);
            apply(full, "memtech", "hbm2e");
            points.insert(points.end(),
                          {ideal, with_net, with_sram, full});
        }
    }
    return points;
}

StudyResult
deriveFig7(const StudyContext &ctx, const Timings &t)
{
    using sim::StallBreakdown;
    using sim::StallClass;

    StudyResult result;
    StudyTable table;
    table.headers = {"App", "Dataset"};
    for (int c = 0; c < sim::kStallClasses; ++c)
        table.headers.push_back(
            sim::stallClassName(static_cast<StallClass>(c)));

    const double lane_width =
        static_cast<double>(sim::kMaxLanes) * ctx.knobs.tiles;
    std::size_t i = 0; // Next (app, dataset)'s four planned points.
    for (const auto &app : allApps()) {
        if (app == "BiCGStab")
            continue;
        for (const auto &ds : datasetsFor(app)) {
            const auto &t_ideal = t[i];
            const auto &t_net = t[i + 1];
            const auto &t_sram = t[i + 2];
            const auto &t_full = t[i + 3];
            i += 4;

            StallBreakdown synth;
            const auto &tot = t_ideal.totals;
            synth[StallClass::Active] = tot.active_lane_cycles;
            synth[StallClass::Scan] = tot.scan_empty_cycles * sim::kMaxLanes;
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
