#include "driver/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/interrupt.hpp"
#include "workloads/io.hpp"

namespace capstan::driver {

namespace {

std::size_t
axisRank(const std::string &key)
{
    const auto &keys = optionKeys();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == key)
            return i;
    }
    throw std::invalid_argument("unknown sweep axis '" + key +
                                "' (see capstan-run --help)");
}

/** A double in its round-trip form: distinct values print apart. */
std::string
exactNumber(double v)
{
    return JsonValue(v).dump();
}

} // namespace

std::string
scalarToString(const JsonValue &v, const std::string &what)
{
    switch (v.kind()) {
    case JsonValue::Kind::String:
        return v.asString();
    case JsonValue::Kind::Number:
        return v.dump();
    case JsonValue::Kind::Bool:
        return v.asBool() ? "true" : "false";
    default:
        throw std::invalid_argument(
            what + " must be a string, number, or boolean");
    }
}

void
SweepSpec::set(const std::string &key, std::vector<std::string> values)
{
    std::size_t rank = axisRank(key); // Throws on unknown keys.
    if (values.empty())
        throw std::invalid_argument("sweep axis '" + key +
                                    "' has no values");
    for (auto &axis : axes) {
        if (axis.key == key) {
            axis.values = std::move(values);
            return;
        }
    }
    auto pos = std::find_if(axes.begin(), axes.end(),
                            [&](const SweepAxis &a) {
                                return axisRank(a.key) > rank;
                            });
    axes.insert(pos, SweepAxis{key, std::move(values)});
}

SweepSpec
SweepSpec::fromJson(const JsonValue &doc, const DriverOptions &base)
{
    if (!doc.isObject())
        throw std::invalid_argument(
            "sweep spec must be a JSON object of axis: values members");
    SweepSpec spec;
    spec.base = base;
    for (const auto &[key, value] : doc.members()) {
        const std::string what = "sweep axis '" + key + "' value";
        std::vector<std::string> values;
        if (value.isArray()) {
            for (const auto &item : value.items())
                values.push_back(scalarToString(item, what));
        } else {
            values.push_back(scalarToString(value, what));
        }
        spec.set(key, std::move(values));
    }
    return spec;
}

JsonValue
SweepSpec::toJson() const
{
    JsonValue doc = JsonValue::object();
    for (const auto &axis : axes) {
        JsonValue values = JsonValue::array();
        for (const auto &v : axis.values)
            values.push(v);
        doc.set(axis.key, std::move(values));
    }
    return doc;
}

SweepSpec
specFromOptions(const DriverOptions &opts, const JsonValue *spec_doc)
{
    SweepSpec spec;
    if (spec_doc) {
        spec = SweepSpec::fromJson(*spec_doc, opts);
    } else {
        spec.base = opts;
    }
    for (const auto &[key, csv] : opts.sweep_axes) {
        std::vector<std::string> values;
        std::istringstream in(csv);
        std::string item;
        while (std::getline(in, item, ','))
            values.push_back(item);
        spec.set(key, std::move(values));
    }
    return spec;
}

std::vector<DriverOptions>
expandSweep(const SweepSpec &spec)
{
    for (const auto &axis : spec.axes) {
        axisRank(axis.key);
        if (axis.values.empty())
            throw std::invalid_argument("sweep axis '" + axis.key +
                                        "' has no values");
    }

    // Points that spell one simulation differently (an aliased app
    // name, a knob the design point already sets) run once.
    std::vector<DriverOptions> points;
    std::set<SimulationKey> seen;
    std::vector<std::size_t> cursor(spec.axes.size(), 0);
    while (true) {
        DriverOptions point = spec.base;
        for (std::size_t i = 0; i < spec.axes.size(); ++i) {
            const SweepAxis &axis = spec.axes[i];
            std::string err = applyOption(point, axis.key,
                                          axis.values[cursor[i]]);
            if (!err.empty())
                throw std::invalid_argument("sweep axis '" + axis.key +
                                            "': " + err);
        }
        if (seen.insert(simulationKey(point)).second)
            points.push_back(std::move(point));

        // Odometer increment, last axis fastest.
        std::size_t i = spec.axes.size();
        while (i > 0) {
            --i;
            if (++cursor[i] < spec.axes[i].values.size())
                break;
            cursor[i] = 0;
            if (i == 0)
                return points;
        }
        if (spec.axes.empty())
            return points;
    }
}

int
resolveJobs(int jobs)
{
    if (jobs > 0)
        return jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? static_cast<int>(hw) : 1;
}

std::vector<SweepPointResult>
runSweep(const std::vector<DriverOptions> &points, int jobs,
         const SweepProgress &progress)
{
    std::vector<SweepPointResult> results(points.size());
    if (points.empty())
        return results;
    const std::size_t workers = std::min(
        static_cast<std::size_t>(resolveJobs(jobs)), points.size());
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;
    // Which points a worker claimed; per-index slots, written before
    // the point runs so an unclaimed index is exactly a skipped point.
    std::vector<unsigned char> claimed(points.size(), 0);
    // What escaped each worker (a throwing progress callback); rethrown
    // once every worker is joined.
    std::vector<std::exception_ptr> failures(workers);

    // The claim loop every worker runs. Cooperative cancellation:
    // finish the in-flight point, never claim another once the armed
    // token fires. All writes are per-index (claimed[i], results[i])
    // or per-worker (failures[w]).
    auto work = [&](std::size_t w) {
        try {
            while (!common::cancelRequested()) {
                std::size_t i = next.fetch_add(1);
                if (i >= points.size())
                    return;
                claimed[i] = 1;
                SweepPointResult &r = results[i];
                r.options = points[i];
                try {
                    r.result = runDriver(points[i]);
                    r.ok = true;
                } catch (const workloads::DatasetError &e) {
                    r.error = e.what();
                    r.usage_error = true;
                } catch (const std::exception &e) {
                    r.error = e.what();
                }
                std::size_t finished = done.fetch_add(1) + 1;
                if (progress) {
                    std::lock_guard<std::mutex> lock(progress_mutex);
                    progress(finished, points.size(), r);
                }
            }
        } catch (...) {
            failures[w] = std::current_exception();
        }
    };

    // The calling thread is worker 0. A helper that cannot start
    // (thread limit, address-space cap) is simply not there.
    std::vector<std::thread> helpers;
    for (std::size_t w = 1; w < workers; ++w) {
        try {
            helpers.emplace_back(work, w);
        } catch (const std::exception &) {
            break;
        }
    }
    work(0);
    for (std::thread &helper : helpers)
        helper.join();
    for (const std::exception_ptr &failure : failures) {
        if (failure)
            std::rethrow_exception(failure);
    }

    for (std::size_t i = 0; i < points.size(); ++i) {
        if (claimed[i])
            continue;
        results[i].options = points[i];
        results[i].skipped = true;
        results[i].error = "interrupted: point not run";
    }
    return results;
}

namespace {

/** Identity of a failed point, for the report's error entries. */
JsonValue
pointToJson(const DriverOptions &o)
{
    JsonValue doc = JsonValue::object();
    doc.set("app", canonicalApp(o.app).value_or(o.app));
    doc.set("dataset", o.dataset);
    doc.set("config", configPointName(o.config));
    doc.set("memtech", sim::memTechName(o.memtech));
    doc.set("scale", o.scale);
    doc.set("tiles", o.tiles);
    doc.set("iterations", o.iterations);
    return doc;
}

} // namespace

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string quoted = "\"";
    for (char c : s) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

JsonValue
sweepReportToJson(const SweepSpec &spec,
                  const std::vector<SweepPointResult> &results)
{
    std::size_t failed = 0, skipped = 0;
    for (const auto &r : results) {
        failed += r.ok ? 0 : 1;
        skipped += r.skipped ? 1 : 0;
    }

    JsonValue meta = JsonValue::object();
    meta.set("points", static_cast<std::int64_t>(results.size()));
    meta.set("failed", static_cast<std::int64_t>(failed));
    // Only interrupted (cancelled) sweeps carry the marker, so
    // completed reports stay byte-identical with earlier versions.
    if (skipped > 0)
        meta.set("interrupted", true);
    meta.set("axes", spec.toJson());

    JsonValue items = JsonValue::array();
    for (const auto &r : results) {
        if (r.ok) {
            items.push(statsToJson(r.result));
        } else {
            JsonValue entry = JsonValue::object();
            entry.set("point", pointToJson(r.options));
            entry.set("error", r.error);
            if (r.skipped)
                entry.set("skipped", true);
            items.push(std::move(entry));
        }
    }

    JsonValue doc = JsonValue::object();
    doc.set("sweep", std::move(meta));
    doc.set("results", std::move(items));
    return doc;
}

std::string
sweepReportToCsv(const std::vector<SweepPointResult> &results)
{
    std::ostringstream out;
    out << "app,dataset,scale,rows,cols,nnz,config,memtech,ordering,"
           "merge,hash,allocator,queue_depth,bandwidth_gbps,"
           "compression,spmu_ideal,scan_bits,scan_outputs,"
           "scan_data_elems,tiles,iterations,cycles,runtime_ms,"
           "occupancy,dram_bytes,dram_row_hit_rate,"
           "spmu_bank_utilization,error\n";
    for (const auto &r : results) {
        if (!r.ok) {
            const DriverOptions &o = r.options;
            out << csvField(canonicalApp(o.app).value_or(o.app)) << ','
                << csvField(o.dataset) << ',' << exactNumber(o.scale)
                << ",,,," << configPointName(o.config) << ','
                << sim::memTechName(o.memtech) << ",,,,,,,,,,,,"
                << o.tiles << ',' << o.iterations << ",,,,,,,"
                << csvField(r.error) << '\n';
            continue;
        }
        const RunResult &res = r.result;
        const lang::RunTotals &t = res.timing.totals;
        double counted =
            t.active_lane_cycles + t.vector_idle_lane_cycles;
        double bandwidth =
            res.config.dram.bandwidth_override_gbps > 0
                ? res.config.dram.bandwidth_override_gbps
                : sim::memTechBandwidth(res.config.dram.tech);
        out << csvField(res.app) << ',' << csvField(res.dataset) << ','
            << exactNumber(res.scale) << ','
            << res.info.rows << ',' << res.info.cols << ','
            << res.info.nnz << ',' << res.config_name << ','
            << sim::memTechName(res.config.dram.tech) << ','
            << csvField(sim::orderingName(res.config.spmu.ordering))
            << ','
            << csvField(sim::mergeModeName(res.config.merge))
            << ',' << sim::bankHashName(res.config.spmu.hash) << ','
            << sim::allocatorKindName(res.config.spmu.allocator) << ','
            << res.config.spmu.queue_depth << ','
            << exactNumber(bandwidth) << ','
            << (res.config.dram.compression ? "true" : "false") << ','
            << (res.config.spmu.ideal ? "true" : "false") << ','
            << res.config.scanner.window_bits << ','
            << res.config.scanner.outputs << ','
            << res.config.scanner.data_elements << ','
            << res.tiles << ',' << res.iterations << ','
            << res.timing.cycles << ','
            << exactNumber(res.timing.runtime_ms) << ','
            << exactNumber(counted > 0 ? t.active_lane_cycles / counted
                                       : 0.0)
            << ',' << res.timing.dram.bytes << ','
            << exactNumber(res.timing.dram.rowHitRate()) << ','
            << exactNumber(res.timing.spmu.bankUtilization())
            << ",\n";
    }
    return out.str();
}

} // namespace capstan::driver
