#include "report/render.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace capstan::report {

using common::JsonValue;

std::string
num(std::optional<double> v, int precision)
{
    if (!v.has_value())
        return "-";
    if (!std::isfinite(*v))
        return "-"; // A nan/inf cell reads as "not computed".
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", precision, *v);
    return buf;
}

std::string
oursPaper(double ours, std::optional<double> paper, int precision)
{
    std::string cell = num(ours, precision);
    if (paper)
        cell += " / " + num(*paper, precision);
    return cell;
}

namespace {

std::string
mdEscape(const std::string &cell)
{
    std::string out;
    for (char c : cell) {
        if (c == '|')
            out += "\\|";
        else
            out += c;
    }
    return out;
}

void
markdownTable(std::ostringstream &out, const StudyTable &table)
{
    if (!table.title.empty())
        out << "**" << table.title << "**\n\n";
    out << "|";
    for (const auto &h : table.headers)
        out << " " << mdEscape(h) << " |";
    out << "\n|";
    for (std::size_t c = 0; c < table.headers.size(); ++c)
        out << "---|";
    out << "\n";
    for (const auto &row : table.rows) {
        out << "|";
        for (std::size_t c = 0; c < table.headers.size(); ++c)
            out << " " << mdEscape(c < row.size() ? row[c] : "")
                << " |";
        out << "\n";
    }
    out << "\n";
}

using driver::csvField;

std::string
verdictBadge(const std::string &verdict)
{
    if (verdict == "pass")
        return "PASS";
    if (verdict == "deviation")
        return "DEVIATION";
    if (verdict == "error")
        return "ERROR";
    if (verdict == "interrupted")
        return "INTERRUPTED";
    return "UNCHECKED";
}

} // namespace

std::string
renderMarkdown(const std::vector<StudyRun> &runs,
               const ReportMeta &meta)
{
    std::ostringstream out;
    out << "# Capstan paper-reproduction results\n\n";
    out << "Generated by `capstan-report` (preset `" << meta.preset
        << "`: scale " << num(meta.knobs.scale, 2) << ", "
        << meta.knobs.tiles << " tiles, " << meta.knobs.iterations
        << " iterations";
    if (!meta.knobs.dataset_dir.empty())
        out << ", real datasets from `" << meta.knobs.dataset_dir
            << "`";
    out << "). Regenerate with:\n\n"
        << "```sh\n"
        << "./build/capstan-report --all --preset " << meta.preset
        << (meta.knobs.dataset_dir.empty()
                ? std::string()
                : " --dataset-dir '" + meta.knobs.dataset_dir + "'")
        << (meta.checked ? " --check" : "") << "\n"
        << "```\n\n";
    out << "Cells read `ours / paper` where the paper publishes the "
           "value. Verdicts compare against `data/paper_reference.json`"
           " at the per-metric tolerances documented in "
           "`docs/REPRODUCTION.md`; figures the paper publishes only "
           "as plots are `UNCHECKED`.\n\n";

    out << "## Summary\n\n";
    out << "| Study | Artifact | Verdict | Checked | Passed |\n";
    out << "|---|---|---|---|---|\n";
    for (const auto &run : runs) {
        out << "| [" << run.study->name << "](#" << run.study->name
            << ") | " << run.study->artifact << " | "
            << verdictBadge(run.verdict()) << " | " << run.check.checked
            << " | " << run.check.passed << " |\n";
    }
    out << "\n";

    for (const auto &run : runs) {
        out << "## <a name=\"" << run.study->name << "\"></a>"
            << run.study->name << " — " << run.study->artifact << ": "
            << run.study->title << "\n\n";
        out << "Verdict: **" << verdictBadge(run.verdict()) << "**";
        if (run.check.checked > 0)
            out << " (" << run.check.passed << "/" << run.check.checked
                << " checked metrics within tolerance)";
        out << "\n\n";
        if (!run.ok) {
            out << "Failed to run: `" << run.error << "`\n\n";
            continue;
        }
        for (const auto &table : run.result.tables)
            markdownTable(out, table);
        if (!run.result.notes.empty()) {
            if (run.result.preformatted_notes)
                out << "```\n" << run.result.notes
                    << (run.result.notes.back() == '\n' ? "" : "\n")
                    << "```\n\n";
            else
                out << run.result.notes << "\n\n";
        }
        if (!run.check.deviations.empty()) {
            out << "Deviations:\n\n";
            for (const auto &d : run.check.deviations) {
                out << "- `" << d.key << "`: ours "
                    << (d.ours ? num(*d.ours, 4) : "(missing)")
                    << ", paper " << num(d.paper, 4) << " — "
                    << d.detail << "\n";
            }
            out << "\n";
        }
    }
    return out.str();
}

std::string
renderCsv(const std::vector<StudyRun> &runs,
          const Reference *reference)
{
    std::ostringstream out;
    out << "study,metric,value,paper,rel_tol,abs_tol,verdict\n";
    for (const auto &run : runs) {
        if (!run.ok)
            continue;
        for (const auto &[key, value] : run.result.metrics) {
            std::optional<RefEntry> e;
            if (reference)
                e = reference->entry(run.study->name, key);
            out << csvField(run.study->name) << ',' << csvField(key)
                << ',' << JsonValue(value).dump() << ',';
            if (e)
                out << JsonValue(e->paper).dump();
            out << ',';
            if (e && e->checked)
                out << JsonValue(e->rel).dump();
            out << ',';
            if (e && e->checked)
                out << JsonValue(e->abs).dump();
            out << ',';
            if (e && e->checked) {
                bool failed = false;
                for (const auto &d : run.check.deviations)
                    failed |= d.key == key;
                out << (failed ? "deviation" : "pass");
            } else {
                out << "unchecked";
            }
            out << '\n';
        }
    }
    return out.str();
}

common::JsonValue
reportToJson(const std::vector<StudyRun> &runs,
             const ReportMeta &meta)
{
    JsonValue header = JsonValue::object();
    header.set("preset", meta.preset);
    header.set("scale", meta.knobs.scale);
    header.set("tiles", meta.knobs.tiles);
    header.set("iterations", meta.knobs.iterations);
    std::size_t deviations = 0, errors = 0;
    for (const auto &run : runs) {
        deviations += run.check.deviations.size();
        errors += run.ok ? 0 : 1;
    }
    header.set("studies", static_cast<std::int64_t>(runs.size()));
    header.set("deviations", static_cast<std::int64_t>(deviations));
    header.set("errors", static_cast<std::int64_t>(errors));
    // Only interrupted reports carry the marker (SIGINT/SIGTERM or a
    // service-side cancel), keeping completed reports byte-identical.
    bool interrupted = false;
    for (const auto &run : runs)
        interrupted |= run.interrupted;
    if (interrupted)
        header.set("interrupted", true);

    JsonValue items = JsonValue::array();
    for (const auto &run : runs) {
        JsonValue s = JsonValue::object();
        s.set("name", run.study->name);
        s.set("artifact", run.study->artifact);
        s.set("title", run.study->title);
        s.set("verdict", run.verdict());
        if (!run.ok) {
            s.set("error", run.error);
            items.push(std::move(s));
            continue;
        }

        JsonValue tables = JsonValue::array();
        for (const auto &table : run.result.tables) {
            JsonValue t = JsonValue::object();
            t.set("title", table.title);
            JsonValue headers = JsonValue::array();
            for (const auto &h : table.headers)
                headers.push(h);
            t.set("headers", std::move(headers));
            JsonValue rows = JsonValue::array();
            for (const auto &row : table.rows) {
                JsonValue r = JsonValue::array();
                for (const auto &cell : row)
                    r.push(cell);
                rows.push(std::move(r));
            }
            t.set("rows", std::move(rows));
            tables.push(std::move(t));
        }
        s.set("tables", std::move(tables));

        JsonValue metrics = JsonValue::object();
        for (const auto &[key, value] : run.result.metrics)
            metrics.set(key, value);
        s.set("metrics", std::move(metrics));

        JsonValue check = JsonValue::object();
        check.set("has_reference", run.check.has_reference);
        check.set("checked",
                  static_cast<std::int64_t>(run.check.checked));
        check.set("passed",
                  static_cast<std::int64_t>(run.check.passed));
        JsonValue devs = JsonValue::array();
        for (const auto &d : run.check.deviations) {
            JsonValue dev = JsonValue::object();
            dev.set("metric", d.key);
            dev.set("paper", d.paper);
            if (d.ours)
                dev.set("ours", *d.ours);
            dev.set("detail", d.detail);
            devs.push(std::move(dev));
        }
        check.set("deviations", std::move(devs));
        s.set("check", std::move(check));

        if (!run.result.notes.empty())
            s.set("notes", run.result.notes);
        items.push(std::move(s));
    }

    JsonValue doc = JsonValue::object();
    doc.set("report", std::move(header));
    doc.set("results", std::move(items));
    return doc;
}

} // namespace capstan::report
