/**
 * @file
 * Renderers for study results: plain text (the bench shims), Markdown
 * (docs/RESULTS.md), CSV (metric rows), and JSON (report.json). All
 * four are deterministic — fixed-precision cells, no wall-clock, no
 * host identity — so rendered reports are byte-identical across runs
 * and machines (micro_components included: its metrics are modeled
 * throughputs, not host timings).
 */

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "report/study.hpp"

namespace capstan::report {

/** Fixed-precision number, or "-" when absent. */
std::string num(std::optional<double> v, int precision = 2);

/** "ours / paper" cell; just "ours" when the paper has no value. */
std::string oursPaper(double ours, std::optional<double> paper,
                      int precision = 2);

/** Report-wide identity rendered into every format. */
struct ReportMeta
{
    std::string preset; //!< "quick", "full", or "custom".
    driver::RunKnobs knobs;
    bool checked = false; //!< --check was requested.
};

/** Fixed-width text tables + notes, as the bench binaries print. */
std::string renderText(const StudyResult &result);

/** The full docs/RESULTS.md document. */
std::string renderMarkdown(const std::vector<StudyRun> &runs,
                           const ReportMeta &meta);

/**
 * One metric per row:
 * study,metric,value,paper,rel_tol,abs_tol,verdict.
 */
std::string renderCsv(const std::vector<StudyRun> &runs,
                      const Reference *reference);

/** The machine-readable report (docs/OUTPUT_SCHEMA.md). */
common::JsonValue reportToJson(const std::vector<StudyRun> &runs,
                               const ReportMeta &meta);

} // namespace capstan::report

