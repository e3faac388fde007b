/**
 * @file
 * Checked-in paper-reference values and the tolerance comparator
 * behind `capstan-report --check`.
 *
 * `data/paper_reference.json` records, per study, the values the paper
 * publishes for each metric the study emits, keyed exactly like
 * StudyResult::metrics. An entry carrying a tolerance ("rel" and/or
 * "abs") is *checked*: the study deviates if
 * |ours - paper| > abs + rel * |paper| for any checked metric, or if a
 * checked metric is missing or non-finite. An entry with no tolerance
 * is *display-only*: studies use it to print "ours / paper" cells, but
 * it can never fail a check (figures the paper publishes only as plots
 * have no checkable numbers; scale-sensitive comparisons are checked
 * at the tolerances docs/REPRODUCTION.md documents for the quick
 * preset).
 */

#pragma once

#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hpp"

namespace capstan::report {

/** One reference entry: the paper's value, optionally checked. */
struct RefEntry
{
    double paper = 0.0;
    double rel = 0.0;   //!< Relative tolerance (fraction of |paper|).
    double abs = 0.0;   //!< Absolute tolerance slack.
    bool checked = false; //!< True when the entry carries a tolerance.
};

/** Verdict for one checked metric. */
struct MetricCheck
{
    std::string key;
    double paper = 0.0;
    std::optional<double> ours; //!< Absent when the study omitted it.
    bool pass = false;
    std::string detail;         //!< Why it failed, when it failed.
};

/** Verdict for one study. */
struct StudyCheck
{
    bool has_reference = false; //!< Study appears in the reference.
    std::size_t checked = 0;    //!< Entries carrying a tolerance.
    std::size_t passed = 0;
    std::vector<MetricCheck> deviations;

    bool pass() const { return deviations.empty(); }
};

/** The parsed reference document. */
class Reference
{
  public:
    Reference() = default;

    /**
     * Parse {"studies": {name: {"metrics": {key: {"paper": v,
     * "rel": r, "abs": a}}}}}. Unknown shapes throw
     * std::invalid_argument.
     */
    static Reference fromJson(const common::JsonValue &doc);

    /** Read and parse a file; throws std::runtime_error on I/O. */
    static Reference fromFile(const std::string &path);

    /** The paper's value for display ("ours / paper" cells). */
    std::optional<double> paper(const std::string &study,
                                const std::string &metric) const;

    /** The whole entry (paper value + tolerance), when present. */
    std::optional<RefEntry> entry(const std::string &study,
                                  const std::string &metric) const;

    /**
     * Check a study's metrics against every *checked* reference entry
     * for it. Metrics without reference entries are ignored; checked
     * entries with no matching metric, non-finite values, or values
     * outside abs + rel * |paper| become deviations.
     */
    StudyCheck check(
        const std::string &study,
        const std::vector<std::pair<std::string, double>> &metrics)
        const;

  private:
    std::map<std::string, std::map<std::string, RefEntry>> studies_;
};

} // namespace capstan::report

