#include "report/reference.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace capstan::report {

using common::JsonValue;

Reference
Reference::fromJson(const JsonValue &doc)
{
    if (!doc.isObject() || !doc.contains("studies") ||
        !doc.at("studies").isObject())
        throw std::invalid_argument(
            "paper reference must be {\"studies\": {...}}");

    Reference ref;
    for (const auto &[study, body] : doc.at("studies").members()) {
        if (!body.isObject() || !body.contains("metrics") ||
            !body.at("metrics").isObject())
            throw std::invalid_argument(
                "reference study '" + study +
                "' must carry a \"metrics\" object");
        auto &metrics = ref.studies_[study];
        for (const auto &[key, entry] : body.at("metrics").members()) {
            if (!entry.isObject() || !entry.contains("paper") ||
                !entry.at("paper").isNumber())
                throw std::invalid_argument(
                    "reference metric '" + study + "/" + key +
                    "' must carry a numeric \"paper\" value");
            RefEntry e;
            e.paper = entry.at("paper").asNumber();
            if (entry.contains("rel")) {
                e.rel = entry.at("rel").asNumber();
                e.checked = true;
            }
            if (entry.contains("abs")) {
                e.abs = entry.at("abs").asNumber();
                e.checked = true;
            }
            if (e.rel < 0 || e.abs < 0)
                throw std::invalid_argument(
                    "reference metric '" + study + "/" + key +
                    "' has a negative tolerance");
            metrics[key] = e;
        }
    }
    return ref;
}

Reference
Reference::fromFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot open paper reference '" +
                                 path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return fromJson(JsonValue::parse(text.str()));
}

std::optional<double>
Reference::paper(const std::string &study,
                 const std::string &metric) const
{
    auto e = entry(study, metric);
    if (!e)
        return std::nullopt;
    return e->paper;
}

std::optional<RefEntry>
Reference::entry(const std::string &study,
                 const std::string &metric) const
{
    auto s = studies_.find(study);
    if (s == studies_.end())
        return std::nullopt;
    auto m = s->second.find(metric);
    if (m == s->second.end())
        return std::nullopt;
    return m->second;
}

StudyCheck
Reference::check(
    const std::string &study,
    const std::vector<std::pair<std::string, double>> &metrics) const
{
    StudyCheck result;
    auto s = studies_.find(study);
    if (s == studies_.end())
        return result;
    result.has_reference = true;

    for (const auto &[key, entry] : s->second) {
        if (!entry.checked)
            continue;
        ++result.checked;

        MetricCheck mc;
        mc.key = key;
        mc.paper = entry.paper;
        for (const auto &[mk, mv] : metrics) {
            if (mk == key) {
                mc.ours = mv;
                break;
            }
        }

        if (!mc.ours.has_value()) {
            mc.detail = "study emitted no such metric";
        } else if (!std::isfinite(*mc.ours)) {
            mc.detail = "non-finite value";
        } else {
            double slack =
                entry.abs + entry.rel * std::fabs(entry.paper);
            double err = std::fabs(*mc.ours - entry.paper);
            if (err <= slack) {
                mc.pass = true;
            } else {
                std::ostringstream why;
                why << "|" << *mc.ours << " - " << entry.paper
                    << "| = " << err << " > " << slack
                    << " (abs " << entry.abs << " + rel " << entry.rel
                    << ")";
                mc.detail = why.str();
            }
        }

        if (mc.pass)
            ++result.passed;
        else
            result.deviations.push_back(std::move(mc));
    }
    return result;
}

} // namespace capstan::report
