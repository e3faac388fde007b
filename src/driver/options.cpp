#include "driver/options.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "workloads/datasets.hpp"

namespace capstan::driver {

namespace {

std::string
lower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

} // namespace

const std::vector<std::string> &
appNames()
{
    static const std::vector<std::string> names = {
        "spmv",     "spmv-coo", "spmv-csc", "conv",
        "pagerank", "pagerank-edge", "bfs", "sssp",
        "matadd",   "spmspm",   "bicgstab"};
    return names;
}

std::optional<std::string>
canonicalApp(const std::string &name)
{
    std::string n = lower(name);
    if (n == "spmv" || n == "spmv-csr" || n == "csr")
        return "CSR";
    if (n == "spmv-coo" || n == "coo")
        return "COO";
    if (n == "spmv-csc" || n == "csc")
        return "CSC";
    if (n == "conv")
        return "Conv";
    if (n == "pagerank" || n == "pagerank-pull" || n == "pr-pull")
        return "PR-Pull";
    if (n == "pagerank-edge" || n == "pr-edge")
        return "PR-Edge";
    if (n == "graph" || n == "bfs")
        return "BFS";
    if (n == "sssp")
        return "SSSP";
    if (n == "matadd" || n == "m+m")
        return "M+M";
    if (n == "spmspm")
        return "SpMSpM";
    if (n == "bicgstab")
        return "BiCGStab";
    return std::nullopt;
}

std::string
defaultDataset(const std::string &canonical_app)
{
    if (canonical_app == "Conv")
        return workloads::convDatasetNames().front();
    if (canonical_app == "PR-Pull" || canonical_app == "PR-Edge" ||
        canonical_app == "BFS" || canonical_app == "SSSP")
        return workloads::graphDatasetNames().front();
    if (canonical_app == "SpMSpM")
        return workloads::spmspmDatasetNames().front();
    return workloads::linearAlgebraDatasetNames().front();
}

namespace {

bool
parseMemTech(const std::string &v, sim::MemTech &out)
{
    std::string n = lower(v);
    if (n == "ddr4")
        out = sim::MemTech::DDR4;
    else if (n == "hbm2")
        out = sim::MemTech::HBM2;
    else if (n == "hbm2e")
        out = sim::MemTech::HBM2E;
    else if (n == "ideal")
        out = sim::MemTech::Ideal;
    else
        return false;
    return true;
}

/**
 * The spellings of one enum option's values, for both directions:
 * parsing accepts any of them (case-insensitively), and the first
 * entry for a value is its token (optionToken()).
 */
template <typename E> struct Spelling
{
    const char *token;
    E value;
};

constexpr Spelling<sim::Ordering> kOrderings[] = {
    {"unordered", sim::Ordering::Unordered},
    {"address", sim::Ordering::AddressOrdered},
    {"fully", sim::Ordering::FullyOrdered},
    {"arbitrated", sim::Ordering::Arbitrated},
    {"address-ordered", sim::Ordering::AddressOrdered},
    {"fully-ordered", sim::Ordering::FullyOrdered},
};

constexpr Spelling<sim::MergeMode> kMerges[] = {
    {"none", sim::MergeMode::None},
    {"mrg0", sim::MergeMode::Mrg0},
    {"mrg1", sim::MergeMode::Mrg1},
    {"mrg16", sim::MergeMode::Mrg16},
};

constexpr Spelling<sim::BankHash> kHashes[] = {
    {"linear", sim::BankHash::Linear},
    {"xor", sim::BankHash::Xor},
};

constexpr Spelling<sim::AllocatorKind> kAllocators[] = {
    {"full", sim::AllocatorKind::Full},
    {"weak", sim::AllocatorKind::Weak},
};

template <typename E, std::size_t N>
bool
parseSpelling(const Spelling<E> (&table)[N], const std::string &v, E &out)
{
    std::string n = lower(v);
    for (const Spelling<E> &s : table) {
        if (n == s.token) {
            out = s.value;
            return true;
        }
    }
    return false;
}

template <typename E, std::size_t N>
const char *
tokenOf(const Spelling<E> (&table)[N], E value)
{
    for (const Spelling<E> &s : table) {
        if (s.value == value)
            return s.token;
    }
    return table[0].token;
}

bool
parseBool(const std::string &v, bool &out)
{
    std::string n = lower(v);
    if (n == "true" || n == "on" || n == "1" || n == "yes")
        out = true;
    else if (n == "false" || n == "off" || n == "0" || n == "no")
        out = false;
    else
        return false;
    return true;
}

} // namespace

bool
parseNumber(const std::string &v, double &out)
{
    char *end = nullptr;
    out = std::strtod(v.c_str(), &end);
    return end == v.c_str() + v.size() && !v.empty() &&
           std::isfinite(out);
}

bool
parseInt(const std::string &v, int &out)
{
    double d = 0;
    if (!parseNumber(v, d) ||
        d < static_cast<double>(std::numeric_limits<int>::min()) ||
        d > static_cast<double>(std::numeric_limits<int>::max()) ||
        d != std::trunc(d))
        return false;
    out = static_cast<int>(d);
    return true;
}

bool
parseJobs(const std::string &v, int &out)
{
    int jobs = 0;
    if (!parseInt(v, jobs) || jobs < 0 || jobs > kMaxJobs)
        return false;
    out = jobs;
    return true;
}

bool
parseTiles(const std::string &v, int &out)
{
    int tiles = 0;
    if (!parseInt(v, tiles) || tiles < 1 || tiles > sim::kMaxTiles)
        return false;
    out = tiles;
    return true;
}

const char *
optionToken(sim::Ordering mode)
{
    return tokenOf(kOrderings, mode);
}

const char *
optionToken(sim::MergeMode mode)
{
    return tokenOf(kMerges, mode);
}

const char *
optionToken(sim::BankHash hash)
{
    return tokenOf(kHashes, hash);
}

const char *
optionToken(sim::AllocatorKind kind)
{
    return tokenOf(kAllocators, kind);
}

const std::vector<std::string> &
optionKeys()
{
    static const std::vector<std::string> keys = {
        "app",       "dataset",   "scale",          "tiles",
        "iterations", "config",   "memtech",        "ordering",
        "merge",     "hash",      "allocator",      "queue-depth",
        "bandwidth-gbps", "compression", "spmu-ideal",
        "scan-bits", "scan-outputs", "scan-data-elems"};
    return keys;
}

std::string
applyOption(DriverOptions &o, const std::string &key,
            const std::string &v)
{
    if (key == "app") {
        if (!canonicalApp(v))
            return "unknown app '" + v + "'";
        o.app = v;
    } else if (key == "dataset") {
        o.dataset = v;
    } else if (key == "scale") {
        if (!parseNumber(v, o.scale) || o.scale <= 0)
            return "scale requires a positive number";
    } else if (key == "tiles") {
        if (!parseTiles(v, o.tiles))
            return "tiles requires an integer from 1 to " +
                   std::to_string(sim::kMaxTiles);
    } else if (key == "iterations") {
        if (!parseInt(v, o.iterations) || o.iterations < 1)
            return "iterations requires a positive integer";
    } else if (key == "config") {
        std::string n = lower(v);
        if (n == "capstan")
            o.config = ConfigPoint::Capstan;
        else if (n == "plasticine")
            o.config = ConfigPoint::Plasticine;
        else if (n == "ideal")
            o.config = ConfigPoint::Ideal;
        else
            return "unknown config '" + v +
                   "' (capstan|plasticine|ideal)";
    } else if (key == "memtech") {
        if (!parseMemTech(v, o.memtech))
            return "memtech requires ddr4|hbm2|hbm2e|ideal";
    } else if (key == "ordering") {
        sim::Ordering ord;
        if (!parseSpelling(kOrderings, v, ord))
            return "ordering requires unordered|address|fully|"
                   "arbitrated";
        o.ordering = ord;
    } else if (key == "merge") {
        sim::MergeMode m;
        if (!parseSpelling(kMerges, v, m))
            return "merge requires none|mrg0|mrg1|mrg16";
        o.merge = m;
    } else if (key == "hash") {
        sim::BankHash h;
        if (!parseSpelling(kHashes, v, h))
            return "hash requires linear|xor";
        o.hash = h;
    } else if (key == "allocator") {
        sim::AllocatorKind a;
        if (!parseSpelling(kAllocators, v, a))
            return "allocator requires full|weak";
        o.allocator = a;
    } else if (key == "queue-depth") {
        int d;
        if (!parseInt(v, d) || d < 1 || d > sim::kMaxQueueDepth)
            return "queue-depth requires an integer from 1 to " +
                   std::to_string(sim::kMaxQueueDepth);
        o.queue_depth = d;
    } else if (key == "bandwidth-gbps") {
        double b;
        if (!parseNumber(v, b) || b <= 0)
            return "bandwidth-gbps requires a positive number";
        o.bandwidth_gbps = b;
    } else if (key == "compression") {
        bool c;
        if (!parseBool(v, c))
            return "compression requires true|false";
        o.compression = c;
    } else if (key == "spmu-ideal") {
        bool s;
        if (!parseBool(v, s))
            return "spmu-ideal requires true|false";
        o.spmu_ideal = s;
    } else if (key == "scan-bits") {
        int b;
        if (!parseInt(v, b) || b < 1)
            return "scan-bits requires a positive integer";
        o.scan_bits = b;
    } else if (key == "scan-outputs") {
        int n;
        if (!parseInt(v, n) || n < 1)
            return "scan-outputs requires a positive integer";
        o.scan_outputs = n;
    } else if (key == "scan-data-elems") {
        int n;
        if (!parseInt(v, n) || n < 1)
            return "scan-data-elems requires a positive integer";
        o.scan_data_elems = n;
    } else {
        return "unknown option '" + key + "'";
    }
    return "";
}

ParseResult
parseArgs(const std::vector<std::string> &args)
{
    ParseResult r;
    DriverOptions &o = r.options;

    auto fail = [&](const std::string &why) -> ParseResult & {
        r.error = why;
        return r;
    };

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto value = [&](std::string &out) {
            if (i + 1 >= args.size())
                return false;
            out = args[++i];
            return true;
        };
        std::string v;
        if (a == "--help" || a == "-h") {
            r.show_help = true;
        } else if (a == "--list") {
            r.show_list = true;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--compact") {
            o.json = true; // --compact is a JSON formatting choice.
            o.json_indent = 0;
        } else if (a == "--compression") {
            o.compression = true;
        } else if (a == "--spmu-ideal") {
            o.spmu_ideal = true;
        } else if (a == "--dry-run") {
            o.dry_run = true;
        } else if (a == "--dataset-dir") {
            if (!value(v))
                return fail("--dataset-dir requires a directory");
            o.dataset_dir = v;
        } else if (a == "--output") {
            if (!value(v))
                return fail("--output requires a path");
            o.output = v;
        } else if (a == "--sweep") {
            if (!value(v))
                return fail("--sweep requires a spec path");
            o.sweep_file = v;
        } else if (a == "--axis") {
            if (!value(v))
                return fail("--axis requires KEY=V1,V2,...");
            std::size_t eq = v.find('=');
            if (eq == std::string::npos || eq == 0 ||
                eq + 1 >= v.size())
                return fail("--axis requires KEY=V1,V2,...");
            o.sweep_axes.emplace_back(v.substr(0, eq),
                                      v.substr(eq + 1));
        } else if (a == "--jobs") {
            if (!value(v) || !parseJobs(v, o.jobs))
                return fail("--jobs requires an integer in [0, 4096]");
        } else if (a == "--csv") {
            if (!value(v))
                return fail("--csv requires a path");
            o.csv_output = v;
        } else if (a.starts_with("--")) {
            std::string key = a.substr(2);
            bool known = false;
            for (const auto &k : optionKeys())
                known |= (k == key);
            if (!known)
                return fail("unknown flag '" + a + "' (see --help)");
            if (!value(v))
                return fail(a + " requires a value");
            std::string err = applyOption(o, key, v);
            if (!err.empty())
                return fail(err);
        } else {
            return fail("unknown flag '" + a + "' (see --help)");
        }
    }

    // Single runs resolve the app's default dataset eagerly, for
    // display; sweeps keep it empty so each swept app gets its own
    // default at expansion time.
    if (o.dataset.empty() && !o.sweepRequested())
        o.dataset = defaultDataset(*canonicalApp(o.app));
    return r;
}

sim::CapstanConfig
buildConfig(const DriverOptions &o)
{
    sim::CapstanConfig cfg;
    switch (o.config) {
    case ConfigPoint::Capstan:
        cfg = sim::CapstanConfig::capstan(o.memtech);
        break;
    case ConfigPoint::Plasticine:
        cfg = sim::CapstanConfig::plasticine(o.memtech);
        break;
    case ConfigPoint::Ideal:
        cfg = sim::CapstanConfig::ideal();
        break;
    }
    if (o.ordering)
        cfg.spmu.ordering = *o.ordering;
    if (o.merge)
        cfg.merge = *o.merge;
    if (o.hash)
        cfg.spmu.hash = *o.hash;
    if (o.allocator)
        cfg.spmu.allocator = *o.allocator;
    if (o.queue_depth)
        cfg.spmu.queue_depth = *o.queue_depth;
    if (o.bandwidth_gbps)
        cfg.dram.bandwidth_override_gbps = *o.bandwidth_gbps;
    if (o.compression)
        cfg.dram.compression = true;
    if (o.spmu_ideal)
        cfg.spmu.ideal = *o.spmu_ideal;
    if (o.scan_bits)
        cfg.scanner.window_bits = *o.scan_bits;
    if (o.scan_outputs)
        cfg.scanner.outputs = *o.scan_outputs;
    if (o.scan_data_elems)
        cfg.scanner.data_elements = *o.scan_data_elems;
    return cfg;
}

std::string
configPointName(ConfigPoint p)
{
    switch (p) {
    case ConfigPoint::Capstan: return "capstan";
    case ConfigPoint::Plasticine: return "plasticine";
    case ConfigPoint::Ideal: return "ideal";
    }
    return "unknown";
}

std::string
usageText()
{
    return
        "capstan-run: simulate one (app x workload x machine) point\n"
        "\n"
        "Usage: capstan-run [flags]\n"
        "\n"
        "Workload selection:\n"
        "  --app NAME         spmv|spmv-coo|spmv-csc|conv|pagerank|\n"
        "                     pagerank-edge|bfs|sssp|matadd|spmspm|\n"
        "                     bicgstab            (default: spmv)\n"
        "  --dataset NAME     Table 6 dataset, file:PATH (.mtx or\n"
        "                     SNAP edge list), or mtx:NAME under\n"
        "                     --dataset-dir   (default: per app)\n"
        "  --dataset-dir DIR  directory of real dataset files; Table 6\n"
        "                     names resolve to DIR/<name>.mtx|.el|.txt\n"
        "                     when present, else fall back to the\n"
        "                     synthetic stand-in (with a note)\n"
        "  --scale F          dataset scale multiplier (default: 1;\n"
        "                     synthetic generation only)\n"
        "  --tiles N          outer-parallel tiles, 1 to 128\n"
        "                     (default: 16)\n"
        "  --iterations N     PR/BiCGStab iterations (default: 2)\n"
        "\n"
        "Machine configuration:\n"
        "  --config NAME      capstan|plasticine|ideal\n"
        "  --memtech T        ddr4|hbm2|hbm2e|ideal\n"
        "  --ordering M       unordered|address|fully|arbitrated\n"
        "  --merge M          none|mrg0|mrg1|mrg16\n"
        "  --hash H           linear|xor\n"
        "  --allocator A      full|weak\n"
        "  --queue-depth N    SpMU issue-queue depth, 1 to 64\n"
        "  --bandwidth-gbps B DRAM bandwidth override\n"
        "  --compression      enable pointer-tile DRAM compression\n"
        "  --spmu-ideal       conflict-free SpMU (Table 9 'Ideal')\n"
        "  --scan-bits N      scanner window bits (Fig. 6a)\n"
        "  --scan-outputs N   scan output vectorization (Fig. 6c)\n"
        "  --scan-data-elems N data elements scanned/cycle (Fig. 6b)\n"
        "\n"
        "Sweeps (see docs/OUTPUT_SCHEMA.md for the report format):\n"
        "  --sweep PATH       run the cartesian sweep a JSON spec\n"
        "                     describes; single-run flags above set\n"
        "                     the base point\n"
        "  --axis KEY=V1,V2   sweep KEY over the listed values\n"
        "                     (repeatable; overrides the spec's axis;\n"
        "                     keys: app dataset scale tiles iterations\n"
        "                     config memtech ordering merge hash\n"
        "                     allocator queue-depth bandwidth-gbps\n"
        "                     compression spmu-ideal scan-bits\n"
        "                     scan-outputs scan-data-elems)\n"
        "  --jobs N           sweep worker threads (default: all cores)\n"
        "  --csv PATH         also write the sweep report as CSV\n"
        "\n"
        "Output:\n"
        "  --json             emit machine-readable JSON stats\n"
        "  --compact          JSON without pretty-printing\n"
        "                     (implies --json)\n"
        "  --output PATH      write stats to PATH instead of stdout\n"
        "  --dry-run          validate flags (and the sweep expansion\n"
        "                     when no spec file is involved), run\n"
        "                     nothing, write nothing\n"
        "  --list             list apps and datasets, then exit\n"
        "  --help             this text\n";
}

std::string
listText()
{
    std::ostringstream out;
    out << "apps:";
    for (const auto &a : appNames())
        out << ' ' << a;
    out << "\nlinear-algebra datasets:";
    for (const auto &d : workloads::linearAlgebraDatasetNames())
        out << ' ' << d;
    out << "\ngraph datasets:";
    for (const auto &d : workloads::graphDatasetNames())
        out << ' ' << d;
    out << "\nspmspm datasets:";
    for (const auto &d : workloads::spmspmDatasetNames())
        out << ' ' << d;
    out << "\nconv datasets:";
    for (const auto &d : workloads::convDatasetNames())
        out << ' ' << d;
    out << "\nconfigs: capstan plasticine ideal\n";
    return out.str();
}

std::string
datasetHint()
{
    std::ostringstream out;
    out << "valid datasets:";
    for (const auto &d : workloads::linearAlgebraDatasetNames())
        out << ' ' << d;
    for (const auto &d : workloads::graphDatasetNames())
        out << ' ' << d;
    out << " p2p-Gnutella31";
    for (const auto &d : workloads::spmspmDatasetNames())
        out << ' ' << d;
    for (const auto &d : workloads::convDatasetNames())
        out << " '" << d << '\'';
    out << "\nor file:PATH / mtx:NAME for real .mtx and SNAP "
           "edge-list files (see --dataset-dir and "
           "docs/REPRODUCTION.md)";
    return out.str();
}

} // namespace capstan::driver
