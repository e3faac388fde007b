#include "workloads/datasets.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>

namespace capstan::workloads {

namespace {

/**
 * Scale a published dimension, rounding to nearest: truncation gave
 * off-by-one dimensions versus the documented "scale 1.0 matches the
 * published nnz" contract whenever value * scale landed on .5 or
 * above. Clamped so absurd scales stay defined instead of overflowing
 * the cast.
 */
Index
scaled(Index value, double scale, Index floor_at = 64)
{
    double d = static_cast<double>(value) * scale;
    if (d >= static_cast<double>(std::numeric_limits<Index>::max()))
        return std::numeric_limits<Index>::max();
    return std::max<Index>(floor_at,
                           static_cast<Index>(std::llround(d)));
}

Index64
scaled64(Index64 value, double scale, Index64 floor_at = 256)
{
    double d = static_cast<double>(value) * scale;
    if (d >= static_cast<double>(std::numeric_limits<Index64>::max()))
        return std::numeric_limits<Index64>::max();
    return std::max<Index64>(floor_at, std::llround(d));
}

/**
 * The CLI rejects bad --scale values at parse time, but the library
 * API is callable directly; a NaN or non-positive scale would
 * otherwise flow silently into the generators (NaN fails every
 * comparison, so it used to slip past the floor_at clamps).
 */
void
validateScale(double scale)
{
    if (!std::isfinite(scale) || scale <= 0)
        throw DatasetError(
            "dataset scale must be a positive finite number");
}

} // namespace

std::vector<std::string>
linearAlgebraDatasetNames()
{
    return {"ckt11752_dc_1", "Trefethen_20000", "bcsstk30"};
}

std::vector<std::string>
graphDatasetNames()
{
    return {"usroads-48", "web-Stanford", "flickr"};
}

std::vector<std::string>
spmspmDatasetNames()
{
    return {"spaceStation_4", "qc324", "mbeacxc"};
}

std::vector<std::string>
convDatasetNames()
{
    return {"ResNet-50 #1", "ResNet-50 #2", "ResNet-50 #29"};
}

MatrixDataset
loadMatrixDataset(const std::string &name, double scale)
{
    validateScale(scale);
    // Published dimensions/nnz from Table 6; structure per DESIGN.md #4.
    if (name == "ckt11752_dc_1") {
        return {name, circuitMatrix(scaled(49702, scale),
                                    scaled64(333029, scale), 0xC1C1)};
    }
    if (name == "Trefethen_20000") {
        // nnz follows ~2 n log2(n) automatically (~554k at n = 20000).
        return {name, trefethenMatrix(scaled(20000, scale))};
    }
    if (name == "bcsstk30") {
        // 2,043,492 nnz over 28,924 rows: ~70 nnz/row in a narrow band.
        Index n = scaled(28924, scale);
        return {name, femMatrix(n, 70, std::max<Index>(72, n / 60),
                                0xB30)};
    }
    if (name == "usroads-48") {
        return {name, roadGraph(scaled(126146, scale), 0x0AD5)};
    }
    if (name == "web-Stanford") {
        return {name, rmatGraph(scaled(281903, scale),
                                scaled64(2312497, scale), 0x5EB,
                                0.57, 0.19, 0.19)};
    }
    if (name == "flickr") {
        return {name, rmatGraph(scaled(820878, scale),
                                scaled64(9837214, scale), 0xF11C,
                                0.55, 0.2, 0.2)};
    }
    if (name == "p2p-Gnutella31") {
        return {name, rmatGraph(scaled(62586, scale),
                                scaled64(147892, scale), 0x6AA7,
                                0.5, 0.22, 0.22)};
    }
    if (name == "spaceStation_4") {
        Index n = scaled(950, scale, 32);
        return {name, uniformRandomMatrix(n, n, 0.016, 0x57A7)};
    }
    if (name == "qc324") {
        Index n = scaled(324, scale, 32);
        return {name, uniformRandomMatrix(n, n, 0.257, 0x0324)};
    }
    if (name == "mbeacxc") {
        Index n = scaled(496, scale, 32);
        return {name, uniformRandomMatrix(n, n, 0.203, 0x0496)};
    }
    throw DatasetError("unknown matrix dataset: " + name);
}

namespace {

namespace fs = std::filesystem;

/** Log @p message to stderr once per @p key (thread-safe). */
void
noteOnce(const std::string &key, const std::string &message)
{
    static std::mutex mutex;
    static std::set<std::string> seen;
    std::lock_guard<std::mutex> lock(mutex);
    if (seen.insert(key).second)
        std::fprintf(stderr, "%s\n", message.c_str());
}

/** Probe `<dir>/<name>.{mtx,el,txt}`; nullopt when none exists. */
std::optional<std::string>
findRealFile(const std::string &name, const std::string &dir)
{
    for (const char *ext : {".mtx", ".el", ".txt"}) {
        std::string path = (fs::path(dir) / (name + ext)).string();
        std::error_code ec;
        if (fs::is_regular_file(path, ec))
            return path;
    }
    return std::nullopt;
}

bool
fileExists(const std::string &path)
{
    std::error_code ec;
    return fs::is_regular_file(path, ec);
}

} // namespace

std::optional<std::string>
realDatasetPath(const std::string &name,
                const std::string &dataset_dir)
{
    if (name.starts_with("file:")) {
        std::string path = name.substr(5);
        if (path.empty())
            return std::nullopt;
        if (fileExists(path))
            return path;
        if (!dataset_dir.empty() && fs::path(path).is_relative()) {
            std::string under =
                (fs::path(dataset_dir) / path).string();
            if (fileExists(under))
                return under;
        }
        return std::nullopt;
    }
    if (name.starts_with("mtx:")) {
        std::string base = name.substr(4);
        if (base.empty() || dataset_dir.empty())
            return std::nullopt;
        std::string path =
            (fs::path(dataset_dir) / (base + ".mtx")).string();
        if (fileExists(path))
            return path;
        return std::nullopt;
    }
    if (!dataset_dir.empty())
        return findRealFile(name, dataset_dir);
    return std::nullopt;
}

MatrixDataset
resolveMatrixDataset(const std::string &name, double scale,
                     const std::string &dataset_dir, CacheMode cache)
{
    validateScale(scale);
    bool is_scheme = name.starts_with("file:") ||
                     name.starts_with("mtx:");
    if (auto path = realDatasetPath(name, dataset_dir)) {
        // Real files have exactly one size; only warn when the user
        // named the file explicitly AND asked for a non-unit scale
        // (for Table 6 names the bench-default generation scale is
        // expected and not the user's doing).
        if (is_scheme && scale != 1.0)
            noteOnce("scale\x1f" + *path,
                     "note: dataset '" + name +
                         "': scale does not apply to real dataset "
                         "files; using '" +
                         *path + "' as-is");
        return {name, loadRealStore(*path, cache), *path};
    }
    if (name.starts_with("file:")) {
        std::string path = name.substr(5);
        if (path.empty())
            throw DatasetError("'file:' needs a path (file:PATH)");
        std::string also;
        if (!dataset_dir.empty() && fs::path(path).is_relative())
            also = " (also tried '" +
                   (fs::path(dataset_dir) / path).string() + "')";
        throw DatasetError("dataset file '" + path + "' not found" +
                           also);
    }
    if (name.starts_with("mtx:")) {
        std::string base = name.substr(4);
        if (base.empty())
            throw DatasetError("'mtx:' needs a name (mtx:NAME)");
        if (dataset_dir.empty())
            throw DatasetError("dataset '" + name +
                               "' needs --dataset-dir to resolve "
                               "NAME.mtx against");
        throw DatasetError(
            "dataset file '" +
            (fs::path(dataset_dir) / (base + ".mtx")).string() +
            "' not found");
    }
    MatrixDataset d = loadMatrixDataset(name, scale);
    if (!dataset_dir.empty())
        noteOnce("fallback\x1f" + dataset_dir + "\x1f" + name,
                 "note: dataset '" + name + "': no real file under '" +
                     dataset_dir +
                     "'; using the synthetic stand-in");
    return d;
}

ConvDataset
loadConvDataset(const std::string &name, double scale)
{
    validateScale(scale);
    // Table 6: dim.kdim.inCh.outCh with activation/kernel densities.
    auto channels = [&](Index ch) {
        return std::max<Index>(
            8, static_cast<Index>(
                   std::llround(ch * std::sqrt(scale))));
    };
    if (name == "ResNet-50 #1") {
        return {name, convLayer(56, 1, channels(64), channels(64),
                                0.443, 0.30, 0xA001)};
    }
    if (name == "ResNet-50 #2") {
        return {name, convLayer(56, 3, channels(64), channels(64),
                                0.237, 0.30, 0xA002)};
    }
    if (name == "ResNet-50 #29") {
        return {name, convLayer(14, 3, channels(256), channels(256),
                                0.828, 0.30, 0xA029)};
    }
    throw DatasetError("unknown conv dataset: " + name);
}

} // namespace capstan::workloads
