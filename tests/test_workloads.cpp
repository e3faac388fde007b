/**
 * @file
 * Tests for the synthetic dataset generators and tiling (Table 6).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "driver/runner.hpp"
#include "workloads/datasets.hpp"
#include "workloads/tiling.hpp"

using namespace capstan::workloads;
using capstan::Index;
using capstan::Index64;

TEST(Synth, CircuitMatrixMatchesTargets)
{
    auto m = circuitMatrix(4970, 33302, 1);
    EXPECT_EQ(m.rows(), 4970);
    // Duplicate folding can remove a few entries; stay within 5%.
    EXPECT_NEAR(m.nnz(), 33302, 33302 * 0.05);
    // Strong diagonal: every row has its diagonal entry.
    for (Index i = 0; i < m.rows(); i += 97)
        EXPECT_GT(m.at(i, i), 0.0f);
}

TEST(Synth, CircuitMatrixIsStructurallySymmetric)
{
    auto m = circuitMatrix(500, 3000, 2);
    auto mt = m.transpose();
    EXPECT_EQ(m.colIdx(), mt.colIdx());
}

TEST(Synth, TrefethenHasPowerOfTwoDiagonals)
{
    auto m = trefethenMatrix(1024);
    // Row 0: diagonal + offsets 1,2,4,...,512 -> 11 entries.
    EXPECT_EQ(m.rowLength(0), 11);
    auto idx = m.rowIndices(0);
    EXPECT_EQ(idx[0], 0);
    EXPECT_EQ(idx[1], 1);
    EXPECT_EQ(idx[2], 2);
    EXPECT_EQ(idx[3], 4);
    EXPECT_EQ(idx.back(), 512);
    // Symmetric.
    auto mt = m.transpose();
    EXPECT_EQ(m.colIdx(), mt.colIdx());
}

TEST(Synth, TrefethenNnzMatchesPaperAtFullScale)
{
    // Table 6: Trefethen_20000 has 554,466 non-zeros. Power-of-two
    // off-diagonals give ~2 n log2(n); check the same order.
    auto m = trefethenMatrix(20000);
    EXPECT_EQ(m.rows(), 20000);
    EXPECT_NEAR(m.nnz(), 554466, 554466 * 0.07);
}

TEST(Synth, FemMatrixIsBandedAndDense)
{
    auto m = femMatrix(2892, 70, 100, 3);
    double per_row = static_cast<double>(m.nnz()) / m.rows();
    EXPECT_NEAR(per_row, 70.0, 8.0);
    // Banded: entries stay near the diagonal.
    for (Index r = 100; r < m.rows(); r += 301) {
        for (Index c : m.rowIndices(r))
            EXPECT_LE(std::abs(c - r), 110);
    }
}

TEST(Synth, RoadGraphHasLowUniformDegree)
{
    auto g = roadGraph(12614, 4);
    double avg_degree = static_cast<double>(g.nnz()) / g.rows();
    EXPECT_GT(avg_degree, 1.8);
    EXPECT_LT(avg_degree, 3.2);
    // No hubs: max degree is tiny (grid locality).
    Index max_deg = 0;
    for (Index r = 0; r < g.rows(); ++r)
        max_deg = std::max(max_deg, g.rowLength(r));
    EXPECT_LE(max_deg, 4);
}

TEST(Synth, RmatGraphIsSkewed)
{
    auto g = rmatGraph(8192, 80000, 5);
    EXPECT_GT(g.nnz(), 60000);
    // Power-law: the top 1% of rows should hold a large share of edges.
    std::vector<Index> degrees(g.rows());
    for (Index r = 0; r < g.rows(); ++r)
        degrees[r] = g.rowLength(r);
    std::sort(degrees.rbegin(), degrees.rend());
    Index64 top = 0;
    for (Index i = 0; i < g.rows() / 100; ++i)
        top += degrees[i];
    EXPECT_GT(static_cast<double>(top) / g.nnz(), 0.15);
}

TEST(Synth, UniformRandomMatrixHitsDensity)
{
    auto m = uniformRandomMatrix(324, 324, 0.257, 6);
    double density = static_cast<double>(m.nnz()) / (324.0 * 324.0);
    EXPECT_NEAR(density, 0.257, 0.02);
}

TEST(Synth, SparseVectorHitsDensity)
{
    auto v = sparseVector(10000, 0.3, 7);
    int nonzero = 0;
    for (Index i = 0; i < v.size(); ++i)
        nonzero += v[i] != 0;
    EXPECT_NEAR(nonzero / 10000.0, 0.3, 0.02);
}

TEST(Synth, ConvLayerDensities)
{
    auto layer = convLayer(56, 3, 64, 64, 0.237, 0.30, 8);
    double act_density =
        static_cast<double>(layer.activations.nnz()) /
        (64.0 * 56 * 56);
    double k_density = static_cast<double>(layer.kernel.nnz()) /
                       (3.0 * 3 * 64 * 64);
    EXPECT_NEAR(act_density, 0.237, 0.02);
    EXPECT_NEAR(k_density, 0.30, 0.02);
}

TEST(Synth, GeneratorsAreDeterministic)
{
    auto a = rmatGraph(1024, 8000, 42);
    auto b = rmatGraph(1024, 8000, 42);
    EXPECT_EQ(a.colIdx(), b.colIdx());
    auto c = rmatGraph(1024, 8000, 43);
    EXPECT_NE(a.colIdx(), c.colIdx());
}

TEST(Datasets, AllTable6NamesLoad)
{
    for (const auto &name : linearAlgebraDatasetNames()) {
        auto d = loadMatrixDataset(name, 0.05);
        EXPECT_GT(d.matrix.nnz(), 0) << name;
    }
    for (const auto &name : graphDatasetNames()) {
        auto d = loadMatrixDataset(name, 0.02);
        EXPECT_GT(d.matrix.nnz(), 0) << name;
    }
    for (const auto &name : spmspmDatasetNames()) {
        auto d = loadMatrixDataset(name, 1.0);
        EXPECT_GT(d.matrix.nnz(), 0) << name;
    }
    for (const auto &name : convDatasetNames()) {
        auto d = loadConvDataset(name, 0.25);
        EXPECT_GT(d.layer.kernel.nnz(), 0) << name;
    }
    EXPECT_GT(loadMatrixDataset("p2p-Gnutella31", 0.25).matrix.nnz(), 0);
    EXPECT_THROW(loadMatrixDataset("nope"), std::invalid_argument);
    EXPECT_THROW(loadConvDataset("nope"), std::invalid_argument);
}

namespace {

/** FNV-1a over @p n bytes at @p p, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *p, std::size_t n)
{
    const auto *b = static_cast<const unsigned char *>(p);
    for (std::size_t i = 0; i < n; ++i)
        h = (h ^ b[i]) * 0x100000001B3ULL;
    return h;
}

template <typename T>
std::uint64_t
fnv1a(std::uint64_t h, const std::vector<T> &v)
{
    return fnv1a(h, v.data(), v.size() * sizeof(T));
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

/** Digest of a matrix's dimensions and its three CSR arrays. */
std::uint64_t
digest(const CsrMatrix &m)
{
    Index dims[2] = {m.rows(), m.cols()};
    std::uint64_t h = fnv1a(kFnvBasis, dims, sizeof(dims));
    h = fnv1a(h, m.rowPtr());
    h = fnv1a(h, m.colIdx());
    return fnv1a(h, m.values());
}

/** Digest of a conv layer's shape, activations and kernel. */
std::uint64_t
digest(const ConvLayer &l)
{
    Index dims[4] = {l.dim, l.kdim, l.in_channels, l.out_channels};
    std::uint64_t h = fnv1a(kFnvBasis, dims, sizeof(dims));
    h = fnv1a(h, l.activations.data());
    return fnv1a(h, l.kernel.data());
}

} // namespace

/**
 * Every Table 6 stand-in, bit for bit, at the quick preset's scale
 * (0.02x the bench default) and at the bench default the full preset
 * runs (driver::defaultScale). A generator or canonicalization change
 * that moves one value fails here; the message prints the new digest.
 * Recorded with canonicalize's std::sort, except ckt11752_dc_1: its
 * 3-way and larger duplicate sums moved in the last bit when
 * canonicalize became a stable counting sort that sums duplicates in
 * input order.
 */
TEST(Datasets, GeneratorsArePinned)
{
    struct Pin
    {
        const char *name;
        std::uint64_t quick;
        std::uint64_t full;
    };
    const std::vector<Pin> pins = {
        {"ckt11752_dc_1", 0x02AB43840672BF40, 0x93E9C436124EFF5C},
        {"Trefethen_20000", 0xCA8B963EAF9DBC62,
         0x4CB3D22103FA101E},
        {"bcsstk30", 0x902EED77061BA716, 0x923313EE74AA7BAE},
        {"usroads-48", 0x2E3E4BC3290B992D, 0x6CC7DD97F3174E0F},
        {"web-Stanford", 0xE41881D7656D9A51, 0x96B275300C3C810D},
        {"flickr", 0x540EB8555B69DEF6, 0x59AB5DC6D6857829},
        {"p2p-Gnutella31", 0x1AE1C21A890EE634, 0xBB1CC8236BB53461},
        {"spaceStation_4", 0x3697A1EDE77DBC00, 0xBCC2E765DA573D75},
        {"qc324", 0x2C8490A767491214, 0x7604F74CB67C19BF},
        {"mbeacxc", 0xC47E584AAAD857CC, 0x7E80E17C3ECF9410},
        {"ResNet-50 #1", 0x9BD68A0390CF58E6, 0x01B499AB0E14D52F},
        {"ResNet-50 #2", 0x024A3B38183DD68B, 0xB284984A948D8BF6},
        {"ResNet-50 #29", 0x8F0C006317989B56, 0x26C5E86FF48492D8},
    };
    // Every registered name is pinned, plus the sensitivity studies'
    // flickr substitute.
    std::vector<std::string> registry = linearAlgebraDatasetNames();
    for (const auto &list :
         {graphDatasetNames(), spmspmDatasetNames(), convDatasetNames()})
        registry.insert(registry.end(), list.begin(), list.end());
    registry.push_back("p2p-Gnutella31");
    ASSERT_EQ(registry.size(), pins.size());
    for (const std::string &name : registry)
        EXPECT_TRUE(std::ranges::any_of(
            pins, [&](const Pin &pin) { return name == pin.name; }))
            << name << " is not pinned";
    for (const Pin &pin : pins) {
        for (double mult : {0.02, 1.0}) {
            double scale = capstan::driver::defaultScale(pin.name) * mult;
            bool conv = std::string(pin.name).starts_with("ResNet");
            std::uint64_t got =
                conv ? digest(loadConvDataset(pin.name, scale).layer)
                     : digest(loadMatrixDataset(pin.name, scale)
                                  .matrix.csr());
            char hex[19];
            std::snprintf(hex, sizeof(hex), "0x%016llX",
                          static_cast<unsigned long long>(got));
            EXPECT_EQ(got, mult < 1.0 ? pin.quick : pin.full)
                << pin.name << " at scale " << scale << ": digest "
                << hex;
        }
    }
}

TEST(Datasets, ScaleShrinksProportionally)
{
    auto full = loadMatrixDataset("Trefethen_20000", 0.5);
    auto small = loadMatrixDataset("Trefethen_20000", 0.25);
    EXPECT_NEAR(static_cast<double>(full.matrix.rows()) / small.matrix.rows(),
                2.0, 0.1);
}

TEST(Tiling, ByWeightBalancesEdges)
{
    auto g = rmatGraph(4096, 60000, 11);
    Tiling t = Tiling::byWeight(g, 8);
    EXPECT_EQ(t.tiles(), 8);
    EXPECT_LT(t.imbalance(), 1.6);
    // Every row appears exactly once.
    Index total = 0;
    for (int i = 0; i < 8; ++i)
        total += static_cast<Index>(t.rowsOf(i).size());
    EXPECT_EQ(total, g.rows());
}

TEST(Tiling, LocalIndicesAreConsistent)
{
    auto g = roadGraph(1000, 12);
    Tiling t = Tiling::byWeight(g, 4);
    for (Index v = 0; v < g.rows(); ++v) {
        int tile = t.tileOf(v);
        Index local = t.localIndex(v);
        ASSERT_EQ(t.rowsOf(tile)[local], v);
    }
}

TEST(Tiling, RoundRobinSpreadsRows)
{
    Tiling t = Tiling::roundRobin(103, 4);
    EXPECT_EQ(t.tiles(), 4);
    EXPECT_EQ(t.tileOf(0), 0);
    EXPECT_EQ(t.tileOf(1), 1);
    EXPECT_EQ(t.tileOf(5), 1);
    EXPECT_LE(t.imbalance(), 1.05);
}

TEST(Tiling, SingleTileOwnsEverything)
{
    auto g = roadGraph(100, 13);
    Tiling t = Tiling::byWeight(g, 1);
    EXPECT_EQ(t.tiles(), 1);
    for (Index v = 0; v < g.rows(); ++v)
        EXPECT_EQ(t.tileOf(v), 0);
}
