/**
 * @file
 * Application-level tests: functional correctness of every app against
 * independent references, plus the qualitative timing behaviours the
 * paper reports (Capstan vs. Plasticine, memory-technology scaling,
 * bit-tree vs. flat bit-vector iteration).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "apps/bicgstab.hpp"
#include "apps/conv.hpp"
#include "apps/graph.hpp"
#include "apps/matadd.hpp"
#include "apps/pagerank.hpp"
#include "apps/spmspm.hpp"
#include "apps/spmv.hpp"
#include "workloads/datasets.hpp"

using namespace capstan;
using namespace capstan::apps;
using namespace capstan::workloads;
namespace sim = capstan::sim;
using sim::CapstanConfig;
using sim::MemTech;

namespace {

CapstanConfig
hbm()
{
    return CapstanConfig::capstan(MemTech::HBM2E);
}

CsrMatrix
smallMatrix(std::uint32_t seed = 1)
{
    return uniformRandomMatrix(200, 200, 0.05, seed);
}

DenseVector
denseVec(Index n, std::uint32_t seed = 2)
{
    std::mt19937 rng(seed);
    DenseVector v(n);
    for (Index i = 0; i < n; ++i)
        v[i] = std::uniform_real_distribution<float>(0.1f, 1.0f)(rng);
    return v;
}

/**
 * Reference model: M+M written as triplets. Every entry of both
 * operands becomes a triplet, std::sort orders them by (row, col), and
 * adjacent duplicates are summed. A coordinate occurs at most once per
 * canonical operand, so at most two triplets meet, and their sum does
 * not depend on which of them std::sort puts first.
 */
CsrMatrix
tripletSortReference(const CsrMatrix &a, const CsrMatrix &b)
{
    std::vector<sparse::Triplet> trip = a.toCoo().entries();
    sparse::CooMatrix more = b.toCoo();
    trip.insert(trip.end(), more.entries().begin(), more.entries().end());
    std::sort(trip.begin(), trip.end(), [](const auto &x, const auto &y) {
        return x.row != y.row ? x.row < y.row : x.col < y.col;
    });
    std::vector<Index> row_ptr(static_cast<std::size_t>(a.rows()) + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    Index last_row = -1;
    for (const sparse::Triplet &t : trip) {
        if (t.row == last_row && col_idx.back() == t.col) {
            values.back() += t.value;
            continue;
        }
        last_row = t.row;
        col_idx.push_back(t.col);
        values.push_back(t.value);
        ++row_ptr[t.row + 1];
    }
    for (Index r = 0; r < a.rows(); ++r)
        row_ptr[r + 1] += row_ptr[r];
    return CsrMatrix::fromParts(a.rows(), a.cols(), std::move(row_ptr),
                                std::move(col_idx), std::move(values));
}

std::vector<std::uint32_t>
valueBits(const std::vector<Value> &v)
{
    std::vector<std::uint32_t> out;
    for (Value x : v)
        out.push_back(std::bit_cast<std::uint32_t>(x));
    return out;
}

} // namespace

TEST(SpmvApp, ReferenceMatchesManualComputation)
{
    auto m = sparse::CsrMatrix::fromTriplets(
        2, 3, {{0, 0, 2.0f}, {0, 2, 1.0f}, {1, 1, 3.0f}});
    DenseVector v(std::vector<Value>{1.0f, 2.0f, 3.0f});
    auto out = spmvReference(m, v);
    EXPECT_FLOAT_EQ(out[0], 5.0f);
    EXPECT_FLOAT_EQ(out[1], 6.0f);
}

TEST(SpmvApp, AllFormatsProduceTheSameResult)
{
    auto m = smallMatrix();
    auto v = denseVec(m.cols());
    auto want = spmvReference(m, v);
    auto csr = runSpmvCsr(m, v, hbm(), 4);
    auto coo = runSpmvCoo(m, v, hbm(), 4);
    auto sv = sparseVector(m.cols(), 0.3, 5);
    auto csc = runSpmvCsc(m, sv, hbm(), 4);
    EXPECT_LT(relativeError(csr.out.data(), want.data()), 1e-6);
    EXPECT_LT(relativeError(coo.out.data(), want.data()), 1e-6);
    EXPECT_LT(relativeError(csc.out.data(),
                            spmvReference(m, sv).data()),
              1e-6);
    EXPECT_GT(csr.timing.cycles, 0u);
    EXPECT_GT(coo.timing.cycles, 0u);
    EXPECT_GT(csc.timing.cycles, 0u);
}

TEST(SpmvApp, Ddr4IsSlowerThanHbm)
{
    auto m = loadMatrixDataset("Trefethen_20000", 0.1).matrix;
    auto v = denseVec(m.cols());
    auto fast = runSpmvCsr(m, v, hbm(), 8);
    auto slow =
        runSpmvCsr(m, v, CapstanConfig::capstan(MemTech::DDR4), 8);
    // SpMV is memory-bound: DDR4 should be several times slower
    // (Table 12 reports ~14.5x vs HBM2E for CSR).
    EXPECT_GT(slow.timing.cycles, 4 * fast.timing.cycles);
}

TEST(SpmvApp, PlasticineCollapsesOnCooRmw)
{
    auto m = smallMatrix(3);
    auto v = denseVec(m.cols());
    auto capstan = runSpmvCoo(m, v, hbm(), 4);
    auto plasticine =
        runSpmvCoo(m, v, CapstanConfig::plasticine(MemTech::HBM2E), 4);
    // Random RMW without scheduling is the paper's 184x headline; at
    // this small scale we just require a decisive gap.
    EXPECT_GT(plasticine.timing.cycles, 2 * capstan.timing.cycles);
}

TEST(PageRankApp, ReferenceSumsToOne)
{
    auto g = roadGraph(400, 7);
    auto ranks = pageRankReference(g, 10);
    double sum = 0;
    for (Index i = 0; i < ranks.size(); ++i)
        sum += ranks[i];
    // Dangling-vertex leakage makes the sum slightly below 1.
    EXPECT_GT(sum, 0.5);
    EXPECT_LE(sum, 1.01);
}

TEST(PageRankApp, PullAndEdgeAgreeFunctionally)
{
    auto g = rmatGraph(512, 4000, 9);
    auto pull = runPageRankPull(g, 3, hbm(), 4);
    auto edge = runPageRankEdge(g, 3, hbm(), 4);
    EXPECT_LT(relativeError(pull.ranks.data(), edge.ranks.data()),
              1e-6);
    EXPECT_GT(pull.timing.cycles, 0u);
    EXPECT_GT(edge.timing.cycles, 0u);
}

TEST(BfsApp, LevelsMatchReference)
{
    auto g = roadGraph(900, 11);
    auto res = runBfs(g, 0, hbm(), 4);
    auto want = bfsReference(g, 0);
    ASSERT_EQ(res.level.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
        ASSERT_EQ(res.level[i], want[i]) << "vertex " << i;
}

TEST(BfsApp, ParentsFormValidTree)
{
    auto g = rmatGraph(512, 4000, 13);
    auto res = runBfs(g, 1, hbm(), 4);
    for (Index v = 0; v < static_cast<Index>(res.level.size()); ++v) {
        if (res.level[v] <= 0)
            continue;
        Index p = res.parent[v];
        ASSERT_GE(p, 0);
        ASSERT_EQ(res.level[p], res.level[v] - 1);
        // p must actually have an edge to v.
        auto idx = g.rowIndices(p);
        ASSERT_TRUE(std::find(idx.begin(), idx.end(), v) != idx.end());
    }
}

TEST(SsspApp, DistancesMatchDijkstra)
{
    auto g = roadGraph(400, 17);
    auto res = runSssp(g, 0, hbm(), 4);
    auto want = ssspReference(g, 0);
    for (std::size_t i = 0; i < want.size(); ++i) {
        if (std::isinf(want[i]))
            ASSERT_TRUE(std::isinf(res.dist[i]));
        else
            ASSERT_NEAR(res.dist[i], want[i], 1e-3) << "vertex " << i;
    }
}

TEST(GraphApps, SkippingBackPointersIsFaster)
{
    auto g = rmatGraph(1024, 8000, 19);
    auto with_ptr = runBfs(g, 0, hbm(), 4, true);
    auto without = runBfs(g, 0, hbm(), 4, false);
    EXPECT_LT(without.timing.cycles, with_ptr.timing.cycles);
}

TEST(ConvApp, MatchesReference)
{
    auto layer = convLayer(12, 3, 8, 8, 0.4, 0.3, 21);
    auto res = runConv(layer, hbm(), 4);
    auto want = convReference(layer);
    EXPECT_LT(relativeError(res.out.data(), want.data()), 1e-6);
    EXPECT_GT(res.timing.cycles, 0u);
}

TEST(ConvApp, OneByOneKernelHasNoHalo)
{
    auto layer = convLayer(8, 1, 4, 4, 0.5, 0.5, 23);
    auto res = runConv(layer, hbm(), 2);
    auto want = convReference(layer);
    EXPECT_LT(relativeError(res.out.data(), want.data()), 1e-6);
}

TEST(MatAddApp, SumMatchesReference)
{
    auto a = uniformRandomMatrix(300, 4096, 0.004, 31);
    auto b = uniformRandomMatrix(300, 4096, 0.004, 37);
    auto res = runMatAdd(a, b, hbm(), 4);
    auto want = matAddReference(a, b);
    ASSERT_EQ(res.sum.nnz(), want.nnz());
    EXPECT_EQ(res.sum.colIdx(), want.colIdx());
    EXPECT_LT(relativeError(res.sum.values(), want.values()), 1e-6);
}

/**
 * Property: the row-merge reference equals the triplet-sort reference
 * bit for bit on seeded rectangular operands with empty rows, shared
 * and one-sided coordinates, explicit zeros of both signs, and pairs
 * that cancel to zero.
 */
TEST(MatAddApp, ReferenceEqualsTripletSortFormulation)
{
    std::mt19937 rng(53);
    for (int trial = 0; trial < 40; ++trial) {
        Index rows = 1 + static_cast<Index>(rng() % 40);
        Index cols = 1 + static_cast<Index>(rng() % 700);
        std::uniform_int_distribution<Index> col(0, cols - 1);
        std::uniform_real_distribution<float> val(-4.0f, 4.0f);
        std::vector<sparse::Triplet> ta;
        std::vector<sparse::Triplet> tb;
        for (Index r = 0; r < rows; ++r) {
            if (rng() % 4 == 0)
                continue; // An empty row in both operands.
            int entries = static_cast<int>(rng() % 12);
            for (int k = 0; k < entries; ++k) {
                Index c = col(rng);
                float v = val(rng);
                switch (rng() % 6) {
                case 0: // Shared; the pair cancels.
                    ta.push_back({r, c, v});
                    tb.push_back({r, c, -v});
                    break;
                case 1: // Shared.
                    ta.push_back({r, c, v});
                    tb.push_back({r, c, val(rng)});
                    break;
                case 2: // Explicit zeros.
                    ta.push_back({r, c, 0.0f});
                    tb.push_back({r, c, rng() % 2 ? -0.0f : v});
                    break;
                case 3:
                case 4:
                    ta.push_back({r, c, v});
                    break;
                default:
                    tb.push_back({r, c, v});
                }
            }
        }
        auto a = CsrMatrix::fromTriplets(rows, cols, ta);
        auto b = CsrMatrix::fromTriplets(rows, cols, tb);
        CsrMatrix got = matAddReference(a, b);
        CsrMatrix want = tripletSortReference(a, b);
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        ASSERT_EQ(got.rowPtr(), want.rowPtr()) << "trial " << trial;
        ASSERT_EQ(got.colIdx(), want.colIdx()) << "trial " << trial;
        ASSERT_EQ(valueBits(got.values()), valueBits(want.values()))
            << "trial " << trial;
    }
}

TEST(MatAddApp, BitTreeBeatsFlatBitVectorOnSparseRows)
{
    // < 1% density rows: the flat scanner drowns in zero windows
    // (Section 2.3's motivation for the bit-tree format).
    auto a = uniformRandomMatrix(200, 32768, 0.0005, 41);
    auto b = uniformRandomMatrix(200, 32768, 0.0005, 43);
    auto tree = runMatAdd(a, b, hbm(), 4, true);
    auto flat = runMatAdd(a, b, hbm(), 4, false);
    EXPECT_GT(flat.timing.cycles, 3 * tree.timing.cycles);
}

TEST(SpmspmApp, ProductMatchesReference)
{
    auto a = uniformRandomMatrix(120, 120, 0.05, 47);
    auto b = uniformRandomMatrix(120, 120, 0.05, 53);
    auto res = runSpmspm(a, b, hbm(), 4);
    auto want = spmspmReference(a, b);
    ASSERT_EQ(res.product.nnz(), want.nnz());
    EXPECT_EQ(res.product.colIdx(), want.colIdx());
    EXPECT_LT(relativeError(res.product.values(), want.values()),
              1e-5);
}

TEST(SpmspmApp, ReferenceMatchesDenseMultiply)
{
    auto a = uniformRandomMatrix(40, 40, 0.2, 59);
    auto b = uniformRandomMatrix(40, 40, 0.2, 61);
    auto c = spmspmReference(a, b);
    for (Index i = 0; i < 40; i += 7) {
        for (Index k = 0; k < 40; k += 5) {
            double want = 0;
            for (Index j = 0; j < 40; ++j)
                want += static_cast<double>(a.at(i, j)) * b.at(j, k);
            ASSERT_NEAR(c.at(i, k), want, 1e-4);
        }
    }
}

TEST(BicgstabApp, ResidualShrinks)
{
    // Diagonally dominant system: BiCGStab converges fast.
    auto m = trefethenMatrix(300);
    auto b = denseVec(300, 67);
    auto res = runBicgstab(m, b, 8, hbm(), 4);
    double b_norm = 0;
    for (Index i = 0; i < b.size(); ++i)
        b_norm += static_cast<double>(b[i]) * b[i];
    b_norm = std::sqrt(b_norm);
    EXPECT_LT(res.residual_norm, 0.1 * b_norm);
    EXPECT_GT(res.timing.cycles, 0u);
}

TEST(BicgstabApp, FusionBeatsUnfusedKernels)
{
    // The fused pipeline should cost far less than 2x the SpMV-alone
    // DRAM bytes would suggest for the kernel-by-kernel baselines:
    // only the matrix streams, never the intermediate vectors.
    auto m = loadMatrixDataset("Trefethen_20000", 0.05).matrix;
    auto v = denseVec(m.cols(), 71);
    auto solve = runBicgstab(m, v, 2, hbm(), 8);
    // Per iteration: 2 matrix streams. Intermediates stay on-chip.
    auto bytes = solve.timing.dram.bytes;
    auto one_spmv = runSpmvCsr(m, v, hbm(), 8);
    EXPECT_LT(bytes, 6 * one_spmv.timing.dram.bytes);
}

TEST(AppsTiming, StallInputsArePopulated)
{
    // Large enough that tiles span multiple 256-bit scanner windows,
    // so small frontiers leave empty windows behind.
    auto g = roadGraph(4000, 73);
    auto res = runBfs(g, 0, hbm(), 2);
    const auto &tot = res.timing.totals;
    EXPECT_GT(tot.active_lane_cycles, 0.0);
    EXPECT_GT(tot.scan_empty_cycles, 0.0);
    EXPECT_GT(tot.vector_idle_lane_cycles, 0.0);
    EXPECT_GT(res.timing.dram.bytes, 0u);
}
