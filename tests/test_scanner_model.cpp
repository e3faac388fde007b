/**
 * @file
 * Tests for the scanner timing model (Section 3.3, Fig. 6, Table 5).
 */

#include <gtest/gtest.h>

#include <random>

#include "sim/scanner.hpp"

using namespace capstan::sim;
using capstan::Index;
using capstan::sparse::BitVector;

TEST(ScannerModel, EmptyWindowCostsOneCycle)
{
    ScannerModel m(ScannerConfig{});
    EXPECT_EQ(m.cyclesForWindow(0), 1u);
}

TEST(ScannerModel, FullWindowCostsCeilPopOverOutputs)
{
    ScannerConfig cfg;
    cfg.outputs = 16;
    ScannerModel m(cfg);
    EXPECT_EQ(m.cyclesForWindow(1), 1u);
    EXPECT_EQ(m.cyclesForWindow(16), 1u);
    EXPECT_EQ(m.cyclesForWindow(17), 2u);
    EXPECT_EQ(m.cyclesForWindow(256), 16u);
}

TEST(ScannerModel, NarrowOutputsSlowDenseWindows)
{
    ScannerConfig wide;
    wide.outputs = 16;
    ScannerConfig narrow;
    narrow.outputs = 4;
    EXPECT_EQ(ScannerModel(wide).cyclesForWindow(64), 4u);
    EXPECT_EQ(ScannerModel(narrow).cyclesForWindow(64), 16u);
}

TEST(ScannerModel, ScanRegionAccountsEmptyWindows)
{
    ScannerModel m(ScannerConfig{});
    // Windows cost 1 (empty) + 1 (5 bits) + 1 + 1 (empty) + 2 (20 bits
    // at 16 outputs/cycle) = 6 cycles, 3 of them on empty windows.
    ScanTiming t = m.scanRegion({0, 5, 0, 0, 20});
    EXPECT_EQ(t.cycles, 6u);
    EXPECT_EQ(t.empty_window_cycles, 3u);
    EXPECT_EQ(t.outputs, 25u);
    EXPECT_EQ(t.output_vectors, 3u);
}

TEST(ScannerModel, BitVectorScanMatchesManualWindows)
{
    ScannerConfig cfg;
    cfg.window_bits = 64;
    cfg.outputs = 4;
    ScannerModel m(cfg);
    // 256-bit space: 17 bits in window 0, none in 1-2, 2 in window 3.
    BitVector a(256);
    for (Index i = 0; i < 17; ++i)
        a.set(i);
    a.set(200);
    a.set(210);
    BitVector all(256);
    for (Index i = 0; i < 256; ++i)
        all.set(i);
    ScanTiming t = m.scanBitVectors(a, all, ScanMode::Intersect);
    // Window 0: ceil(17/4)=5 cycles; windows 1,2: 1 each; window 3: 1.
    EXPECT_EQ(t.cycles, 8u);
    EXPECT_EQ(t.empty_window_cycles, 2u);
    EXPECT_EQ(t.outputs, 19u);
}

TEST(ScannerModel, UnionModeCountsEitherInput)
{
    ScannerConfig cfg;
    cfg.window_bits = 64;
    ScannerModel m(cfg);
    BitVector a(64);
    BitVector b(64);
    a.set(0);
    a.set(1);
    b.set(62);
    b.set(63);
    ScanTiming inter = m.scanBitVectors(a, b, ScanMode::Intersect);
    ScanTiming uni = m.scanBitVectors(a, b, ScanMode::Union);
    EXPECT_EQ(inter.outputs, 0u);
    EXPECT_EQ(inter.empty_window_cycles, 1u);
    EXPECT_EQ(uni.outputs, 4u);
}

TEST(ScannerModel, ScalarScannerIsDramaticallySlower)
{
    // Fig. 6a: a single-bit scanner on sparse bit-vectors is a massive
    // slowdown because it traverses every zero.
    ScannerConfig vec;
    vec.window_bits = 256;
    vec.outputs = 16;
    ScannerConfig scalar;
    scalar.window_bits = 1;
    scalar.outputs = 1;
    BitVector frontier(4096);
    for (Index i = 0; i < 4096; i += 97)
        frontier.set(i);
    // Union of the frontier with itself: the frontier alone.
    Cycle cv = ScannerModel(vec)
                   .scanBitVectors(frontier, frontier, ScanMode::Union)
                   .cycles;
    Cycle cs = ScannerModel(scalar)
                   .scanBitVectors(frontier, frontier, ScanMode::Union)
                   .cycles;
    EXPECT_GE(cs, 64 * cv);
}

/** Property: total outputs equal total set bits regardless of config. */
TEST(ScannerModelProperty, OutputsConserveSetBits)
{
    std::mt19937 rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        ScannerConfig cfg;
        cfg.window_bits = 1 << (4 + rng() % 6); // 16..512
        cfg.outputs = 1 << (rng() % 5);         // 1..16
        ScannerModel m(cfg);
        BitVector a(2048);
        BitVector b(2048);
        for (Index i = 0; i < 2048; ++i) {
            if (rng() % 5 == 0)
                a.set(i);
            if (rng() % 3 == 0)
                b.set(i);
        }
        ScanTiming ti = m.scanBitVectors(a, b, ScanMode::Intersect);
        ScanTiming tu = m.scanBitVectors(a, b, ScanMode::Union);
        ASSERT_EQ(ti.outputs, static_cast<std::uint64_t>((a & b).count()));
        ASSERT_EQ(tu.outputs, static_cast<std::uint64_t>((a | b).count()));
        // Cycle cost lower bounds.
        ASSERT_GE(ti.cycles,
                  static_cast<Cycle>(2048 / cfg.window_bits));
        ASSERT_GE(tu.cycles * cfg.outputs, tu.outputs);
    }
}
