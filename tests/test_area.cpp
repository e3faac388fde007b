/**
 * @file
 * Tests for the analytic area/power model (Tables 4, 5, 8).
 */

#include <gtest/gtest.h>

#include "sim/area.hpp"
#include "sim/stats.hpp"

using namespace capstan::sim;

TEST(Area, SchedulerMatchesPublishedPoints)
{
    // Table 4 "Sched." column, reproduced verbatim.
    EXPECT_DOUBLE_EQ(schedulerAreaUm2(8, 16), 38052.0);
    EXPECT_DOUBLE_EQ(schedulerAreaUm2(8, 32), 48938.0);
    EXPECT_DOUBLE_EQ(schedulerAreaUm2(16, 16), 51359.0);
    EXPECT_DOUBLE_EQ(schedulerAreaUm2(16, 32), 62918.0);
    EXPECT_DOUBLE_EQ(schedulerAreaUm2(32, 16), 79301.0);
    EXPECT_DOUBLE_EQ(schedulerAreaUm2(32, 32), 90433.0);
}

TEST(Area, SchedulerModelInterpolatesSensibly)
{
    double d12 = schedulerAreaUm2(12, 16);
    EXPECT_GT(d12, schedulerAreaUm2(8, 16));
    EXPECT_LT(d12, schedulerAreaUm2(16, 16));
}

TEST(Area, ScannerMatchesPublishedPoints)
{
    // Table 5, all fifteen published cells.
    EXPECT_DOUBLE_EQ(scannerAreaUm2(128, 1), 2157.0);
    EXPECT_DOUBLE_EQ(scannerAreaUm2(128, 16), 9456.0);
    EXPECT_DOUBLE_EQ(scannerAreaUm2(256, 4), 6927.0);
    EXPECT_DOUBLE_EQ(scannerAreaUm2(256, 16), 19898.0);
    EXPECT_DOUBLE_EQ(scannerAreaUm2(512, 1), 7777.0);
    EXPECT_DOUBLE_EQ(scannerAreaUm2(512, 16), 42997.0);
}

TEST(Area, ChosenScannerSavesOverMaximal)
{
    // Paper: the 256x16 scanner uses 54% less area than 512x16.
    double chosen = scannerAreaUm2(256, 16);
    double maximal = scannerAreaUm2(512, 16);
    EXPECT_NEAR(1.0 - chosen / maximal, 0.54, 0.02);
}

TEST(Area, ChipTotalsMatchTable8)
{
    ChipArea p = plasticineArea();
    ChipArea c = capstanArea();
    EXPECT_NEAR(p.totalMm2(), 158.6, 0.5);
    EXPECT_NEAR(c.totalMm2(), 184.5, 0.5);
    // Headline claims: +16% area, +12% power.
    EXPECT_NEAR(c.totalMm2() / p.totalMm2(), 1.16, 0.01);
    EXPECT_NEAR(c.power_w / p.power_w, 1.12, 0.01);
}

TEST(Area, WeightedFractionScalesWithUnits)
{
    double f_all = weightedAreaFraction(200, 200);
    double f_half = weightedAreaFraction(100, 100);
    EXPECT_NEAR(f_all, 1.0, 1e-9);
    EXPECT_NEAR(f_half, 0.5, 1e-9);
    EXPECT_GT(weightedAreaFraction(100, 50), weightedAreaFraction(50, 50));
}

TEST(Stats, BreakdownPercentagesSumTo100)
{
    StallBreakdown b;
    b[StallClass::Active] = 50;
    b[StallClass::Scan] = 25;
    b[StallClass::Dram] = 25;
    EXPECT_DOUBLE_EQ(b.total(), 100.0);
    EXPECT_DOUBLE_EQ(b.percent(StallClass::Active), 50.0);
    EXPECT_DOUBLE_EQ(b.percent(StallClass::Scan), 25.0);
    EXPECT_DOUBLE_EQ(b.percent(StallClass::Dram), 25.0);
}

TEST(Stats, LayeredBreakdownAttributesDeltas)
{
    StallBreakdown synth;
    synth[StallClass::Active] = 100;
    StallBreakdown full =
        layerBreakdown(synth, 100.0, 120.0, 150.0, 200.0, 1.0);
    EXPECT_DOUBLE_EQ(full[StallClass::Network], 20.0);
    EXPECT_DOUBLE_EQ(full[StallClass::Sram], 30.0);
    EXPECT_DOUBLE_EQ(full[StallClass::Dram], 50.0);
    EXPECT_DOUBLE_EQ(full[StallClass::Active], 100.0);
}

TEST(Stats, LayeredBreakdownClampsNegativeDeltas)
{
    StallBreakdown synth;
    StallBreakdown full =
        layerBreakdown(synth, 100.0, 95.0, 95.0, 100.0, 2.0);
    EXPECT_DOUBLE_EQ(full[StallClass::Network], 0.0);
    EXPECT_DOUBLE_EQ(full[StallClass::Dram], 10.0);
}

TEST(Stats, ClassNamesAreStable)
{
    EXPECT_EQ(stallClassName(StallClass::Active), "Active");
    EXPECT_EQ(stallClassName(StallClass::LoadStore), "Load/Store");
    EXPECT_EQ(stallClassName(StallClass::VectorLength), "Vector Length");
}
