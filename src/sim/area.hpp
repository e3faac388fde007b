/**
 * @file
 * Analytic area and power model (Tables 4, 5, and 8).
 *
 * The paper synthesizes Plasticine plus the Capstan units with Synopsys
 * Design Compiler on the FreePDK15 predictive library at 1.6 GHz. No EDA
 * flow is available offline, so this model anchors to the published
 * numbers and scales parametrically in between: scheduler area grows
 * linearly in queue depth with a fixed adder per unit of crossbar
 * input speedup; scanner area grows with window width and output count. Exact published design points are reproduced verbatim from
 * lookup tables so the area benches regenerate the paper's tables.
 */

#pragma once

#include <string>
#include <vector>

#include "sim/config.hpp"

namespace capstan::sim {

/** Scheduler (issue queue + allocator + crossbars) area in um^2. */
double schedulerAreaUm2(int queue_depth, int crossbar_inputs);

/** Bit-scanner area in um^2 for a given width and output vectorization. */
double scannerAreaUm2(int window_bits, int outputs);

/** One row of the chip-level area breakdown (Table 8). */
struct AreaRow
{
    std::string unit;
    double each_mm2;  //!< Area per instance.
    int count;        //!< Instances on the chip.
    double total_mm2() const { return each_mm2 * count; }
};

/** Chip-level area/power summary. */
struct ChipArea
{
    std::vector<AreaRow> rows;
    double power_w;

    double totalMm2() const;
};

/** Plasticine baseline breakdown (Table 8, left columns). */
ChipArea plasticineArea();

/** Capstan breakdown (Table 8, right columns). */
ChipArea capstanArea();

/**
 * Fraction of on-chip compute+memory area a mapping occupies when it
 * uses @p cus compute units and @p mus memory units of the Table 7 grid
 * (Fig. 5b's x-axis).
 */
double weightedAreaFraction(int cus, int mus);

} // namespace capstan::sim

