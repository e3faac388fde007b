#include "sim/area.hpp"

#include <cmath>

namespace capstan::sim {

namespace {

struct SchedPoint
{
    int depth;
    int inputs;
    double um2;
};

/** Published synthesis points (Table 4, "Sched." column). */
constexpr SchedPoint kSchedPoints[] = {
    {8, 16, 38052.0},  {8, 32, 48938.0},  {16, 16, 51359.0},
    {16, 32, 62918.0}, {32, 16, 79301.0}, {32, 32, 90433.0},
};

struct ScanPoint
{
    int width;
    int outputs;
    double um2;
};

/** Published synthesis points (Table 5). */
constexpr ScanPoint kScanPoints[] = {
    {128, 1, 2157.0},   {128, 2, 2765.0},  {128, 4, 3645.0},
    {128, 8, 5591.0},   {128, 16, 9456.0}, {256, 1, 3985.0},
    {256, 2, 5231.0},   {256, 4, 6927.0},  {256, 8, 10674.0},
    {256, 16, 19898.0}, {512, 1, 7777.0},  {512, 2, 10447.0},
    {512, 4, 14377.0},  {512, 8, 22562.0}, {512, 16, 42997.0},
};

} // namespace

double
schedulerAreaUm2(int queue_depth, int crossbar_inputs)
{
    for (const SchedPoint &p : kSchedPoints) {
        if (p.depth == queue_depth && p.inputs == crossbar_inputs)
            return p.um2;
    }
    // Fit to the published points: ~1730 um^2 per queue slot, ~24k um^2
    // fixed (allocator + output stage), ~11.2k um^2 per extra 16 inputs.
    return 24000.0 + 1730.0 * queue_depth +
           11200.0 * (crossbar_inputs / 16.0 - 1.0);
}

double
scannerAreaUm2(int window_bits, int outputs)
{
    for (const ScanPoint &p : kScanPoints) {
        if (p.width == window_bits && p.outputs == outputs)
            return p.um2;
    }
    // Encoder array scales with width x outputs; priority-select logic
    // scales with width log width. Calibrated to the published grid.
    double w = window_bits;
    double v = outputs;
    return 6.0 * w * std::log2(std::max(2.0, w)) / 4.0 + 4.9 * w * v / 2.0 +
           900.0;
}

double
ChipArea::totalMm2() const
{
    double t = 0.0;
    for (const AreaRow &r : rows)
        t += r.total_mm2();
    return t;
}

ChipArea
plasticineArea()
{
    // Table 8, Plasticine columns.
    ChipArea a;
    a.rows = {
        {"Compute Unit", 0.401, 200},
        {"Memory Unit", 0.199, 200},
        {"DRAM AG", 0.030, 80},
        {"Shuffle Networks", 0.0, 1},
        {"On-Chip Net", 0.075, 484},
    };
    a.power_w = 155.0;
    return a;
}

ChipArea
capstanArea()
{
    // Table 8, Capstan columns. Per-unit deltas: the CU adds the scanner
    // (4.7%) and format converter (0.5%); the MU adds bank FPUs (4.5%)
    // and the allocator (0.8%) plus 1R1W banking; the AG adds atomic
    // functional units (13.8%) and the decompressor (6.0%).
    ChipArea a;
    a.rows = {
        {"Compute Unit", 0.423, 200},
        {"Memory Unit", 0.251, 200},
        {"DRAM AG", 0.087, 80},
        {"Shuffle Networks", 1.064, 6},
        {"On-Chip Net", 0.075, 484},
    };
    a.power_w = 174.0;
    return a;
}

double
weightedAreaFraction(int cus, int mus)
{
    ChipArea chip = capstanArea();
    double cu_each = chip.rows[0].each_mm2;
    double mu_each = chip.rows[1].each_mm2;
    double used = cu_each * cus + mu_each * mus;
    double avail = cu_each * kGridComputeUnits +
                   mu_each * kGridMemoryUnits;
    return used / avail;
}

} // namespace capstan::sim
