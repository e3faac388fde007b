/**
 * @file
 * Quickstart: run one sparse kernel on the Capstan simulator.
 *
 * Builds a small CSR matrix, times its product with a dense vector on
 * a simulated Capstan with HBM2E memory, and prints the headline
 * performance counters. The simulator returns timing only, and the
 * timing does not depend on the vector's values; the product with a
 * vector x is spmvReference(matrix, x).
 *
 *   $ ./build/examples/quickstart
 */

#include <cstdio>

#include "apps/spmv.hpp"
#include "workloads/synth.hpp"

using namespace capstan;
using namespace capstan::apps;
namespace sim = capstan::sim;

int
main()
{
    // 1. A workload: a 2,000 x 2,000 circuit-like sparse matrix.
    auto matrix = workloads::circuitMatrix(2000, 14000, /*seed=*/42);

    std::printf("Matrix: %d x %d, %d non-zeros (%.3f%% dense)\n",
                matrix.rows(), matrix.cols(), matrix.nnz(),
                100.0 * matrix.nnz() / matrix.rows() / matrix.cols());

    // 2. A machine: the paper's primary design point (Table 7).
    sim::CapstanConfig cfg =
        sim::CapstanConfig::capstan(sim::MemTech::HBM2E);

    // 3. Run CSR SpMV through the cycle-level timing model.
    AppTiming t = runSpmvCsr(matrix, cfg, /*tiles=*/8);

    // 4. Inspect the timing.
    std::printf("\nSimulated execution (8 tiles, %s):\n",
                sim::memTechName(cfg.dram.tech).c_str());
    std::printf("  cycles          : %llu (%.2f us at %.1f GHz)\n",
                static_cast<unsigned long long>(t.cycles),
                t.runtime_ms * 1000.0, sim::kClockGhz);
    std::printf("  DRAM traffic    : %llu bytes in %llu bursts\n",
                static_cast<unsigned long long>(t.dram.bytes),
                static_cast<unsigned long long>(t.dram.bursts));
    std::printf("  SpMU bank use   : %.1f%% (grants %llu)\n",
                100.0 * t.spmu.bankUtilization(),
                static_cast<unsigned long long>(t.spmu.grants));
    std::printf("  elided reads    : %llu\n",
                static_cast<unsigned long long>(t.spmu.elided_reads));
    std::printf("  active lanes/cyc: %.1f of %d\n",
                t.totals.active_lane_cycles / t.cycles,
                sim::kMaxLanes * 8);
    return 0;
}
