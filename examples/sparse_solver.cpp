/**
 * @file
 * A fused sparse linear solver on Capstan: BiCGStab over a
 * finite-element-style system (Section 4.4's kernel-fusion showcase).
 *
 * Krylov solvers chain sparse matrix-vector products with dense dot
 * products and vector updates. On kernel-driven machines every step is
 * a separate launch with DRAM round-trips for the intermediates; on
 * Capstan the whole iteration fuses into streaming pipelines, so only
 * the matrix ever leaves DRAM. This example times the solver, tracks
 * the residual the golden reference solve leaves, and reports how
 * little DRAM traffic the fused solver needs relative to its unfused
 * footprint.
 *
 *   $ ./build/examples/sparse_solver
 */

#include <cmath>
#include <cstdio>

#include "apps/bicgstab.hpp"
#include "workloads/synth.hpp"

using namespace capstan;
using namespace capstan::apps;
namespace sim = capstan::sim;

int
main()
{
    // A diagonally dominant Trefethen-style stiffness matrix.
    auto matrix = workloads::trefethenMatrix(4096);
    sparse::DenseVector b(matrix.rows());
    for (Index i = 0; i < b.size(); ++i)
        b[i] = std::sin(0.37 * i) + 1.5f;

    std::printf("System: %d unknowns, %d non-zeros\n", matrix.rows(),
                matrix.nnz());

    sim::CapstanConfig cfg =
        sim::CapstanConfig::capstan(sim::MemTech::HBM2E);

    double b_norm = 0;
    for (Index i = 0; i < b.size(); ++i)
        b_norm += static_cast<double>(b[i]) * b[i];
    b_norm = std::sqrt(b_norm);

    std::printf("\n%-10s  %-14s  %-12s  %s\n", "iterations",
                "rel. residual", "cycles", "DRAM bytes");
    for (int iters : {1, 2, 4, 8}) {
        auto x = bicgstabReference(matrix, b, iters);
        AppTiming t = runBicgstab(matrix, iters, cfg, 8);
        std::printf("%-10d  %-14.3e  %-12llu  %llu\n", iters,
                    residualNorm(matrix, b, x) / b_norm,
                    static_cast<unsigned long long>(t.cycles),
                    static_cast<unsigned long long>(t.dram.bytes));
    }

    // Fusion headline: per iteration the solver streams the matrix
    // twice and nothing else; an unfused implementation would add ~10
    // vector round-trips of n words each.
    AppTiming one = runBicgstab(matrix, 1, cfg, 8);
    double matrix_bytes = 2.0 * (8.0 * matrix.nnz() + 4 * matrix.rows());
    double unfused_extra = 10.0 * 8.0 * matrix.rows();
    std::printf("\nFused DRAM bytes/iteration   : %llu\n",
                static_cast<unsigned long long>(one.dram.bytes));
    std::printf("Matrix stream alone          : %.0f\n", matrix_bytes);
    std::printf("Unfused intermediates avoided: %.0f (%.0f%% extra)\n",
                unfused_extra, 100.0 * unfused_extra / matrix_bytes);
    return 0;
}
