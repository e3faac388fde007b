/**
 * @file
 * Sparse tensor algebra on Capstan: Gustavson SpMSpM and bit-tree
 * matrix addition, the two kernels that exercise vectorized
 * sparse-sparse iteration (Sections 2.3-2.4).
 *
 * Times C = A*B followed by D = C + C^T (the products and sums come
 * from the golden references; the simulator returns timing), and
 * demonstrates why the bit-tree format matters: the same addition with
 * flat bit-vector rows wastes scanner cycles on zero windows.
 *
 *   $ ./build/examples/sparse_tensor_pipeline
 */

#include <cstdio>

#include "apps/matadd.hpp"
#include "apps/spmspm.hpp"
#include "workloads/synth.hpp"

using namespace capstan;
using namespace capstan::apps;
namespace sim = capstan::sim;

int
main()
{
    sim::CapstanConfig cfg =
        sim::CapstanConfig::capstan(sim::MemTech::HBM2E);

    // --- Stage 1: SpMSpM, C = A * B (row-based Gustavson). Very
    // sparse operands give C rows under 1% density - exactly where
    // Section 2.3 says flat bit-vectors break down.
    auto a = workloads::uniformRandomMatrix(4096, 4096, 0.0015, 3);
    auto b = workloads::uniformRandomMatrix(4096, 4096, 0.0015, 5);
    AppTiming mm = runSpmspm(a, b, cfg, 8);
    auto c = spmspmReference(a, b);
    std::printf("SpMSpM: (%d x %d, %d nnz) * (%d nnz) -> %d nnz, "
                "%llu cycles\n",
                a.rows(), a.cols(), a.nnz(), b.nnz(), c.nnz(),
                static_cast<unsigned long long>(mm.cycles));

    // --- Stage 2: M+M, D = C + C^T with bit-tree iteration.
    auto ct = c.transpose();
    AppTiming add = runMatAdd(c, ct, cfg, 8, true);
    auto d = matAddReference(c, ct);
    std::printf("M+M   : %d nnz + %d nnz -> %d nnz, %llu cycles "
                "(bit-tree)\n",
                c.nnz(), ct.nnz(), d.nnz(),
                static_cast<unsigned long long>(add.cycles));

    // --- The format ablation on an extremely sparse operand (a
    // circuit matrix: ~7 non-zeros per 30,000-column row). Flat
    // bit-vector rows make the scanner walk >100 zero windows per row;
    // two-level bit-trees skip the empty leaves (Section 2.3).
    auto e = workloads::circuitMatrix(30000, 200000, 9);
    auto et = e.transpose();
    AppTiming abl_tree = runMatAdd(e, et, cfg, 8, true);
    AppTiming abl_flat = runMatAdd(e, et, cfg, 8, false);
    std::printf("\nFormat ablation on a %.3f%%-dense circuit "
                "matrix:\n",
                100.0 * e.nnz() / e.rows() / e.cols());
    std::printf("  bit-tree rows   : %llu cycles\n",
                static_cast<unsigned long long>(abl_tree.cycles));
    std::printf("  flat bit-vectors: %llu cycles (%.1fx slower; "
                "%.0f cycles on zero windows)\n",
                static_cast<unsigned long long>(abl_flat.cycles),
                static_cast<double>(abl_flat.cycles) / abl_tree.cycles,
                abl_flat.totals.scan_empty_cycles);
    return 0;
}
