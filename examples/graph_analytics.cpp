/**
 * @file
 * Graph analytics on Capstan: BFS, SSSP, and PageRank over a synthetic
 * road network and a power-law web graph — the workloads the paper's
 * introduction motivates. Shows how the two graph structures stress the
 * architecture differently: road networks have deep traversals with
 * tiny frontiers (network-latency-bound), power-law graphs have hubs
 * that hammer the SpMU banks. BFS and SSSP return the traversal that
 * drives their timing; PageRank returns timing only, so its ranks come
 * from the golden reference.
 *
 *   $ ./build/examples/graph_analytics
 */

#include <cstdio>
#include <limits>

#include "apps/graph.hpp"
#include "apps/pagerank.hpp"
#include "workloads/synth.hpp"

using namespace capstan;
using namespace capstan::apps;
using namespace capstan::workloads;
namespace sim = capstan::sim;

namespace {

void
analyzeGraph(const char *name, const sparse::CsrMatrix &g)
{
    sim::CapstanConfig cfg =
        sim::CapstanConfig::capstan(sim::MemTech::HBM2E);
    std::printf("=== %s: %d vertices, %d edges ===\n", name, g.rows(),
                g.nnz());

    // Breadth-first search from vertex 0.
    BfsResult bfs = runBfs(g, 0, cfg, 8);
    Index reached = 0;
    Index depth = 0;
    for (Index v = 0; v < static_cast<Index>(bfs.level.size()); ++v) {
        if (bfs.level[v] >= 0) {
            ++reached;
            depth = std::max(depth, bfs.level[v]);
        }
    }
    std::printf("  BFS   : reached %d vertices, depth %d, "
                "%llu cycles\n",
                reached, depth,
                static_cast<unsigned long long>(bfs.timing.cycles));

    // Single-source shortest paths with the min-report-changed RMW.
    SsspResult sssp = runSssp(g, 0, cfg, 8);
    double max_dist = 0;
    for (Value d : sssp.dist) {
        if (d < std::numeric_limits<Value>::infinity())
            max_dist = std::max<double>(max_dist, d);
    }
    std::printf("  SSSP  : farthest reachable vertex at distance "
                "%.2f, %llu cycles\n",
                max_dist,
                static_cast<unsigned long long>(sssp.timing.cycles));

    // PageRank both ways; the paper notes the pull/edge choice matters
    // (Fig. 7): pull loses lanes on low-degree vertices, edge streaming
    // takes SRAM conflicts on hubs.
    AppTiming pull = runPageRankPull(g, 5, cfg, 8);
    AppTiming edge = runPageRankEdge(g, 5, cfg, 8);
    auto ranks = pageRankReference(g, 5);
    Index top = 0;
    for (Index v = 0; v < ranks.size(); ++v) {
        if (ranks[v] > ranks[top])
            top = v;
    }
    std::printf("  PR    : top vertex %d (rank %.2e); pull %llu vs "
                "edge %llu cycles -> use %s here\n",
                top, ranks[top],
                static_cast<unsigned long long>(pull.cycles),
                static_cast<unsigned long long>(edge.cycles),
                pull.cycles < edge.cycles ? "pull" : "edge");
    std::printf("\n");
}

} // namespace

int
main()
{
    analyzeGraph("Road network (usroads-like)", roadGraph(20000, 7));
    analyzeGraph("Web graph (power-law R-MAT)",
                 rmatGraph(16384, 120000, 11));
    return 0;
}
