// Dynamic graph contraction: C = S^T A S maintained under streaming edges.
//
// Contraction (collapsing clusters into super-vertices and summing edge
// weights between them) is one of the two SpGEMM applications the paper's
// introduction highlights. Here a streaming R-MAT graph is contracted onto
// 64 clusters; both products of the chain T = A S and C = S^T T follow the
// updates dynamically — stage 1 via Algorithm 1, stage 2 via its transposed
// variant (Section V-C) — so only hypersparse matrices ever cross ranks.
//
// Run: ./build/examples/example_graph_contraction
#include <chrono>
#include <cstdio>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "par/comm.hpp"

using namespace dsg;
using Clock = std::chrono::steady_clock;

int main() {
    constexpr int kRanks = 4;
    constexpr int kScale = 12;  // 4096 vertices
    constexpr sparse::index_t kClusters = 64;
    constexpr std::size_t kEdges = 24'000;
    constexpr int kBatches = 4;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const sparse::index_t n = sparse::index_t{1} << kScale;

        // Clusters: round-robin assignment (a community detector would
        // provide this in a real pipeline).
        std::vector<sparse::index_t> assignment(static_cast<std::size_t>(n));
        for (sparse::index_t v = 0; v < n; ++v)
            assignment[static_cast<std::size_t>(v)] = v % kClusters;
        graph::DynamicContraction contraction(grid, n, kClusters, assignment);

        auto edges = graph::simplify(graph::rmat_edges(kScale, kEdges, 77));
        auto feed = [&](std::vector<sparse::Triple<double>> ts) {
            return comm.rank() == 0 ? ts : std::vector<sparse::Triple<double>>{};
        };

        const std::size_t per_batch = edges.size() / kBatches;
        for (int b = 0; b < kBatches; ++b) {
            const std::size_t lo = b * per_batch;
            const std::size_t hi =
                b == kBatches - 1 ? edges.size() : (b + 1) * per_batch;
            std::vector<sparse::Triple<double>> batch(edges.begin() + lo,
                                                      edges.begin() + hi);
            comm.barrier();
            const auto t0 = Clock::now();
            contraction.insert_edges(feed(batch));
            comm.barrier();
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();

            const std::size_t super_edges = contraction.contracted().global_nnz();
            double total_weight = 0.0;
            contraction.contracted().local().for_each(
                [&](sparse::index_t, sparse::index_t, double w) {
                    total_weight += w;
                });
            total_weight = comm.allreduce<double>(
                total_weight, [](double a, double b) { return a + b; });
            if (comm.rank() == 0)
                std::printf(
                    "batch %d (+%zu edges, %.1f ms): contracted graph has "
                    "%zu/%lld super-edges, total weight %.1f\n",
                    b, hi - lo, ms, super_edges,
                    static_cast<long long>(kClusters) * kClusters,
                    total_weight);
        }
    });
    std::printf("graph contraction OK\n");
    return 0;
}
