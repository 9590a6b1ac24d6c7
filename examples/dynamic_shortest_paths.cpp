// Dynamic multi-source shortest paths over the (min,+) semiring.
//
// Phase 1 (algebraic): new roads open / travel times drop — min-compatible
// updates maintained with Algorithm 1 (one hypersparse broadcast per batch).
// Phase 2 (general): a road closure *increases* distances, which (min,+)
// addition cannot express — the general algorithm (Algorithm 2) recomputes
// exactly the affected product entries, using the Bloom filter matrix to ship
// only the relevant rows/columns.
//
// Run: ./build/examples/example_dynamic_shortest_paths
#include <cstdio>

#include "core/general_spgemm.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "par/comm.hpp"

using namespace dsg;

int main() {
    constexpr int kRanks = 4;
    constexpr sparse::index_t kN = 600;
    const std::vector<sparse::index_t> kSources{0, 17, 99};

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        auto feed = [&](std::vector<sparse::Triple<double>> ts) {
            return comm.rank() == 0 ? ts : std::vector<sparse::Triple<double>>{};
        };

        // A weighted sparse road network.
        auto roads = graph::simplify(graph::erdos_renyi_edges(kN, 3000, 5));
        const std::size_t half = roads.size() / 2;

        // ---- Phase 1: algebraic decreases --------------------------------
        graph::DynamicMultiSourceProduct msp(grid, kN, kSources);
        msp.initialize(feed({roads.begin(), roads.begin() + half}));
        // global_nnz() is collective — call it on every rank, print on one.
        std::size_t reachable = msp.distances().global_nnz();
        if (comm.rank() == 0)
            std::printf("phase 1: %zu reachable one-hop pairs from %zu sources\n",
                        reachable, kSources.size());

        msp.apply_decreases(feed({roads.begin() + half, roads.end()}));
        reachable = msp.distances().global_nnz();
        if (comm.rank() == 0)
            std::printf("after opening %zu new roads: %zu reachable pairs\n",
                        roads.size() - half, reachable);

        // ---- Phase 2: a general update (closure) -------------------------
        // Rebuild state with Bloom filter F so Algorithm 2 can run.
        auto A = core::build_dynamic_matrix<sparse::MinPlus<double>>(
            grid, kN, kN, feed(roads));
        auto S = graph::source_selector(grid, kN, kSources);
        core::DistDynamicMatrix<double> D(grid,
                                          static_cast<sparse::index_t>(
                                              kSources.size()),
                                          kN);
        core::DistDynamicMatrix<std::uint64_t> F(
            grid, static_cast<sparse::index_t>(kSources.size()), kN);
        core::SummaOptions sopts;
        sopts.bloom_out = &F;
        core::summa<sparse::MinPlus<double>>(D, S, A, sopts);

        // Close the first 20 roads: deletion = general update of the right
        // operand of D = S*A.
        std::vector<sparse::Triple<double>> closures(roads.begin(),
                                                     roads.begin() + 20);
        auto Bstar = core::build_update_matrix(grid, kN, kN, feed(closures));
        auto Dstar = core::compute_pattern(S, Bstar);  // S is unchanged
        core::mask_delete(A, Bstar);

        auto stats = core::general_dynamic_spgemm<sparse::MinPlus<double>>(
            D, F, S, A, Dstar);
        const std::size_t pairs_now = D.global_nnz();  // collective
        if (comm.rank() == 0) {
            std::printf(
                "phase 2: closed 20 roads; %zu product entries recomputed\n",
                stats.cstar_nnz_global);
            std::printf(
                "Bloom filter shipped %zu of %zu selector non-zeros "
                "(%.0f%% filtered away)\n",
                stats.ar_nnz_global, stats.aprime_nnz_global,
                100.0 * (1.0 - static_cast<double>(stats.ar_nnz_global) /
                                   static_cast<double>(
                                       stats.aprime_nnz_global == 0
                                           ? 1
                                           : stats.aprime_nnz_global)));
            std::printf("reachable pairs now: %zu\n", pairs_now);
        }
    });
    std::printf("shortest paths OK\n");
    return 0;
}
