// Quickstart: the end-to-end tour of the public API.
//
//   1. start a 2x2 rank grid (the MPI substitute runs ranks as threads);
//   2. build a distributed dynamic matrix from scattered edge tuples;
//   3. apply an insertion batch through the two-phase redistribution;
//   4. compute C = A*B statically (SUMMA), then keep it up to date with the
//      algebraic dynamic SpGEMM while more batches stream in;
//   5. print non-zero counts and the communication volume both paths used.
//
// Build: cmake --build build --target example_quickstart
// Run:   ./build/examples/example_quickstart
#include <cinttypes>
#include <cstdio>
#include <random>

#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "graph/generators.hpp"
#include "par/comm.hpp"

using namespace dsg;

int main() {
    constexpr int kRanks = 4;  // 2x2 process grid
    constexpr sparse::index_t kN = 2000;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);

        // Every rank contributes its own slice of edges, with no knowledge of
        // the distribution — exactly the update model of the paper.
        auto edges = graph::erdos_renyi_edges(
            kN, 4000, 42 + static_cast<std::uint64_t>(comm.rank()));

        // A and B: distributed dynamic matrices (DHB blocks per rank).
        auto A = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, kN, kN, edges);
        auto B = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, kN, kN, graph::erdos_renyi_edges(
                              kN, 4000, 77 + static_cast<std::uint64_t>(comm.rank())));
        // global_nnz() is collective: every rank must call it, so hoist it
        // out of the rank-0-only print.
        const std::size_t a_nnz = A.global_nnz();
        const std::size_t b_nnz = B.global_nnz();
        if (comm.rank() == 0)
            std::printf("built A (nnz %zu) and B (nnz %zu) on a %dx%d grid\n",
                        a_nnz, b_nnz, grid.rows(), grid.cols());

        // Initial product, statically (sparse SUMMA).
        auto C = core::summa_multiply<sparse::PlusTimes<double>>(A, B);
        const std::size_t c_nnz = C.global_nnz();
        if (comm.rank() == 0)
            std::printf("initial C = A*B has %zu non-zeros\n", c_nnz);

        // Stream three insertion batches into A; C follows dynamically.
        std::mt19937_64 rng(7 + static_cast<std::uint64_t>(comm.rank()));
        for (int batch = 0; batch < 3; ++batch) {
            std::vector<sparse::Triple<double>> updates;
            for (int e = 0; e < 500; ++e)
                updates.push_back({static_cast<sparse::index_t>(rng() % kN),
                                   static_cast<sparse::index_t>(rng() % kN),
                                   1.0});

            comm.barrier();
            if (comm.rank() == 0) comm.stats().reset();
            comm.barrier();

            // C += A* B: the term of a left update (B is static).
            auto Astar = core::build_update_matrix(grid, kN, kN, updates);
            core::dynamic_spgemm_algebraic<sparse::PlusTimes<double>>(C, Astar,
                                                                      B);
            core::add_update<sparse::PlusTimes<double>>(A, Astar);

            comm.barrier();
            const auto dyn_bytes = comm.stats().snapshot().total_bytes();
            if (comm.rank() == 0) comm.stats().reset();
            comm.barrier();
            auto C_check = core::summa_multiply<sparse::PlusTimes<double>>(A, B);
            comm.barrier();
            const auto summa_bytes = comm.stats().snapshot().total_bytes();

            const std::size_t an = A.global_nnz();
            const std::size_t cn = C.global_nnz();
            if (comm.rank() == 0)
                std::printf(
                    "batch %d: nnz(A) %zu, nnz(C) %zu | dynamic moved %" PRIu64
                    " bytes vs %" PRIu64 " for a static recompute (%.1fx less)\n",
                    batch, an, cn, dyn_bytes,
                    summa_bytes,
                    static_cast<double>(summa_bytes) /
                        static_cast<double>(dyn_bytes == 0 ? 1 : dyn_bytes));
        }
    });
    std::printf("quickstart OK\n");
    return 0;
}
