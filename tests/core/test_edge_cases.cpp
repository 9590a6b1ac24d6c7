// Degenerate shapes and adversarial configurations: dimensions smaller than
// the grid (empty blocks), single-row/column matrices, updates to empty
// matrices, failure injection inside distributed phases.
#include <gtest/gtest.h>

#include <random>

#include "core/dynamic_spgemm.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::build_dynamic_matrix;
using core::build_update_matrix;
using core::DistDcsr;
using core::DistDynamicMatrix;
using core::ProcessGrid;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::PlusTimes;
using sparse::Triple;
using test::as_map;
using test::CoordMap;
using test::reference_multiply;

TEST(EdgeCases, DimensionSmallerThanGridLeavesEmptyBlocks) {
    // n = 3 on a 4x4 grid: the last grid row/column own zero indices.
    run_world(16, [&](Comm& c) {
        ProcessGrid grid(c);
        std::vector<Triple<double>> ts{{0, 0, 1.0}, {1, 2, 2.0}, {2, 1, 3.0}};
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 3, 3, c.rank() == 0 ? ts : std::vector<Triple<double>>{});
        EXPECT_EQ(A.global_nnz(), 3u);
        auto C = core::summa_multiply<PlusTimes<double>>(A, A);
        test::expect_matches(
            C, reference_multiply<PlusTimes<double>>(as_map(ts), as_map(ts)));

        // Dynamic update through the same degenerate distribution.
        auto U = build_update_matrix(
            grid, 3, 3,
            c.rank() == 0 ? std::vector<Triple<double>>{{2, 2, 5.0}}
                          : std::vector<Triple<double>>{});
        core::dynamic_spgemm_algebraic<PlusTimes<double>>(C, U, A);
        core::add_update<PlusTimes<double>>(A, U);
        auto am = as_map(ts);
        am[{2, 2}] = 5.0;
        // C' = (A + A*) A_old here because B stayed the old A; rebuild the
        // expectation accordingly: C + A* A_old.
        auto expect = reference_multiply<PlusTimes<double>>(as_map(ts), as_map(ts));
        CoordMap astar{{{2, 2}, 5.0}};
        for (const auto& [coord, v] :
             reference_multiply<PlusTimes<double>>(astar, as_map(ts)))
            expect[coord] += v;
        test::expect_matches(C, expect);
    });
}

TEST(EdgeCases, OneByOneMatrix) {
    run_world(4, [&](Comm& c) {
        ProcessGrid grid(c);
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 1, 1,
            c.rank() == 0 ? std::vector<Triple<double>>{{0, 0, 3.0}}
                          : std::vector<Triple<double>>{});
        auto C = core::summa_multiply<PlusTimes<double>>(A, A);
        test::expect_matches(C, CoordMap{{{0, 0}, 9.0}});
    });
}

TEST(EdgeCases, SingleRowTimesSingleColumn) {
    run_world(4, [&](Comm& c) {
        ProcessGrid grid(c);
        // (1 x 8) * (8 x 1): the output is a single scalar; every grid rank
        // except one holds empty blocks of some operand.
        std::vector<Triple<double>> row;
        std::vector<Triple<double>> col;
        for (index_t k = 0; k < 8; ++k) {
            row.push_back({0, k, static_cast<double>(k + 1)});
            col.push_back({k, 0, 1.0});
        }
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 1, 8, c.rank() == 0 ? row : std::vector<Triple<double>>{});
        auto B = build_dynamic_matrix<PlusTimes<double>>(
            grid, 8, 1, c.rank() == 0 ? col : std::vector<Triple<double>>{});
        auto C = core::summa_multiply<PlusTimes<double>>(A, B);
        test::expect_matches(C, CoordMap{{{0, 0}, 36.0}});
    });
}

TEST(EdgeCases, UpdatesAgainstCompletelyEmptyMatrices) {
    run_world(9, [&](Comm& c) {
        ProcessGrid grid(c);
        DistDynamicMatrix<double> A(grid, 12, 12);
        DistDynamicMatrix<double> B(grid, 12, 12);
        DistDynamicMatrix<double> C(grid, 12, 12);
        DistDcsr<double> empty(grid, 12, 12);
        // Everything empty: both terms must be clean no-ops on every rank.
        core::dynamic_spgemm_algebraic<PlusTimes<double>>(C, empty, B);
        core::dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, empty);
        EXPECT_EQ(C.global_nnz(), 0u);
        auto pattern = core::compute_pattern(A, empty, B, empty);
        EXPECT_EQ(pattern.global_nnz(), 0u);
    });
}

TEST(EdgeCases, RectangularChainAcrossDifferentShapes) {
    run_world(4, [&](Comm& c) {
        ProcessGrid grid(c);
        std::mt19937_64 rng(5);
        auto ta = test::random_triples(rng, 9, 17, 40);
        auto tb = test::random_triples(rng, 17, 5, 30);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, 9, 17, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, 17, 5, feed(tb));
        auto C = core::summa_multiply<PlusTimes<double>>(A, B);
        test::expect_matches(
            C, reference_multiply<PlusTimes<double>>(as_map(ta), as_map(tb)));
        // Dynamic round over the rectangular shapes.
        auto upd = test::random_triples(rng, 9, 17, 10);
        sparse::combine_duplicates<PlusTimes<double>>(upd);
        auto Astar = build_update_matrix(grid, 9, 17, feed(upd));
        core::dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
        core::add_update<PlusTimes<double>>(A, Astar);
        auto am = test::reference_add<PlusTimes<double>>(as_map(ta), upd);
        test::expect_matches(
            C, reference_multiply<PlusTimes<double>>(am, as_map(tb)));
    });
}

TEST(EdgeCases, ExceptionInsideDistributedPhaseAbortsCleanly) {
    // A rank failing mid-algorithm must not hang the world.
    EXPECT_THROW(
        run_world(4,
                  [&](Comm& c) {
                      ProcessGrid grid(c);
                      DistDynamicMatrix<double> A(grid, 8, 8);
                      if (c.rank() == 3)
                          throw std::runtime_error("injected failure");
                      auto C = core::summa_multiply<PlusTimes<double>>(A, A);
                  }),
        std::runtime_error);
    // And the process is still healthy afterwards.
    run_world(4, [&](Comm& c) {
        const int sum =
            c.allreduce<int>(1, [](int a, int b) { return a + b; });
        EXPECT_EQ(sum, 4);
    });
}

TEST(EdgeCases, CorruptWireBufferThrowsInsteadOfCrashing) {
    par::Buffer junk(13, std::byte{0x5a});
    EXPECT_THROW((void)sparse::Dcsr<double>::deserialize(junk),
                 std::out_of_range);
}

}  // namespace
