// Static sparse SUMMA against the serial reference, over several semirings,
// grid sizes and rectangular shapes; Bloom filter production invariants.
#include <gtest/gtest.h>

#include <random>

#include "common/grid_shapes.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::build_dynamic_matrix;
using core::DistDynamicMatrix;
using core::ProcessGrid;
using core::summa_multiply;
using core::SummaOptions;
using par::Comm;
using sparse::index_t;
using sparse::MinPlus;
using sparse::PlusTimes;
using sparse::Triple;
using test::as_map;
using test::CoordMap;
using test::random_triples;
using test::reference_multiply;
using dsg::test::Caller;
using dsg::test::GridCase;

class SummaP : public ::testing::TestWithParam<GridCase> {};

TEST_P(SummaP, PlusTimesMatchesReference) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(42);  // same seed on all ranks: rank 0 feeds
        auto ta = random_triples(rng, 33, 27, 250);
        auto tb = random_triples(rng, 27, 31, 250);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 33, 27, c.rank() == 0 ? ta : std::vector<Triple<double>>{});
        auto B = build_dynamic_matrix<PlusTimes<double>>(
            grid, 27, 31, c.rank() == 0 ? tb : std::vector<Triple<double>>{});
        auto C = summa_multiply<PlusTimes<double>>(A, B);
        test::expect_matches(
            C, reference_multiply<PlusTimes<double>>(as_map(ta), as_map(tb)));
    });
}

TEST_P(SummaP, MinPlusMatchesReference) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(43);
        auto ta = random_triples(rng, 20, 20, 150);
        auto tb = random_triples(rng, 20, 20, 150);
        sparse::combine_duplicates<MinPlus<double>>(ta);
        sparse::combine_duplicates<MinPlus<double>>(tb);
        auto A = build_dynamic_matrix<MinPlus<double>>(
            grid, 20, 20, c.rank() == 0 ? ta : std::vector<Triple<double>>{});
        auto B = build_dynamic_matrix<MinPlus<double>>(
            grid, 20, 20, c.rank() == 0 ? tb : std::vector<Triple<double>>{});
        auto C = summa_multiply<MinPlus<double>>(A, B);
        test::expect_matches_exactly(
            C, reference_multiply<MinPlus<double>>(as_map(ta), as_map(tb)));
    });
}

TEST_P(SummaP, EmptyOperandsGiveEmptyResult) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        DistDynamicMatrix<double> A(grid, 12, 12);
        DistDynamicMatrix<double> B(grid, 12, 12);
        auto C = summa_multiply<PlusTimes<double>>(A, B);
        EXPECT_EQ(C.global_nnz(), 0u);
    });
}

TEST_P(SummaP, BloomFilterCoversEveryContribution) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(44);
        auto ta = random_triples(rng, 30, 30, 220);
        auto tb = random_triples(rng, 30, 30, 220);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 30, 30, c.rank() == 0 ? ta : std::vector<Triple<double>>{});
        auto B = build_dynamic_matrix<PlusTimes<double>>(
            grid, 30, 30, c.rank() == 0 ? tb : std::vector<Triple<double>>{});
        DistDynamicMatrix<double> C(grid, 30, 30);
        DistDynamicMatrix<std::uint64_t> F(grid, 30, 30);
        SummaOptions opts;
        opts.bloom_out = &F;
        core::summa<PlusTimes<double>>(C, A, B, opts);

        // Gather F and check: for every contributing term a_{ik} b_{kj},
        // bit (k mod 64) of f_{ij} is set.
        auto fmap = [&] {
            std::map<std::pair<index_t, index_t>, std::uint64_t> m;
            for (const auto& t : F.gather_global()) m[{t.row, t.col}] = t.value;
            return m;
        }();
        auto am = as_map(ta);
        auto bm = as_map(tb);
        for (const auto& [ca, va] : am)
            for (const auto& [cb, vb] : bm) {
                if (ca.second != cb.first) continue;
                auto it = fmap.find({ca.first, cb.second});
                ASSERT_NE(it, fmap.end());
                EXPECT_NE(it->second & sparse::bloom_bit(ca.second), 0u);
            }
        // F and C have identical sparsity structure.
        EXPECT_EQ(F.global_nnz(), C.global_nnz());
    });
}

TEST_P(SummaP, MaskedSummaRestrictsToMask) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(45);
        auto ta = random_triples(rng, 24, 24, 200);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 24, 24, c.rank() == 0 ? ta : std::vector<Triple<double>>{});
        // Mask = pattern of A itself (the triangle-counting shape A.*(A*A)),
        // as a DCSR of this rank's block.
        sparse::Dcsr<std::uint64_t> mask(A.local().nrows(), A.local().ncols());
        for (index_t i = 0; i < mask.nrows(); ++i) {
            mask.begin_row(i);
            for (const auto& e : A.local().row(i)) mask.push_entry(e.col, 1);
            mask.end_row();
        }
        SummaOptions opts;
        opts.local_mask = &mask;
        auto C = summa_multiply<PlusTimes<double>>(A, A, opts);

        auto full = reference_multiply<PlusTimes<double>>(as_map(ta), as_map(ta));
        CoordMap expect;
        auto am = as_map(ta);
        for (const auto& [coord, v] : full)
            if (am.count(coord) != 0) expect[coord] = v;
        test::expect_matches(C, expect);
    });
}

TEST_P(SummaP, ThreadedSummaMatchesSequential) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        par::ThreadPool pool(2);
        std::mt19937_64 rng(46);
        auto ta = random_triples(rng, 40, 40, 400);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 40, 40, c.rank() == 0 ? ta : std::vector<Triple<double>>{});
        auto C1 = summa_multiply<PlusTimes<double>>(A, A);
        SummaOptions opts;
        opts.pool = &pool;
        auto C2 = summa_multiply<PlusTimes<double>>(A, A, opts);
        EXPECT_EQ(as_map(C1.gather_global()), as_map(C2.gather_global()));
    });
}

TEST_P(SummaP, AsyncIsBitIdenticalToSync) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(47);
        auto ta = random_triples(rng, 29, 29, 260);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        auto A = build_dynamic_matrix<PlusTimes<double>>(
            grid, 29, 29, c.rank() == 0 ? ta : std::vector<Triple<double>>{});
        auto run_one = [&](Caller caller) {
            CoordMap out;
            dsg::test::run_with_caller(c, caller, [&] {
                out = as_map(
                    summa_multiply<PlusTimes<double>>(A, A).gather_global());
            });
            return out;
        };
        // Exact map equality: a stray handle in flight changes neither the
        // stage broadcasts nor the reduction order, so values match bit for
        // bit.
        EXPECT_EQ(run_one(Caller::Sync), run_one(Caller::Async));
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, SummaP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
