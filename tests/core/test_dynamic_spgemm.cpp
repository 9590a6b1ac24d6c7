// Algorithm 1 (algebraic dynamic SpGEMM): the maintained product equals a
// from-scratch recomputation after arbitrary sequences of algebraic updates,
// over (+,*) and (min,+); COMPUTEPATTERN produces a superset structure with
// correct Bloom bits; communication volume beats static SUMMA for small
// batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <random>

#include "common/grid_shapes.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::build_dynamic_matrix;
using core::build_update_matrix;
using core::compute_pattern;
using core::DistDynamicMatrix;
using core::dynamic_spgemm_algebraic;
using core::ProcessGrid;
using core::summa_multiply;
using par::Comm;
using sparse::index_t;
using sparse::MinPlus;
using sparse::PlusTimes;
using sparse::Triple;
using test::as_map;
using test::CoordMap;
using test::random_triples;
using test::reference_add;
using test::reference_multiply;

using dsg::test::Caller;
using dsg::test::GridCase;

class DynSpgemmP : public ::testing::TestWithParam<GridCase> {};

TEST_P(DynSpgemmP, InsertionsIntoAMatchRecompute) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(100);
        const index_t n = 26, kk = 22, m = 24;
        auto ta = random_triples(rng, n, kk, 140);
        auto tb = random_triples(rng, kk, m, 180);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto empty_unless0 = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, kk,
                                                         empty_unless0(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, kk, m,
                                                         empty_unless0(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        CoordMap am = as_map(ta);
        const CoordMap bm = as_map(tb);
        // Three batches of insertions into A (B stays static).
        for (int batch = 0; batch < 3; ++batch) {
            auto upd = random_triples(rng, n, kk, 25);
            sparse::combine_duplicates<PlusTimes<double>>(upd);
            auto Astar = build_update_matrix(grid, n, kk, empty_unless0(upd));
            // Dynamic update of C (the left-update term), then of A itself.
            dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
            core::add_update<PlusTimes<double>>(A, Astar);
            am = reference_add<PlusTimes<double>>(am, upd);
            test::expect_matches(
                C, reference_multiply<PlusTimes<double>>(am, bm));
        }
    });
}

TEST_P(DynSpgemmP, SimultaneousUpdatesOfBothOperands) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(200);
        const index_t n = 20;
        auto ta = random_triples(rng, n, n, 120);
        auto tb = random_triples(rng, n, n, 120);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);
        CoordMap am = as_map(ta), bm = as_map(tb);

        for (int batch = 0; batch < 3; ++batch) {
            auto ua = random_triples(rng, n, n, 20, -4.0, 4.0);
            auto ub = random_triples(rng, n, n, 20, -4.0, 4.0);
            sparse::combine_duplicates<PlusTimes<double>>(ua);
            sparse::combine_duplicates<PlusTimes<double>>(ub);
            auto Astar = build_update_matrix(grid, n, n, feed(ua));
            auto Bstar = build_update_matrix(grid, n, n, feed(ub));
            // C' = C + A* B' + A B*, one call per term: apply B's update
            // *first* so Bprime is available, keep A pre-update for A B*.
            core::add_update<PlusTimes<double>>(B, Bstar);
            dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
            dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Bstar);
            core::add_update<PlusTimes<double>>(A, Astar);
            am = reference_add<PlusTimes<double>>(am, ua);
            bm = reference_add<PlusTimes<double>>(bm, ub);
            test::expect_matches(
                C, reference_multiply<PlusTimes<double>>(am, bm));
        }
    });
}

TEST_P(DynSpgemmP, RingDeletionsViaNegativeUpdates) {
    // In a ring, deleting a_{ij} is the algebraic update a* = -a_{ij}.
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(300);
        const index_t n = 18;
        auto ta = random_triples(rng, n, n, 100);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        auto tb = random_triples(rng, n, n, 100);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        // Cancel one third of A's entries.
        std::vector<Triple<double>> negs;
        CoordMap am = as_map(ta);
        for (std::size_t x = 0; x < ta.size(); x += 3) {
            negs.push_back({ta[x].row, ta[x].col, -ta[x].value});
            am.erase({ta[x].row, ta[x].col});
        }
        auto Astar = build_update_matrix(grid, n, n, feed(negs));
        dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
        core::add_update<PlusTimes<double>>(A, Astar);
        test::expect_matches(C,
                             reference_multiply<PlusTimes<double>>(am, as_map(tb)));
    });
}

TEST_P(DynSpgemmP, CancelledEntriesAreErasedNotStored) {
    // Integer-valued operands, so a deletion a* = -a cancels exactly: every
    // entry of C whose last contribution goes away sums to 0.0, and the
    // absorb must erase it rather than store it.
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(350);
        const index_t n = 18;
        auto integral = [&](int count) {
            auto ts = random_triples(rng, n, n, count);
            for (auto& t : ts) t.value = std::floor(t.value);
            sparse::combine_duplicates<PlusTimes<double>>(ts);
            return ts;
        };
        const auto ta = integral(70);
        const auto tb = integral(70);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        // A* deletes every third entry of A.
        std::vector<Triple<double>> negs;
        CoordMap am = as_map(ta);
        for (std::size_t x = 0; x < ta.size(); x += 3) {
            negs.push_back({ta[x].row, ta[x].col, -ta[x].value});
            am.erase({ta[x].row, ta[x].col});
        }
        const CoordMap expect =
            reference_multiply<PlusTimes<double>>(am, as_map(tb));
        std::size_t emptied = 0;  // entries of A B that A' B lacks
        for (const auto& [coord, v] :
             reference_multiply<PlusTimes<double>>(as_map(ta), as_map(tb)))
            emptied += expect.count(coord) == 0 ? 1 : 0;
        ASSERT_GT(emptied, 0u);

        auto Astar = build_update_matrix(grid, n, n, feed(negs));
        dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
        test::expect_matches_exactly(C, expect);
        for (const auto& t : C.gather_global())
            EXPECT_NE(t.value, 0.0) << "stored zero at (" << t.row << ", "
                                    << t.col << ")";
    });
}

TEST_P(DynSpgemmP, SymmetricTermMatchesCanonicalHalf) {
    // C holds the canonical half of A^2 for a symmetric A. One symmetric
    // term with S = A + A*/2 and a mixed-sign symmetric A* (it deletes every
    // third edge of A, re-weights some and inserts others) must leave
    // exactly the canonical half of A'^2, A' = A + A*, because
    // A'^2 - A^2 = W + W^T for W = S A*. Integer weights keep every sum
    // exact, so the entries whose last two-hop path goes away sum to 0.0
    // and must be erased.
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(800);
        const index_t n = 30;
        // Both directions of `count` random off-diagonal pairs, with
        // integer weights in [lo, hi) (zeros dropped).
        auto symmetric = [&](int count, double lo, double hi) {
            CoordMap upper;
            for (const auto& t : random_triples(rng, n, n, count, lo, hi))
                if (t.row != t.col)
                    upper[{std::min(t.row, t.col), std::max(t.row, t.col)}] =
                        std::floor(t.value);
            std::vector<Triple<double>> ts;
            for (const auto& [uv, v] : upper) {
                if (v == 0.0) continue;
                ts.push_back({uv.first, uv.second, v});
                ts.push_back({uv.second, uv.first, v});
            }
            return ts;
        };
        const auto ta = symmetric(60, 1.0, 4.0);
        auto ua = symmetric(25, -3.0, 4.0);
        for (std::size_t x = 0; x < ta.size(); x += 6) {  // pairs 0, 3, 6, ...
            ua.push_back({ta[x].row, ta[x].col, -ta[x].value});
            ua.push_back({ta[x].col, ta[x].row, -ta[x].value});
        }
        sparse::combine_duplicates<PlusTimes<double>>(ua);
        std::erase_if(ua, [](const Triple<double>& t) { return t.value == 0.0; });
        ASSERT_TRUE(std::any_of(ua.begin(), ua.end(),
                                [](const auto& t) { return t.value > 0.0; }));

        auto nonzero = [](CoordMap m) {
            std::erase_if(m, [](const auto& e) { return e.second == 0.0; });
            return m;
        };
        auto canonical_half = [](const CoordMap& m) {
            CoordMap out;
            for (const auto& [uv, v] : m)
                if (core::is_canonical(uv.first, uv.second) && v != 0.0)
                    out[uv] = v;
            return out;
        };
        // Rank 0 feeds every matrix.
        auto feed = [&](const CoordMap& m) {
            std::vector<Triple<double>> ts;
            if (c.rank() == 0)
                for (const auto& [uv, v] : m) ts.push_back({uv.first, uv.second, v});
            return ts;
        };
        const CoordMap am = as_map(ta);
        std::vector<Triple<double>> half_ua;
        for (const auto& t : ua) half_ua.push_back({t.row, t.col, 0.5 * t.value});
        const CoordMap sm = nonzero(reference_add<PlusTimes<double>>(am, half_ua));
        const CoordMap aprime = nonzero(reference_add<PlusTimes<double>>(am, ua));
        const CoordMap before =
            canonical_half(reference_multiply<PlusTimes<double>>(am, am));

        auto C = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(before));
        const auto S = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(sm));
        const auto Astar = build_update_matrix(grid, n, n, feed(as_map(ua)));
        const double share =
            core::dynamic_spgemm_symmetric<PlusTimes<double>>(C, S, Astar);

        const auto Aprime =
            build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(aprime));
        const CoordMap expect = canonical_half(as_map(
            summa_multiply<PlusTimes<double>>(Aprime, Aprime).gather_global()));
        std::size_t emptied = 0;
        for (const auto& [uv, v] : before) emptied += expect.count(uv) == 0 ? 1 : 0;
        ASSERT_GT(emptied, 0u);
        test::expect_matches_exactly(C, expect);
        for (const auto& t : C.gather_global()) {
            EXPECT_NE(t.row, t.col) << "diagonal entry at " << t.row;
            EXPECT_NE(t.value, 0.0) << "stored zero at (" << t.row << ", "
                                    << t.col << ")";
        }

        // Summed over the ranks, the shares are <W, S>, W = S A*.
        double want = 0.0;
        for (const auto& [uv, w] :
             reference_multiply<PlusTimes<double>>(sm, as_map(ua)))
            if (auto it = sm.find(uv); it != sm.end()) want += w * it->second;
        EXPECT_EQ(c.allreduce<double>(share, std::plus<>{}), want);

        // The checkerboard spreads C: on 2x2 every rank holds at least a
        // sixth of it (the upper triangle would leave block (1, 0) empty).
        const std::size_t total = C.global_nnz();
        if (gc.rows == 2 && gc.cols == 2) {
            EXPECT_GE(6 * C.local().nnz(), total);
        }
    });
}

TEST_P(DynSpgemmP, MinPlusDecreasingUpdatesAreAlgebraic) {
    // (min,+): inserting new entries or decreasing existing ones is algebraic
    // because add = min can only keep or lower values.
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(400);
        const index_t n = 16;
        auto ta = random_triples(rng, n, n, 80, 5.0, 9.0);
        auto tb = random_triples(rng, n, n, 80, 5.0, 9.0);
        sparse::combine_duplicates<MinPlus<double>>(ta);
        sparse::combine_duplicates<MinPlus<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<MinPlus<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<MinPlus<double>>(A, B);
        CoordMap am = as_map(ta);
        for (int batch = 0; batch < 2; ++batch) {
            auto upd = random_triples(rng, n, n, 15, 0.5, 4.0);  // small: wins min
            sparse::combine_duplicates<MinPlus<double>>(upd);
            auto Astar = build_update_matrix(grid, n, n, feed(upd));
            dynamic_spgemm_algebraic<MinPlus<double>>(C, Astar, B);
            core::add_update<MinPlus<double>>(A, Astar);
            am = reference_add<MinPlus<double>>(am, upd);
            // MinPlus result entries equal the recomputation exactly (no
            // cancellation concerns), but C may hold extra structural
            // entries equal to older, larger path weights... it cannot:
            // min-merging only lowers. Compare exactly on values where
            // reference has entries.
            auto expect = reference_multiply<MinPlus<double>>(am, as_map(tb));
            auto got = as_map(C.gather_global());
            for (const auto& [coord, v] : expect) {
                auto it = got.find(coord);
                ASSERT_NE(it, got.end());
                EXPECT_NEAR(it->second, v, 1e-9);
            }
            // Superset direction: every stored entry has a reference value.
            for (const auto& [coord, v] : got)
                EXPECT_TRUE(expect.count(coord)) << coord.first << ","
                                                 << coord.second;
        }
    });
}

TEST_P(DynSpgemmP, PatternIsSupersetWithCorrectBloomBits) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(500);
        const index_t n = 22;
        auto ta = random_triples(rng, n, n, 90);
        auto tb = random_triples(rng, n, n, 90);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto upd = random_triples(rng, n, n, 20);
        sparse::combine_duplicates<PlusTimes<double>>(upd);
        auto Astar = build_update_matrix(grid, n, n, feed(upd));

        // Every cell of the product lm * rm is in the pattern with the bit of
        // each contributing inner index, and every pattern entry is explained
        // by some product.
        auto expect_pattern = [&](const DistDynamicMatrix<std::uint64_t>& P,
                                  const CoordMap& lm, const CoordMap& rm) {
            std::map<std::pair<index_t, index_t>, std::uint64_t> pat;
            for (const auto& t : P.gather_global())
                pat[{t.row, t.col}] = t.value;
            for (const auto& [ca, va] : lm)
                for (const auto& [cb, vb] : rm) {
                    if (ca.second != cb.first) continue;
                    auto it = pat.find({ca.first, cb.second});
                    ASSERT_NE(it, pat.end()) << "pattern misses a changed cell";
                    EXPECT_NE(it->second & sparse::bloom_bit(ca.second), 0u);
                }
            const auto ref = reference_multiply<PlusTimes<double>>(lm, rm);
            for (const auto& [coord, bits] : pat)
                EXPECT_TRUE(ref.count(coord));
        };
        // The term of a left update, A* B, and of a right update, A B*, with
        // the same hypersparse matrix as the update.
        expect_pattern(compute_pattern(Astar, B), as_map(upd), as_map(tb));
        expect_pattern(compute_pattern(A, Astar), as_map(ta), as_map(upd));
    });
}

TEST_P(DynSpgemmP, DynamicBeatsSummaOnCommunicationVolume) {
    // The paper's central claim, checked on the accounting layer: updating
    // C with a small A* moves far fewer bytes than a static SUMMA of A'B.
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        if (c.size() == 1) GTEST_SKIP();  // no communication either way
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(600);
        const index_t n = 64;
        auto ta = random_triples(rng, n, n, 2000);
        auto tb = random_triples(rng, n, n, 2000);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto C = summa_multiply<PlusTimes<double>>(A, B);

        auto upd = random_triples(rng, n, n, 16);
        sparse::combine_duplicates<PlusTimes<double>>(upd);
        auto Astar = build_update_matrix(grid, n, n, feed(upd));

        c.barrier();
        if (c.rank() == 0) c.stats().reset();
        c.barrier();
        dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
        c.barrier();
        const auto dyn = c.stats().snapshot().total_bytes();

        if (c.rank() == 0) c.stats().reset();
        c.barrier();
        auto C2 = summa_multiply<PlusTimes<double>>(A, B);
        c.barrier();
        const auto stat = c.stats().snapshot().total_bytes();
        if (c.rank() == 0) {
            EXPECT_LT(dyn, stat / 2)
                << "dynamic moved " << dyn << " bytes, SUMMA " << stat;
        }
    });
}

TEST_P(DynSpgemmP, AsyncIsBitIdenticalToSync) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        std::mt19937_64 rng(700);
        const index_t n = 30;
        auto ta = random_triples(rng, n, n, 150);
        auto tb = random_triples(rng, n, n, 150);
        sparse::combine_duplicates<PlusTimes<double>>(ta);
        sparse::combine_duplicates<PlusTimes<double>>(tb);
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto A = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(ta));
        auto B = build_dynamic_matrix<PlusTimes<double>>(grid, n, n, feed(tb));
        auto ua = random_triples(rng, n, n, 30, -4.0, 4.0);
        auto ub = random_triples(rng, n, n, 30, -4.0, 4.0);
        sparse::combine_duplicates<PlusTimes<double>>(ua);
        sparse::combine_duplicates<PlusTimes<double>>(ub);
        auto Astar = build_update_matrix(grid, n, n, feed(ua));
        auto Bstar = build_update_matrix(grid, n, n, feed(ub));

        auto run_one = [&](Caller caller) {
            CoordMap out;
            dsg::test::run_with_caller(c, caller, [&] {
                auto C = summa_multiply<PlusTimes<double>>(A, B);
                dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B);
                dynamic_spgemm_algebraic<PlusTimes<double>>(C, A, Bstar);
                out = as_map(C.gather_global());
            });
            return out;
        };
        // A stray handle in flight changes neither the slab exchange nor the
        // round order of the reductions, so the maintained product matches
        // bit for bit.
        EXPECT_EQ(run_one(Caller::Sync), run_one(Caller::Async));
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, DynSpgemmP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
