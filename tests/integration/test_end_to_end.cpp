// End-to-end integration: a streaming analytics pipeline exercising every
// layer together — construction, batched insertions/updates/deletions,
// algebraic and general dynamic SpGEMM, Bloom maintenance, the applications,
// and intra-rank threading — verified against recomputation at every step.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "core/ewise.hpp"
#include "core/general_spgemm.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "../core/dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::ProcessGrid;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::MinPlus;
using sparse::PlusTimes;
using sparse::Triple;

struct Config {
    int ranks;
    int threads;
};

class EndToEnd : public ::testing::TestWithParam<Config> {};

TEST_P(EndToEnd, StreamingProductMaintenanceLifecycle) {
    const auto [ranks, threads] = GetParam();
    run_world(ranks, [&](Comm& c) {
        ProcessGrid grid(c);
        par::ThreadPool pool(threads);
        core::DynamicSpgemmOptions dyn_opts;
        dyn_opts.pool = &pool;
        const index_t n = 64;

        // --- Phase 1: streaming construction + algebraic maintenance ------
        auto all_edges = graph::simplify(
            graph::symmetrize(graph::rmat_edges(6, 600, 42)));
        auto B = core::build_dynamic_matrix<PlusTimes<double>>(
            grid, n, n,
            c.rank() == 0 ? all_edges : std::vector<Triple<double>>{});
        core::DistDynamicMatrix<double> A(grid, n, n);
        core::DistDynamicMatrix<double> C(grid, n, n);

        const std::size_t kBatch = all_edges.size() / 5;
        for (int b = 0; b < 5; ++b) {
            const std::size_t lo = b * kBatch;
            const std::size_t hi =
                b == 4 ? all_edges.size() : (b + 1) * kBatch;
            std::vector<Triple<double>> batch(all_edges.begin() + lo,
                                              all_edges.begin() + hi);
            auto Astar = core::build_update_matrix(
                grid, n, n,
                c.rank() == 0 ? batch : std::vector<Triple<double>>{});
            core::dynamic_spgemm_algebraic<PlusTimes<double>>(C, Astar, B,
                                                              dyn_opts);
            core::add_update<PlusTimes<double>>(A, Astar, &pool);
        }
        // C must equal the static product of the final A and B.
        core::SummaOptions sopts;
        sopts.pool = &pool;
        auto C_ref = core::summa_multiply<PlusTimes<double>>(A, B, sopts);
        test::expect_matches(C, test::as_map(C_ref.gather_global()));

        // --- Phase 2: (min,+) pipeline with general updates ---------------
        auto Amin = core::build_dynamic_matrix<MinPlus<double>>(
            grid, n, n,
            c.rank() == 0 ? all_edges : std::vector<Triple<double>>{});
        core::DistDynamicMatrix<double> D(grid, n, n);
        core::DistDynamicMatrix<std::uint64_t> F(grid, n, n);
        core::SummaOptions bloom_opts;
        bloom_opts.bloom_out = &F;
        bloom_opts.pool = &pool;
        core::summa<MinPlus<double>>(D, Amin, B, bloom_opts);

        // Delete a slice of A's entries and bump some weights upward — both
        // general updates under (min,+).
        std::mt19937_64 rng(7);
        std::vector<Triple<double>> doomed;
        std::vector<Triple<double>> bumped;
        for (std::size_t x = 0; x < all_edges.size(); ++x) {
            if (x % 9 == 0) doomed.push_back(all_edges[x]);
            else if (x % 9 == 1)
                bumped.push_back({all_edges[x].row, all_edges[x].col,
                                  all_edges[x].value + 50.0});
        }
        std::vector<Triple<double>> changed = doomed;
        changed.insert(changed.end(), bumped.begin(), bumped.end());
        auto feed = [&](const std::vector<Triple<double>>& ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        auto Astar = core::build_update_matrix(grid, n, n, feed(changed));
        core::DistDcsr<double> Bstar(grid, n, n);
        auto Dstar = core::compute_pattern(Amin, Astar, B, Bstar, dyn_opts);
        core::mask_delete(Amin, core::build_update_matrix(grid, n, n,
                                                          feed(doomed)),
                          &pool);
        core::merge_update(Amin, core::build_update_matrix(grid, n, n,
                                                           feed(bumped)),
                           &pool);
        core::GeneralSpgemmOptions gopts;
        gopts.pool = &pool;
        core::general_dynamic_spgemm<MinPlus<double>>(D, F, Amin, B, Dstar,
                                                      gopts);
        auto D_ref = core::summa_multiply<MinPlus<double>>(Amin, B, sopts);
        const auto dm = test::as_map(D.gather_global());
        const auto rm = test::as_map(D_ref.gather_global());
        ASSERT_EQ(dm.size(), rm.size());
        for (const auto& [coord, v] : rm) {
            auto it = dm.find(coord);
            ASSERT_NE(it, dm.end());
            EXPECT_NEAR(it->second, v, 1e-9);
        }

        // --- Phase 3: cleanup operations stay consistent -------------------
        const double before = core::ewise_reduce(
            D, 0.0,
            [](double acc, index_t, index_t, double v) { return acc + v; },
            [](double a, double b) { return a + b; });
        core::ewise_apply(D, [](index_t, index_t, double v) { return v * 2; });
        const double after = core::ewise_reduce(
            D, 0.0,
            [](double acc, index_t, index_t, double v) { return acc + v; },
            [](double a, double b) { return a + b; });
        EXPECT_NEAR(after, 2 * before, 1e-6);
    });
}

TEST_P(EndToEnd, ApplicationsAgreeWithEachOther) {
    const auto [ranks, threads] = GetParam();
    run_world(ranks, [&](Comm& c) {
        ProcessGrid grid(c);
        par::ThreadPool pool(threads);
        const index_t n = 48;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 200, 9));
        for (auto& e : edges) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(edges));
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };

        // Dynamic counter streamed in two halves == static count at the end.
        std::vector<Triple<double>> undirected;
        for (const auto& e : sym)
            if (e.row < e.col) undirected.push_back(e);
        auto both = [](const std::vector<Triple<double>>& es) {
            std::vector<Triple<double>> out;
            for (const auto& e : es) {
                out.push_back(e);
                out.push_back({e.col, e.row, e.value});
            }
            return out;
        };
        graph::DynamicTriangleCounter counter(grid, n, &pool);
        const std::size_t half = undirected.size() / 2;
        counter.initialize(feed(both(
            {undirected.begin(), undirected.begin() + half})));
        counter.update(feed(both(
            {undirected.begin() + half, undirected.end()})));

        auto Adj = core::build_dynamic_matrix<PlusTimes<double>>(
            grid, n, n, feed(sym));
        EXPECT_DOUBLE_EQ(counter.count(), graph::triangle_count(Adj, &pool));
    });
}

INSTANTIATE_TEST_SUITE_P(Configs, EndToEnd,
                         ::testing::Values(Config{1, 1}, Config{4, 1},
                                           Config{4, 2}, Config{9, 2}));

}  // namespace
