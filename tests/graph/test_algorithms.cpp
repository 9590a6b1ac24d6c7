// Graph algorithms: triangle counting (static + dynamically maintained)
// against combinatorial ground truth; k-hop (min,+) distances against a
// hop-bounded Bellman-Ford reference; dynamic maintenance equals recompute.
#include <gtest/gtest.h>

#include <map>
#include <random>

#include "common/grid_shapes.hpp"
#include "core/dist_test_utils.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"

namespace {

using namespace dsg;
using core::ProcessGrid;
using graph::DynamicMultiSourceProduct;
using graph::DynamicTriangleCounter;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::Triple;

/// Combinatorial reference triangle count on an edge set.
std::size_t brute_force_triangles(const std::vector<Triple<double>>& edges,
                                  index_t n) {
    std::vector<std::vector<bool>> adj(static_cast<std::size_t>(n),
                                       std::vector<bool>(static_cast<std::size_t>(n)));
    for (const auto& e : edges)
        adj[static_cast<std::size_t>(e.row)][static_cast<std::size_t>(e.col)] =
            true;
    std::size_t count = 0;
    for (index_t u = 0; u < n; ++u)
        for (index_t v = static_cast<index_t>(u) + 1; v < n; ++v)
            for (index_t w = v + 1; w < n; ++w)
                if (adj[u][v] && adj[v][w] && adj[u][w]) ++count;
    return count;
}

class AlgoP : public ::testing::TestWithParam<int> {};

TEST_P(AlgoP, TriangleCountOnKnownGraphs) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        // K5: C(5,3) = 10 triangles.
        auto A = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, 5, 5, feed(graph::complete_graph(5)));
        EXPECT_DOUBLE_EQ(graph::triangle_count(A), 10.0);
        // C6 (cycle): no triangles.
        auto edges = graph::symmetrize(graph::cycle_graph(6));
        auto B = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, 6, 6, feed(edges));
        EXPECT_DOUBLE_EQ(graph::triangle_count(B), 0.0);
        // Star: no triangles.
        auto S = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, 8, 8, feed(graph::star_graph(8)));
        EXPECT_DOUBLE_EQ(graph::triangle_count(S), 0.0);
    });
}

TEST_P(AlgoP, TriangleCountMatchesBruteForceOnRandomGraph) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 24;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 150, 5));
        for (auto& e : edges) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(edges));
        auto A = core::build_dynamic_matrix<sparse::PlusTimes<double>>(
            grid, n, n,
            c.rank() == 0 ? sym : std::vector<Triple<double>>{});
        EXPECT_DOUBLE_EQ(graph::triangle_count(A),
                         static_cast<double>(brute_force_triangles(sym, n)));
    });
}

TEST_P(AlgoP, DynamicTriangleCounterTracksInsertions) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 20;
        std::mt19937_64 rng(99);
        auto all = graph::simplify(graph::erdos_renyi_edges(n, 120, 6));
        for (auto& e : all) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(all));
        // Split into an initial half and three batches of undirected edges.
        std::vector<Triple<double>> undirected;
        for (const auto& e : sym)
            if (e.row < e.col) undirected.push_back(e);
        const std::size_t half = undirected.size() / 2;

        auto both_dirs = [](const std::vector<Triple<double>>& es) {
            std::vector<Triple<double>> out;
            for (const auto& e : es) {
                out.push_back(e);
                out.push_back({e.col, e.row, e.value});
            }
            return out;
        };
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };

        DynamicTriangleCounter counter(grid, n);
        std::vector<Triple<double>> current(undirected.begin(),
                                            undirected.begin() + half);
        counter.initialize(feed(both_dirs(current)));
        EXPECT_DOUBLE_EQ(
            counter.count(),
            static_cast<double>(brute_force_triangles(both_dirs(current), n)));

        const std::size_t rest = undirected.size() - half;
        for (int batch = 0; batch < 3; ++batch) {
            const std::size_t b = half + batch * rest / 3;
            const std::size_t e = half + (batch + 1) * rest / 3;
            std::vector<Triple<double>> newly(undirected.begin() + b,
                                              undirected.begin() + e);
            counter.update(feed(both_dirs(newly)));
            current.insert(current.end(), newly.begin(), newly.end());
            EXPECT_DOUBLE_EQ(counter.count(),
                             static_cast<double>(brute_force_triangles(
                                 both_dirs(current), n)))
                << "batch " << batch;
        }
    });
}

/// Hop-bounded (min,+) reference distances.
std::map<std::pair<index_t, index_t>, double> reference_khop(
    const std::vector<Triple<double>>& edges, index_t n,
    const std::vector<index_t>& sources, int hops) {
    std::map<std::pair<index_t, index_t>, double> dist;
    const double inf = std::numeric_limits<double>::infinity();
    for (std::size_t s = 0; s < sources.size(); ++s) {
        std::vector<double> d(static_cast<std::size_t>(n), inf);
        std::vector<double> cur(static_cast<std::size_t>(n), inf);
        cur[static_cast<std::size_t>(sources[s])] = 0.0;
        for (int h = 0; h < hops; ++h) {
            std::vector<double> nxt(static_cast<std::size_t>(n), inf);
            for (const auto& e : edges) {
                const double via = cur[static_cast<std::size_t>(e.row)] + e.value;
                auto& slot = nxt[static_cast<std::size_t>(e.col)];
                if (via < slot) slot = via;
            }
            for (index_t v = 0; v < n; ++v) {
                d[static_cast<std::size_t>(v)] = std::min(
                    d[static_cast<std::size_t>(v)], nxt[static_cast<std::size_t>(v)]);
                cur[static_cast<std::size_t>(v)] =
                    std::min(cur[static_cast<std::size_t>(v)],
                             nxt[static_cast<std::size_t>(v)]);
            }
        }
        for (index_t v = 0; v < n; ++v)
            if (d[static_cast<std::size_t>(v)] < inf)
                dist[{static_cast<index_t>(s), v}] = d[static_cast<std::size_t>(v)];
    }
    return dist;
}

TEST_P(AlgoP, KhopDistancesMatchReference) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 18;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 60, 11));
        const std::vector<index_t> sources{0, 5, 17};
        auto A = core::build_dynamic_matrix<sparse::MinPlus<double>>(
            grid, n, n, c.rank() == 0 ? edges : std::vector<Triple<double>>{});
        auto S = graph::source_selector(grid, n, sources);
        for (int hops : {1, 2, 3}) {
            auto D = graph::khop_distances(A, S, hops);
            auto expect = reference_khop(edges, n, sources, hops);
            std::map<std::pair<index_t, index_t>, double> got;
            for (const auto& t : D.gather_global()) got[{t.row, t.col}] = t.value;
            ASSERT_EQ(got.size(), expect.size()) << "hops " << hops;
            for (const auto& [coord, v] : expect) {
                ASSERT_TRUE(got.count(coord));
                EXPECT_NEAR(got[coord], v, 1e-9);
            }
        }
    });
}

TEST_P(AlgoP, DynamicMultiSourceProductTracksDecreases) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 16;
        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 40, 13));
        const std::vector<index_t> sources{1, 8};
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        DynamicMultiSourceProduct msp(grid, n, sources);
        const std::size_t half = edges.size() / 2;
        std::vector<Triple<double>> current(edges.begin(), edges.begin() + half);
        msp.initialize(feed(current));

        std::vector<Triple<double>> batch(edges.begin() + half, edges.end());
        msp.apply_decreases(feed(batch));
        current.insert(current.end(), batch.begin(), batch.end());

        auto expect = reference_khop(current, n, sources, 1);
        std::map<std::pair<index_t, index_t>, double> got;
        for (const auto& t : msp.distances().gather_global())
            got[{t.row, t.col}] = t.value;
        ASSERT_EQ(got.size(), expect.size());
        for (const auto& [coord, v] : expect) {
            ASSERT_TRUE(got.count(coord));
            EXPECT_NEAR(got[coord], v, 1e-9);
        }
    });
}

TEST_P(AlgoP, DynamicTriangleCounterTracksDeletions) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 18;
        auto all = graph::simplify(graph::erdos_renyi_edges(n, 90, 31));
        for (auto& e : all) e.value = 1.0;
        auto sym = graph::simplify(graph::symmetrize(all));
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
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        graph::DynamicTriangleCounter counter(grid, n);
        counter.initialize(feed(both(undirected)));
        EXPECT_DOUBLE_EQ(counter.count(),
                         static_cast<double>(
                             brute_force_triangles(both(undirected), n)));

        // Remove every fourth edge in two batches of -1 updates; the count
        // must track exactly.
        auto removal = [&](const std::vector<Triple<double>>& es) {
            auto out = both(es);
            for (auto& e : out) e.value = -1.0;
            return out;
        };
        std::vector<Triple<double>> doomed;
        std::vector<Triple<double>> kept;
        for (std::size_t x = 0; x < undirected.size(); ++x)
            (x % 4 == 0 ? doomed : kept).push_back(undirected[x]);
        const std::size_t half = doomed.size() / 2;
        std::vector<Triple<double>> first(doomed.begin(), doomed.begin() + half);
        std::vector<Triple<double>> second(doomed.begin() + half, doomed.end());

        counter.update(feed(removal(first)));
        std::vector<Triple<double>> current = kept;
        current.insert(current.end(), second.begin(), second.end());
        EXPECT_DOUBLE_EQ(counter.count(),
                         static_cast<double>(
                             brute_force_triangles(both(current), n)));

        counter.update(feed(removal(second)));
        EXPECT_DOUBLE_EQ(counter.count(),
                         static_cast<double>(brute_force_triangles(both(kept), n)));
        // A's structural size matches the surviving edge set.
        EXPECT_EQ(counter.adjacency().global_nnz(), 2 * kept.size());
    });
}

TEST_P(AlgoP, DynamicContractionMatchesDirectComputation) {
    run_world(GetParam(), [&](Comm& c) {
        ProcessGrid grid(c);
        const index_t n = 30;
        const index_t clusters = 5;
        std::vector<index_t> assignment(static_cast<std::size_t>(n));
        for (index_t v = 0; v < n; ++v)
            assignment[static_cast<std::size_t>(v)] = v % clusters;

        auto edges = graph::simplify(graph::erdos_renyi_edges(n, 120, 21));
        auto feed = [&](std::vector<Triple<double>> ts) {
            return c.rank() == 0 ? ts : std::vector<Triple<double>>{};
        };
        graph::DynamicContraction contraction(grid, n, clusters, assignment);

        // Stream edges in three batches; after each, the contracted matrix
        // must equal the direct aggregation of all edges seen so far.
        std::map<std::pair<index_t, index_t>, double> expect;
        const std::size_t third = edges.size() / 3;
        for (int b = 0; b < 3; ++b) {
            const std::size_t lo = b * third;
            const std::size_t hi = b == 2 ? edges.size() : (b + 1) * third;
            std::vector<Triple<double>> batch(edges.begin() + lo,
                                              edges.begin() + hi);
            contraction.insert_edges(feed(batch));
            for (const auto& e : batch)
                expect[{assignment[static_cast<std::size_t>(e.row)],
                        assignment[static_cast<std::size_t>(e.col)]}] += e.value;
            auto got = contraction.contracted().gather_global();
            std::map<std::pair<index_t, index_t>, double> gm;
            for (const auto& t : got) gm[{t.row, t.col}] = t.value;
            for (const auto& [coord, v] : expect) {
                ASSERT_TRUE(gm.count(coord)) << "batch " << b;
                EXPECT_NEAR(gm[coord], v, 1e-9);
            }
            for (const auto& [coord, v] : gm) {
                if (!expect.count(coord)) {
                    EXPECT_NEAR(v, 0.0, 1e-9);
                }
            }
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Worlds, AlgoP, ::testing::Values(1, 4));

class TriangleCounterG : public ::testing::TestWithParam<dsg::test::GridCase> {};

// Three batches that each insert and remove at once: A* holds +1 and -1
// entries, and in the first some entry of C receives contributions of both
// signs within one pass of Algorithm 1 (checked on the input below).
// Between the second and the third batch the counter round-trips through
// save/load into a freshly constructed one, which rescans its count share.
// After every batch the count must equal a brute-force count, the counter
// must hold exactly the live edges, and C = A·A entry for entry with no
// stored zeros.
TEST_P(TriangleCounterG, MixedSignBatchMatchesRecomputation) {
    const dsg::test::GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        const index_t n = 24;
        auto all = graph::simplify(graph::erdos_renyi_edges(n, 150, 41));
        std::vector<Triple<double>> undirected;
        for (const auto& e : graph::simplify(graph::symmetrize(all)))
            if (e.row < e.col) undirected.push_back({e.row, e.col, 1.0});

        // Seed the first two thirds of the edges. The first batch removes
        // every third seeded edge and inserts the last third. All lists hold
        // both directions of each edge; live is the graph after a batch.
        const std::size_t seeded = 2 * undirected.size() / 3;
        std::vector<Triple<double>> seed, batch, live;
        std::vector<bool> in(undirected.size());  // edge x is live
        auto both = [](std::vector<Triple<double>>& out, const Triple<double>& e,
                       double value) {
            out.push_back({e.row, e.col, value});
            out.push_back({e.col, e.row, value});
        };
        for (std::size_t x = 0; x < undirected.size(); ++x) {
            const auto& e = undirected[x];
            if (x >= seeded) {
                both(batch, e, 1.0);
                both(live, e, 1.0);
                in[x] = true;
            } else if (x % 3 == 0) {
                both(seed, e, 1.0);
                both(batch, e, -1.0);
            } else {
                both(seed, e, 1.0);
                both(live, e, 1.0);
                in[x] = true;
            }
        }
        std::vector<std::vector<double>> a_old(n, std::vector<double>(n)),
            a_star(n, std::vector<double>(n));
        for (const auto& e : seed) a_old[e.row][e.col] = e.value;
        for (const auto& e : batch) a_star[e.row][e.col] = e.value;
        bool mixed = false;  // some C(i, j) += A_old(i, k) A*(k, j) of both signs
        for (index_t i = 0; i < n; ++i)
            for (index_t j = 0; j < n; ++j) {
                bool pos = false, neg = false;
                for (index_t k = 0; k < n; ++k) {
                    pos = pos || a_old[i][k] * a_star[k][j] > 0.0;
                    neg = neg || a_old[i][k] * a_star[k][j] < 0.0;
                }
                mixed = mixed || (pos && neg);
            }
        ASSERT_TRUE(mixed);

        // Batch b > 1 removes the live edges with x % 5 == b and inserts the
        // absent ones with x % 2 == b % 2; live follows.
        auto next_batch = [&](std::size_t b) {
            std::vector<Triple<double>> out;
            live.clear();
            bool inserts = false, removes = false;
            for (std::size_t x = 0; x < undirected.size(); ++x) {
                if (in[x] && x % 5 == b) {
                    both(out, undirected[x], -1.0);
                    in[x] = false;
                    removes = true;
                } else if (!in[x] && x % 2 == b % 2) {
                    both(out, undirected[x], 1.0);
                    in[x] = true;
                    inserts = true;
                }
                if (in[x]) both(live, undirected[x], 1.0);
            }
            EXPECT_TRUE(inserts && removes) << "batch " << b;
            return out;
        };

        // Every rank contributes a share of each batch.
        auto share = [&](const std::vector<Triple<double>>& ts) {
            std::vector<Triple<double>> mine;
            for (auto x = static_cast<std::size_t>(c.rank()); x < ts.size();
                 x += static_cast<std::size_t>(c.size()))
                mine.push_back(ts[x]);
            return mine;
        };
        auto expect_live = [&](const DynamicTriangleCounter& counter, int b) {
            EXPECT_DOUBLE_EQ(counter.count(),
                             static_cast<double>(brute_force_triangles(live, n)))
                << "batch " << b;
            EXPECT_EQ(counter.adjacency().global_nnz(), live.size());
            const auto& A = counter.adjacency();
            const auto C = core::summa_multiply<sparse::PlusTimes<double>>(A, A);
            dsg::test::expect_matches_exactly(counter.square(),
                                              dsg::test::as_map(C.gather_global()));
            for (const auto& t : counter.square().gather_global())
                EXPECT_NE(t.value, 0.0) << "batch " << b << ": stored zero at ("
                                        << t.row << ", " << t.col << ")";
        };

        DynamicTriangleCounter counter(grid, n);
        counter.initialize(share(seed));
        counter.update(share(batch));
        expect_live(counter, 1);
        counter.update(share(next_batch(2)));
        expect_live(counter, 2);

        par::Buffer saved;
        counter.save(saved);
        DynamicTriangleCounter restored(grid, n);
        par::BufferReader in_saved(saved);
        restored.load(in_saved);
        EXPECT_DOUBLE_EQ(restored.count(), counter.count());
        restored.update(share(next_batch(3)));
        expect_live(restored, 3);
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, TriangleCounterG,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
