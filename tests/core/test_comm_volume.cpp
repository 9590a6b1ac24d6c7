// Traffic pins: the exact bytes each distributed kernel moves, per
// collective kind, on one seeded input per grid shape. Communication volume
// is deterministic, so any change to a kernel's schedule that alters what
// crosses rank boundaries (an extra broadcast, a lost filter, a different
// slab routing) fails here even when the numerical result stays right.
// Every call must also leave no posted collective unwaited.
#include <gtest/gtest.h>

#include <chrono>
#include <ostream>
#include <random>
#include <set>
#include <utility>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "common/grid_shapes.hpp"
#include "core/dynamic_spgemm.hpp"
#include "core/general_spgemm.hpp"
#include "core/redistribute.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "dist_test_utils.hpp"
#include "stream/epoch_engine.hpp"

namespace {

using namespace dsg;
using core::DistDcsr;
using core::DistDynamicMatrix;
using core::ProcessGrid;
using dsg::test::GridCase;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::MinPlus;
using sparse::PlusTimes;
using sparse::Triple;
using test::random_triples;

/// Bytes per collective kind and the collective count of one kernel call,
/// summed over all ranks.
struct Traffic {
    std::uint64_t bcast = 0, alltoall = 0, reduce = 0, gather = 0, p2p = 0,
                  collectives = 0;
    bool operator==(const Traffic&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Traffic& t) {
    return os << "{bcast " << t.bcast << ", alltoall " << t.alltoall
              << ", reduce " << t.reduce << ", gather " << t.gather
              << ", p2p " << t.p2p << ", collectives " << t.collectives << "}";
}

/// The pinned traffic of one kernel on the 2x2 and on the 2x3 grid.
struct Pin {
    Traffic g2x2, g2x3;
};

/// Runs fn collectively and returns the traffic it caused. The barriers
/// fence the snapshots so no other communication falls between them.
template <typename Fn>
Traffic measure(Comm& c, Fn&& fn) {
    c.barrier();
    const auto before = c.stats().snapshot();
    c.barrier();
    fn();
    c.barrier();
    const auto after = c.stats().snapshot();
    c.barrier();
    EXPECT_EQ(after.async_posted, after.async_completed)
        << "a posted collective was never waited on";
    return {after.bcast_bytes - before.bcast_bytes,
            after.alltoall_bytes - before.alltoall_bytes,
            after.reduce_bytes - before.reduce_bytes,
            after.gather_bytes - before.gather_bytes,
            after.p2p_bytes - before.p2p_bytes,
            after.collectives - before.collectives};
}

/// Per-rank seeded inputs: every rank contributes its own tuples, so the
/// redistribution inside each build moves data from every rank.
struct Fixture {
    static constexpr index_t n = 96;  // divisible by p = 4 and p = 6
    ProcessGrid grid;
    index_t p, rank;
    std::mt19937_64 rng;

    Fixture(Comm& c, const GridCase& gc)
        : grid(dsg::test::make_grid(c, gc)),
          p(c.size()),
          rank(c.rank()),
          rng(1234 + static_cast<std::uint64_t>(c.rank())) {}

    std::vector<Triple<double>> tuples(int count) {
        return random_triples(rng, n, n, count);
    }
    template <typename SR>
    DistDynamicMatrix<double> matrix(int count) {
        return core::build_dynamic_matrix<SR>(grid, n, n, tuples(count));
    }
    /// Update matrix from coordinates unique across ranks: this rank draws
    /// only rows congruent to its rank mod p.
    DistDcsr<double> update(int count, double lo = 1.0, double hi = 9.0) {
        auto ts = random_triples(rng, n / p, n, count, lo, hi);
        for (auto& t : ts) t.row = t.row * p + rank;
        sparse::combine_duplicates<MinPlus<double>>(ts);
        return core::build_update_matrix(grid, n, n, std::move(ts));
    }
};

/// An engine configuration whose next pump() applies everything pushed so
/// far as one epoch: the deadline has always passed.
stream::EngineConfig one_pump_epochs() {
    stream::EngineConfig cfg;
    cfg.epoch_batch = 4096;
    cfg.epoch_deadline = std::chrono::milliseconds(0);
    return cfg;
}

template <typename Engine>
void push_ops(Engine& engine, stream::OpKind kind,
              const std::vector<Triple<double>>& ts) {
    for (const auto& t : ts) ASSERT_TRUE(engine.queue().push({kind, t}));
}

class CommVolumeP : public ::testing::TestWithParam<GridCase> {
protected:
    /// Measures `kernel(fixture)` on every rank of the case's grid and
    /// checks the result against the shape's pin.
    template <typename Kernel>
    void expect_traffic(const Pin& pin, Kernel&& kernel) {
        const GridCase gc = GetParam();
        const Traffic& want = gc.cols == 2 ? pin.g2x2 : pin.g2x3;
        run_world(gc.p(), [&](Comm& c) {
            Fixture fx(c, gc);
            const Traffic got = kernel(c, fx);
            if (c.rank() == 0) {
                EXPECT_EQ(got, want);
            }
        });
    }
};

TEST_P(CommVolumeP, SummaWithBloomFilter) {
    expect_traffic({{42752, 0, 0, 0, 0, 16}, {97184, 0, 0, 0, 0, 48}},
                   [](Comm& c, Fixture& fx) {
                       auto A = fx.matrix<MinPlus<double>>(300);
                       auto B = fx.matrix<MinPlus<double>>(300);
                       DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
                       DistDynamicMatrix<std::uint64_t> F(fx.grid, fx.n, fx.n);
                       core::SummaOptions opts;
                       opts.bloom_out = &F;
                       return measure(c, [&] {
                           core::summa<MinPlus<double>>(C, A, B, opts);
                       });
                   });
}

/// Algorithm 1 on both operands, one call per term: the traffic of one
/// update.
Traffic algebraic_dynamic_spgemm(Comm& c, Fixture& fx) {
    using SR = PlusTimes<double>;
    auto A = fx.matrix<SR>(300);
    auto B = fx.matrix<SR>(300);
    auto C = core::summa_multiply<SR>(A, B);
    const auto Astar = fx.update(12);
    const auto Bstar = fx.update(12);
    core::add_update<SR>(B, Bstar);
    return measure(c, [&] {
        core::dynamic_spgemm_algebraic<SR>(C, Astar, B);
        core::dynamic_spgemm_algebraic<SR>(C, A, Bstar);
    });
}

TEST_P(CommVolumeP, AlgebraicDynamicSpgemm) {
    expect_traffic({{0, 15000, 0, 2368, 0, 24}, {0, 32192, 0, 5328, 0, 36}},
                   algebraic_dynamic_spgemm);
}

// Four ranks on one communicator, where a binomial-tree reduction would
// re-send merged subtrees: each partial crosses once, straight to its owner.
// 1x4 carries the A B* partials along a four-rank process row, 4x1 the
// A* B' partials down a four-rank process column. The other communicator
// has one rank, so the re-slab over it issues no collective.
TEST(CommVolume, AlgebraicDynamicSpgemmOnFourRankCommunicators) {
    const std::pair<GridCase, Traffic> pins[] = {
        {{1, 4}, {0, 14872, 0, 3552, 0, 20}},
        {{4, 1}, {0, 9144, 0, 3552, 0, 20}},
    };
    for (const auto& [gc, want] : pins) {
        SCOPED_TRACE(::testing::Message() << gc);
        run_world(gc.p(), [&](Comm& c) {
            Fixture fx(c, gc);
            const Traffic got = algebraic_dynamic_spgemm(c, fx);
            if (c.rank() == 0) {
                EXPECT_EQ(got, want);
            }
        });
    }
}

/// The inputs of algebraic_dynamic_spgemm, B already updated: A, B, A*, B*.
struct Operands {
    DistDynamicMatrix<double> A, B;
    DistDcsr<double> Astar, Bstar;
    DistDcsr<double> empty;

    explicit Operands(Fixture& fx)
        : A(fx.matrix<PlusTimes<double>>(300)),
          B(fx.matrix<PlusTimes<double>>(300)),
          Astar(fx.update(12)),
          Bstar(fx.update(12)),
          empty(fx.grid, fx.n, fx.n) {
        core::add_update<PlusTimes<double>>(B, Bstar);
    }
};

TEST_P(CommVolumeP, AlgebraicTermOfLeftUpdate) {
    expect_traffic({{0, 6192, 0, 1184, 0, 12}, {0, 11888, 0, 3552, 0, 18}},
                   [](Comm& c, Fixture& fx) {
                       using SR = PlusTimes<double>;
                       Operands o(fx);
                       DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
                       return measure(c, [&] {
                           core::dynamic_spgemm_algebraic<SR>(C, o.Astar, o.B);
                       });
                   });
}

TEST_P(CommVolumeP, AlgebraicTermOfRightUpdate) {
    expect_traffic({{0, 8808, 0, 1184, 0, 12}, {0, 20304, 0, 1776, 0, 18}},
                   [](Comm& c, Fixture& fx) {
                       using SR = PlusTimes<double>;
                       Operands o(fx);
                       DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
                       return measure(c, [&] {
                           core::dynamic_spgemm_algebraic<SR>(C, o.A, o.Bstar);
                       });
                   });
}

TEST_P(CommVolumeP, TransposedLeftBothTerms) {
    expect_traffic(
        {{0, 15904, 0, 2368, 0, 16}, {0, 34256, 0, 7104, 0, 24}},
        [](Comm& c, Fixture& fx) {
            using SR = PlusTimes<double>;
            Operands o(fx);
            DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
            return measure(c, [&] {
                core::dynamic_spgemm_algebraic_transA<SR>(C, o.Astar, o.B);
                core::dynamic_spgemm_algebraic_transA<SR>(C, o.A, o.Bstar);
            });
        });
}

// The shape of DynamicContraction's second stage: only A^T B*.
TEST_P(CommVolumeP, TransposedLeftTermOfRightUpdate) {
    expect_traffic(
        {{0, 10240, 0, 1184, 0, 8}, {0, 22816, 0, 3552, 0, 12}},
        [](Comm& c, Fixture& fx) {
            using SR = PlusTimes<double>;
            Operands o(fx);
            DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
            return measure(c, [&] {
                core::dynamic_spgemm_algebraic_transA<SR>(C, o.A, o.Bstar);
            });
        });
}

TEST_P(CommVolumeP, TransposedRightBothTerms) {
    expect_traffic(
        {{0, 16704, 0, 2368, 0, 16}, {0, 39712, 0, 3552, 0, 24}},
        [](Comm& c, Fixture& fx) {
            using SR = PlusTimes<double>;
            Operands o(fx);
            DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
            return measure(c, [&] {
                core::dynamic_spgemm_algebraic_transB<SR>(C, o.Astar, o.B);
                core::dynamic_spgemm_algebraic_transB<SR>(C, o.A, o.Bstar);
            });
        });
}

// The shape of minplus-general's call: B* is empty, and COMPUTEPATTERN
// still runs both terms.
TEST_P(CommVolumeP, ComputePatternOfLeftUpdate) {
    expect_traffic({{0, 6224, 0, 1216, 0, 24}, {0, 11984, 0, 3600, 0, 36}},
                   [](Comm& c, Fixture& fx) {
                       Operands o(fx);
                       return measure(c, [&] {
                           (void)core::compute_pattern(o.A, o.Astar, o.B,
                                                       o.empty);
                       });
                   });
}

TEST_P(CommVolumeP, ComputePattern) {
    expect_traffic({{0, 14792, 0, 2368, 0, 24}, {0, 31840, 0, 5328, 0, 36}},
                   [](Comm& c, Fixture& fx) {
                       using SR = MinPlus<double>;
                       auto A = fx.matrix<SR>(300);
                       auto B = fx.matrix<SR>(300);
                       const auto Astar = fx.update(12);
                       const auto Bstar = fx.update(12);
                       return measure(c, [&] {
                           (void)core::compute_pattern(A, Astar, B, Bstar);
                       });
                   });
}

// One all-reduce of GeneralSpgemmStats fills the diagnostics (24 gather
// bytes per peer, as its three 8-byte all-reduces did before).
TEST_P(CommVolumeP, GeneralDynamicSpgemm) {
    expect_traffic({{10048, 16272, 0, 11312, 0, 28}, {20208, 35408, 0, 44880, 0, 42}},
                   [](Comm& c, Fixture& fx) {
                       using SR = MinPlus<double>;
                       auto A = fx.matrix<SR>(300);
                       auto B = fx.matrix<SR>(300);
                       DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
                       DistDynamicMatrix<std::uint64_t> F(fx.grid, fx.n, fx.n);
                       core::SummaOptions sopts;
                       sopts.bloom_out = &F;
                       core::summa<SR>(C, A, B, sopts);
                       // General updates: larger values MERGEd into A.
                       const auto Astar = fx.update(12, 20.0, 40.0);
                       const DistDcsr<double> Bstar(fx.grid, fx.n, fx.n);
                       const auto cstar =
                           core::compute_pattern(A, Astar, B, Bstar);
                       core::merge_update(A, Astar);
                       return measure(c, [&] {
                           (void)core::general_dynamic_spgemm<SR>(C, F, A, B,
                                                                  cstar);
                       });
                   });
}

TEST_P(CommVolumeP, TwoPhaseRedistribution) {
    expect_traffic({{0, 19984, 0, 0, 0, 8}, {0, 33072, 0, 0, 0, 12}},
                   [](Comm& c, Fixture& fx) {
                       const DistDynamicMatrix<double> holder(fx.grid, fx.n,
                                                              fx.n);
                       auto ts = fx.tuples(200);
                       return measure(c, [&] {
                           (void)core::redistribute_tuples(
                               fx.grid, holder.shape(), std::move(ts));
                       });
                   });
}

// The symmetric term alone (dynamic_spgemm_symmetric), the kernel of the
// live triangle count's epoch: S and U* symmetric, each rank contributing
// both directions of its own pairs, and C empty (its contents change no
// traffic).
TEST_P(CommVolumeP, SymmetricTerm) {
    expect_traffic(
        {{0, 13328, 0, 1184, 0, 8}, {0, 34336, 0, 3648, 0, 12}},
        [](Comm& c, Fixture& fx) {
            using SR = PlusTimes<double>;
            auto both = [](std::vector<Triple<double>> ts) {
                const std::size_t m = ts.size();
                for (std::size_t k = 0; k < m; ++k)
                    ts.push_back({ts[k].col, ts[k].row, ts[k].value});
                return ts;
            };
            auto pairs = fx.tuples(300);
            std::erase_if(pairs, [](const auto& t) { return t.row == t.col; });
            const auto S = core::build_dynamic_matrix<SR>(fx.grid, fx.n, fx.n,
                                                          both(pairs));
            // Pairs (r, c), c < r, with r congruent to this rank mod p, so
            // no coordinate of U* comes from two ranks.
            auto upd = random_triples(fx.rng, fx.n / fx.p, fx.n, 12);
            for (auto& t : upd) t.row = t.row * fx.p + fx.rank;
            std::erase_if(upd, [](const auto& t) { return t.col >= t.row; });
            sparse::combine_duplicates<MinPlus<double>>(upd);
            const auto Ustar =
                core::build_update_matrix(fx.grid, fx.n, fx.n, both(upd));
            DistDynamicMatrix<double> C(fx.grid, fx.n, fx.n);
            return measure(c, [&] {
                (void)core::dynamic_spgemm_symmetric<SR>(C, S, Ustar);
            });
        });
}

/// The ops of one live-triangle epoch, after seeding `maint` with
/// fx.tuples(150): every rank ADDs absent edges and MASKs present ones; rank
/// 0 also ADDs and MASKs one fresh edge.
struct TriangleEpochOps {
    std::vector<Triple<double>> adds, masks;
};

TriangleEpochOps triangle_epoch_ops(Fixture& fx,
                                    analytics::LiveTriangleMaintainer& maint) {
    maint.seed(fx.tuples(150));
    std::set<std::pair<index_t, index_t>> present;  // both directions
    for (const auto& t : maint.counter().adjacency().gather_global())
        present.insert({t.row, t.col});
    auto absent_edge = [&] {
        for (;;) {
            const auto i = static_cast<index_t>(fx.rng() % fx.n);
            const auto j = static_cast<index_t>(fx.rng() % fx.n);
            if (i != j && !present.count({i, j})) return Triple<double>{i, j, 1.0};
        }
    };
    TriangleEpochOps ops;
    for (int k = 0; k < 8; ++k) ops.adds.push_back(absent_edge());
    index_t x = 0;  // this rank MASKs its share of the live edges
    for (const auto& [i, j] : present)
        if (i < j && x++ % fx.p == fx.rank && ops.masks.size() < 8)
            ops.masks.push_back({j, i, 0.0});
    if (fx.rank == 0) {
        const auto e = absent_edge();
        ops.adds.push_back(e);
        ops.masks.push_back(e);
    }
    return ops;
}

// One epoch of the live triangle count from its owner-side blocks (built
// outside the measurement, as the engine would route them): the mirror
// all-to-all that settles membership at the owners, one symmetric term of
// Algorithm 1 whose entries go to their canonical owners, and the count.
TEST_P(CommVolumeP, LiveTriangleEpoch) {
    expect_traffic(
        {{0, 18232, 0, 3200, 0, 16}, {0, 38376, 0, 9552, 0, 24}},
        [](Comm& c, Fixture& fx) {
            analytics::LiveTriangleMaintainer maint(fx.grid, fx.n);
            auto ops = triangle_epoch_ops(fx, maint);
            stream::EpochDelta<double> delta;
            delta.owned_adds =
                core::build_update_matrix(fx.grid, fx.n, fx.n, ops.adds);
            delta.owned_masks =
                core::build_update_matrix(fx.grid, fx.n, fx.n, ops.masks);
            delta.adds = std::move(ops.adds);
            delta.masks = std::move(ops.masks);
            return measure(c, [&] { maint.on_epoch(delta); });
        });
}

// The same epoch as LiveTriangleEpoch, pushed through an engine whose hook
// drives the maintainer: one pump(), so the engine's routing of the ops is
// counted with the maintainer's. The engine's matrix starts empty; its
// contents change no traffic.
TEST_P(CommVolumeP, LiveTriangleEngineEpoch) {
    expect_traffic(
        {{0, 20112, 0, 3584, 0, 28}, {0, 41352, 0, 10512, 0, 42}},
        [](Comm& c, Fixture& fx) {
            analytics::AnalyticsHub<double> hub;
            auto& maint =
                hub.emplace<analytics::LiveTriangleMaintainer>(fx.grid, fx.n);
            const auto ops = triangle_epoch_ops(fx, maint);
            DistDynamicMatrix<double> A(fx.grid, fx.n, fx.n);
            stream::EpochEngine<PlusTimes<double>> engine(A, one_pump_epochs());
            hub.attach(engine);
            push_ops(engine, stream::OpKind::Add, ops.adds);
            push_ops(engine, stream::OpKind::Mask, ops.masks);
            return measure(c, [&] { engine.pump(); });
        });
}

// One engine epoch of all three kinds and no hook: the routing and the
// sync all-reduce alone.
TEST_P(CommVolumeP, EngineEpochAllKinds) {
    expect_traffic(
        {{0, 9264, 0, 384, 0, 12}, {0, 14928, 0, 960, 0, 18}},
        [](Comm& c, Fixture& fx) {
            DistDynamicMatrix<double> A(fx.grid, fx.n, fx.n);
            stream::EpochEngine<PlusTimes<double>> engine(A, one_pump_epochs());
            push_ops(engine, stream::OpKind::Add, fx.tuples(40));
            push_ops(engine, stream::OpKind::Merge, fx.tuples(20));
            push_ops(engine, stream::OpKind::Mask, fx.tuples(30));
            return measure(c, [&] { engine.pump(); });
        });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, CommVolumeP,
                         ::testing::Values(GridCase{2, 2}, GridCase{2, 3}),
                         dsg::test::grid_case_name);

}  // namespace
