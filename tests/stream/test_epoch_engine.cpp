// Epoch-engine tests: collective epoch application, concurrent producers
// against a sequential reference (the suite the CI TSan job exercises),
// reader snapshots racing epoch application, and stats accounting.
#include <gtest/gtest.h>

#include <atomic>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/grid_shapes.hpp"
#include "core/dist_test_utils.hpp"
#include "core/update_ops.hpp"
#include "par/comm.hpp"
#include "par/thread_pool.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

namespace {

using namespace dsg;
using test::CoordMap;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using sparse::index_t;
using sparse::Triple;
using stream::OpKind;
using stream::StreamOp;
using dsg::test::Caller;
using dsg::test::GridCase;

constexpr int kRanks = 4;  // 2x2 grid

class EpochEngineG : public ::testing::TestWithParam<GridCase> {};

TEST_P(EpochEngineG, AppliesAllThreeKindsInOneEpoch) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        const index_t n = 64;
        core::DistDynamicMatrix<double> A(grid, n, n);

        // Each rank streams ops on its own disjoint row (row == rank), so
        // the expected state is independent of cross-rank apply order.
        const auto r = static_cast<index_t>(comm.rank());
        stream::EngineConfig cfg;
        cfg.epoch_batch = 1 << 12;  // everything fits in one epoch
        Engine engine(A, cfg);
        auto& q = engine.queue();
        for (index_t c = 0; c < 10; ++c)
            ASSERT_TRUE(q.push({OpKind::Add, {r, c, 1.0}}));
        ASSERT_TRUE(q.push({OpKind::Add, {r, 0, 2.0}}));     // in-batch dup
        ASSERT_TRUE(q.push({OpKind::Merge, {r, 1, 9.5}}));   // overwrite
        ASSERT_TRUE(q.push({OpKind::Mask, {r, 2, 0.0}}));    // delete
        ASSERT_TRUE(q.push({OpKind::Mask, {r + 8, 63, 0.0}}));  // absent: noop
        q.close();

        engine.run();

        EXPECT_EQ(engine.stats().applied_epochs, 1u);
        EXPECT_EQ(engine.stats().local_ops, 14u);
        CoordMap expect;
        for (index_t rank = 0; rank < gc.p(); ++rank) {
            expect[{rank, 0}] = 3.0;  // 1 + the duplicate 2
            expect[{rank, 1}] = 9.5;  // merged
            for (index_t c = 3; c < 10; ++c) expect[{rank, c}] = 1.0;
        }
        test::expect_matches_exactly(A, expect);
    });
}

// The acceptance scenario: N producer threads per rank push concurrently
// while the engine applies epochs; ADD-only traffic commutes, so the final
// matrix must equal one collective application of the same tuples.
TEST_P(EpochEngineG, ConcurrentProducersMatchSequentialReference) {
    const GridCase gc = GetParam();
    constexpr int kProducers = 3;
    dsg::test::run_case(gc, [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        const index_t n = 512;

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::SustainedUniform;
        wl.n = n;
        wl.writes = 4'000;
        wl.seed = 900 + static_cast<std::uint64_t>(comm.rank());

        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.queue_capacity = 1 << 10;  // force many epochs + backpressure
        cfg.epoch_batch = 512;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);
        for (int prod = 0; prod < kProducers; ++prod)
            engine.queue().register_producer();

        std::vector<std::thread> producers;
        for (int prod = 0; prod < kProducers; ++prod) {
            producers.emplace_back([&, prod] {
                stream::WorkloadProducer source(wl, prod);
                while (auto ev = source.next())
                    ASSERT_TRUE(engine.queue().push(ev->op));
                engine.queue().producer_done();
            });
        }
        engine.run();
        for (auto& t : producers) t.join();

        const auto& s = engine.stats();
        EXPECT_EQ(s.local_ops, static_cast<std::uint64_t>(kProducers) * wl.writes);
        EXPECT_EQ(s.local_ops, engine.queue().accepted());
        EXPECT_GE(s.applied_epochs, 2u) << "traffic should span many epochs";
        EXPECT_EQ(s.adds, s.local_ops);

        // Sequential reference: replay every producer's writes and apply
        // them in ONE collective batch.
        std::vector<Triple<double>> replay;
        for (int prod = 0; prod < kProducers; ++prod) {
            stream::WorkloadProducer source(wl, prod);
            for (const auto& op : source.remaining_writes())
                replay.push_back(op.tuple);
        }
        core::DistDynamicMatrix<double> B(grid, n, n);
        auto update = core::build_update_matrix(grid, n, n, replay);
        core::add_update<SR>(B, update);

        test::expect_matches_exactly(A, test::as_map(B.gather_global()));
    });
}

// Mixed op kinds across many epochs stay deterministic as long as no
// coordinate is written again after being merged or masked — the documented
// stream-ordering contract (ADDs, then MERGEs, then MASKs per epoch; queue
// order within each stream).
TEST(EpochEngine, MixedKindsAcrossEpochsMatchReference) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 2'048;
        core::DistDynamicMatrix<double> A(grid, n, n);

        const auto r = static_cast<index_t>(comm.rank());
        stream::EngineConfig cfg;
        cfg.queue_capacity = 128;  // backpressure against the apply path
        cfg.epoch_batch = 64;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);
        engine.queue().register_producer();

        // Coordinates (rank-disjoint rows): add 0..499, then merge 0..99,
        // then mask 100..199.
        std::thread producer([&] {
            auto coord = [&](index_t k) {
                return Triple<double>{r + kRanks * (k % 50), k / 50, 0.0};
            };
            for (index_t k = 0; k < 500; ++k) {
                auto t = coord(k);
                t.value = 1.0;
                ASSERT_TRUE(engine.queue().push({OpKind::Add, t}));
            }
            for (index_t k = 0; k < 100; ++k) {
                auto t = coord(k);
                t.value = 100.0 + static_cast<double>(k);
                ASSERT_TRUE(engine.queue().push({OpKind::Merge, t}));
            }
            for (index_t k = 100; k < 200; ++k)
                ASSERT_TRUE(engine.queue().push({OpKind::Mask, coord(k)}));
            engine.queue().producer_done();
        });
        engine.run();
        producer.join();

        CoordMap expect;
        for (index_t rank = 0; rank < kRanks; ++rank) {
            auto coord = [&](index_t k) {
                return std::make_pair(rank + kRanks * (k % 50), k / 50);
            };
            for (index_t k = 200; k < 500; ++k) expect[coord(k)] = 1.0;
            for (index_t k = 0; k < 100; ++k)
                expect[coord(k)] = 100.0 + static_cast<double>(k);
        }
        test::expect_matches_exactly(A, expect);
    });
}

TEST(EpochEngine, DeadlineTriggersEpochBeforeBatchIsReached) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 32;
        core::DistDynamicMatrix<double> A(grid, n, n);

        stream::EngineConfig cfg;
        cfg.epoch_batch = 1 << 20;  // unreachable: only the deadline fires
        cfg.epoch_deadline = std::chrono::milliseconds(20);
        Engine engine(A, cfg);
        if (comm.rank() == 0) {
            for (index_t k = 0; k < 10; ++k)
                ASSERT_TRUE(engine.queue().push({OpKind::Add, {k, k, 2.0}}));
        }

        EXPECT_TRUE(engine.pump());  // deadline epoch applies rank 0's ops
        EXPECT_EQ(engine.stats().applied_epochs, 1u);
        EXPECT_EQ(A.global_nnz(), 10u);

        engine.queue().close();
        while (engine.pump()) {
        }
        EXPECT_EQ(engine.stats().applied_epochs, 1u);
        EXPECT_EQ(A.global_nnz(), 10u);
    });
}

TEST(EpochEngine, SnapshotReadersRaceEpochApplication) {
    constexpr int kProducers = 2;
    constexpr int kReaders = 2;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 256;
        core::DistDynamicMatrix<double> A(grid, n, n);

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::SustainedUniform;
        wl.n = n;
        wl.writes = 2'000;
        wl.seed = 4'000 + static_cast<std::uint64_t>(comm.rank());

        stream::EngineConfig cfg;
        cfg.epoch_batch = 256;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);
        for (int prod = 0; prod < kProducers; ++prod)
            engine.queue().register_producer();

        std::atomic<bool> stop{false};
        std::vector<std::thread> threads;
        for (int reader = 0; reader < kReaders; ++reader) {
            threads.emplace_back([&] {
                std::uint64_t last_version = 0;
                std::size_t last_nnz = 0;
                while (!stop.load()) {
                    engine.with_snapshot([&](auto snap) {
                        EXPECT_GE(snap.version(), last_version);
                        last_version = snap.version();
                        last_nnz = snap.local_nnz();
                        // Any probe must be answerable without racing apply.
                        (void)snap.contains(snap.shape().global_row(0),
                                            snap.shape().global_col(0));
                    });
                    std::this_thread::yield();
                }
                (void)last_nnz;
            });
        }
        for (int prod = 0; prod < kProducers; ++prod) {
            threads.emplace_back([&, prod] {
                stream::WorkloadProducer source(wl, prod);
                while (auto ev = source.next())
                    ASSERT_TRUE(engine.queue().push(ev->op));
                engine.queue().producer_done();
            });
        }
        engine.run();
        stop.store(true);
        for (auto& t : threads) t.join();

        // The final snapshot observes every applied epoch.
        const auto version = engine.with_snapshot(
            [](auto snap) { return snap.version(); });
        EXPECT_EQ(version, engine.stats().applied_epochs);
    });
}

TEST(EpochEngine, SingleRankGridRunsEveryScenario) {
    par::run_world(1, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 128;
        core::DistDynamicMatrix<double> A(grid, n, n);
        par::ThreadPool pool(2);  // exercise the pooled apply path too
        for (auto scenario : stream::all_scenarios()) {
            stream::WorkloadConfig wl;
            wl.scenario = scenario;
            wl.n = n;
            wl.writes = 1'000;
            wl.seed = 5 + static_cast<std::uint64_t>(scenario);

            stream::EngineConfig cfg;
            cfg.epoch_batch = 128;
            cfg.epoch_deadline = std::chrono::milliseconds(2);
            cfg.pool = &pool;
            Engine engine(A, cfg);
            engine.queue().register_producer();
            engine.queue().register_producer();

            std::vector<std::thread> producers;
            for (int prod = 0; prod < 2; ++prod) {
                producers.emplace_back([&, prod] {
                    stream::WorkloadProducer source(wl, prod);
                    while (auto ev = source.next()) {
                        if (ev->type == stream::Event::Type::Write) {
                            ASSERT_TRUE(engine.queue().push(ev->op));
                        } else if (ev->type == stream::Event::Type::Read) {
                            engine.with_snapshot([&](auto snap) {
                                return snap.contains(ev->op.tuple.row,
                                                     ev->op.tuple.col);
                            });
                        }
                    }
                    engine.queue().producer_done();
                });
            }
            engine.run();
            for (auto& t : producers) t.join();
            EXPECT_EQ(engine.stats().local_ops, 2u * wl.writes)
                << stream::scenario_name(scenario);
        }
        EXPECT_GT(A.global_nnz(), 0u);
        comm.barrier();
    });
}

TEST(EpochEngine, EmptyClosedStreamTerminatesWithoutApplying) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        core::DistDynamicMatrix<double> A(grid, n, n);
        Engine engine(A);
        engine.queue().close();
        engine.run();
        EXPECT_EQ(engine.stats().applied_epochs, 0u);
        EXPECT_EQ(engine.stats().local_ops, 0u);
        EXPECT_EQ(A.global_nnz(), 0u);
    });
}

// An op outside the matrix is refused by the queue on the producer's
// thread, so it never reaches an epoch's collectives: every rank goes on
// pumping as if it had not been offered.
TEST(EpochEngine, OutOfRangeOpIsRejectedAndPumpingContinues) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        core::DistDynamicMatrix<double> A(grid, n, n);
        Engine engine(A);
        auto& q = engine.queue();
        const auto r = static_cast<index_t>(comm.rank());
        if (comm.rank() == 0) {
            EXPECT_THROW(q.push({OpKind::Add, {100000, 0, 1.0}}), std::out_of_range);
            EXPECT_THROW(q.try_push({OpKind::Mask, {0, n, 0.0}}), std::out_of_range);
        }
        ASSERT_TRUE(q.push({OpKind::Add, {r, r, 1.0}}));
        EXPECT_TRUE(engine.pump());
        EXPECT_EQ(engine.stats().local_ops, 1u);
        EXPECT_EQ(A.global_nnz(), static_cast<std::size_t>(kRanks));

        ASSERT_TRUE(q.push({OpKind::Add, {r, n - 1, 2.0}}));
        q.close();
        engine.run();
        EXPECT_EQ(engine.stats().applied_epochs, 2u);
        EXPECT_EQ(q.accepted(), 2u);
        CoordMap expect;
        for (index_t k = 0; k < kRanks; ++k) {
            expect[{k, k}] = 1.0;
            expect[{k, n - 1}] = 2.0;
        }
        test::expect_matches_exactly(A, expect);
    });
}

// The overlapped-WAL path (write-behind on a worker thread) must deliver
// the same delta stream and the same final matrix as the inline write-ahead
// path; the engine joins the worker before the next WAL point, so deltas
// arrive in version order even though they are written off-thread.
TEST_P(EpochEngineG, OverlapPersistMatchesInlineWal) {
    const GridCase gc = GetParam();
    auto run_one = [&](bool overlap) {
        std::vector<std::vector<stream::EpochDelta<double>>> wals(
            static_cast<std::size_t>(gc.p()));
        std::vector<CoordMap> finals(static_cast<std::size_t>(gc.p()));
        dsg::test::run_case(gc, [&](par::Comm& comm) {
            core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
            const index_t n = 96;
            core::DistDynamicMatrix<double> A(grid, n, n);
            stream::EngineConfig cfg;
            cfg.overlap_persist = overlap;
            cfg.epoch_batch = 32;
            cfg.epoch_deadline = std::chrono::milliseconds(1);
            Engine engine(A, cfg);
            auto& my_wal = wals[static_cast<std::size_t>(comm.rank())];
            engine.set_wal_hook([&my_wal](const stream::EpochDelta<double>& d) {
                my_wal.push_back(d);
            });
            const auto r = static_cast<index_t>(comm.rank());
            auto& q = engine.queue();
            std::mt19937_64 rng(7'000 + static_cast<std::uint64_t>(r));
            // Feed in chunks with a pump between them: the queue drains
            // whole, so several WAL points only happen across several pumps.
            for (index_t chunk = 0; chunk < 6; ++chunk) {
                for (index_t k = 0; k < 50; ++k) {
                    // Wraps only on the extended shapes (p > 6), which
                    // would otherwise address rows past n.
                    const index_t row =
                        (r + static_cast<index_t>(gc.p()) * (k % 16)) % n;
                    ASSERT_TRUE(q.push(
                        {OpKind::Add,
                         {row, static_cast<index_t>(rng() % 96),
                          1.0 + static_cast<double>(k % 7)}}));
                }
                engine.pump();
            }
            q.close();
            engine.run();
            EXPECT_GE(engine.stats().applied_epochs, 2u);
            finals[static_cast<std::size_t>(comm.rank())] =
                test::as_map(A.gather_global());
        });
        return std::pair(std::move(wals), std::move(finals));
    };
    auto [wal_inline, final_inline] = run_one(false);
    auto [wal_overlap, final_overlap] = run_one(true);
    EXPECT_EQ(final_inline, final_overlap);
    ASSERT_EQ(wal_inline.size(), wal_overlap.size());
    for (std::size_t r = 0; r < wal_inline.size(); ++r) {
        ASSERT_EQ(wal_inline[r].size(), wal_overlap[r].size()) << "rank " << r;
        for (std::size_t e = 0; e < wal_inline[r].size(); ++e) {
            const auto& a = wal_inline[r][e];
            const auto& b = wal_overlap[r][e];
            EXPECT_EQ(a.version, b.version);
            auto tuples_equal = [](const std::vector<Triple<double>>& x,
                                   const std::vector<Triple<double>>& y) {
                if (x.size() != y.size()) return false;
                for (std::size_t i = 0; i < x.size(); ++i)
                    if (x[i].row != y[i].row || x[i].col != y[i].col ||
                        x[i].value != y[i].value)
                        return false;
                return true;
            };
            EXPECT_TRUE(tuples_equal(a.adds, b.adds));
            EXPECT_TRUE(tuples_equal(a.merges, b.merges));
            EXPECT_TRUE(tuples_equal(a.masks, b.masks));
        }
    }
}

// Streaming the same ops through an engine that runs alone and through one
// whose caller holds its own ibcast in flight across the whole run must
// produce bit-identical matrices: an unrelated outstanding handle changes
// neither the build's exchange nor the apply order.
TEST_P(EpochEngineG, AsyncCommIsBitIdenticalToSync) {
    const GridCase gc = GetParam();
    auto run_one = [&](Caller caller) {
        CoordMap out;
        dsg::test::run_case({gc.rows, gc.cols, caller}, [&](par::Comm& comm) {
            core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
            const index_t n = 128;
            core::DistDynamicMatrix<double> A(grid, n, n);
            stream::EngineConfig cfg;
            cfg.epoch_batch = 64;
            cfg.epoch_deadline = std::chrono::milliseconds(1);
            Engine engine(A, cfg);
            auto& q = engine.queue();
            std::mt19937_64 rng(8'000 + static_cast<std::uint64_t>(comm.rank()));
            for (int k = 0; k < 400; ++k)
                ASSERT_TRUE(q.push(
                    {OpKind::Add,
                     {static_cast<index_t>(rng() % 128),
                      static_cast<index_t>(rng() % 128),
                      static_cast<double>(rng() % 97) / 8.0}}));
            q.close();
            engine.run();
            auto global = A.gather_global();  // collective: all ranks call
            if (comm.rank() == 0) out = test::as_map(global);
            comm.barrier();
        });
        return out;
    };
    EXPECT_EQ(run_one(Caller::Sync), run_one(Caller::Async));
}

INSTANTIATE_TEST_SUITE_P(GridShapes, EpochEngineG,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

// Acceptance: all nine workload scenarios produce a bit-identical matrix on
// a rectangular 2x3 grid whether or not the caller holds its own ibcast in
// flight across the run. Epoch boundaries are pinned (chunked pushes with a
// pump per chunk — the queue drains whole) so both runs apply the identical
// epoch sequence; any divergence is then the fault of a collective matched
// against the stray handle.
TEST(EpochEngine, AsyncMatchesSyncOnEveryScenario) {
    for (auto scenario : stream::all_scenarios()) {
        auto run_one = [&](Caller caller) {
            const GridCase gc{2, 3, caller};
            CoordMap out;
            dsg::test::run_case(gc, [&](par::Comm& comm) {
                core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
                const index_t n = 128;
                core::DistDynamicMatrix<double> A(grid, n, n);

                // Deterministic op stream: every scenario yields exactly
                // wl.writes write events per producer.
                stream::WorkloadConfig wl;
                wl.scenario = scenario;
                wl.n = n;
                wl.writes = 600;
                wl.seed = 40 + static_cast<std::uint64_t>(comm.rank());
                std::vector<StreamOp<double>> ops;
                stream::WorkloadProducer source(wl, 0);
                while (auto ev = source.next())
                    if (ev->type == stream::Event::Type::Write)
                        ops.push_back(ev->op);
                ASSERT_EQ(ops.size(), wl.writes);

                stream::EngineConfig cfg;
                cfg.epoch_batch = 64;
                cfg.epoch_deadline = std::chrono::milliseconds(1);
                Engine engine(A, cfg);
                auto& q = engine.queue();
                std::size_t fed = 0;
                while (fed < ops.size()) {
                    const std::size_t end =
                        std::min(fed + 100, ops.size());
                    for (; fed < end; ++fed) ASSERT_TRUE(q.push(ops[fed]));
                    engine.pump();  // collective
                }
                q.close();
                engine.run();

                auto global = A.gather_global();  // collective: all ranks
                if (comm.rank() == 0) out = test::as_map(global);
                comm.barrier();
            });
            return out;
        };
        EXPECT_EQ(run_one(Caller::Sync), run_one(Caller::Async))
            << stream::scenario_name(scenario);
    }
}

}  // namespace
