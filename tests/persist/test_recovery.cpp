// Crash-recovery property tests: checkpoint → kill → recover → replay must
// reproduce the uninterrupted run bit-identically — matrix structure, entry
// order, values, engine version, and (when subscribed) every maintained
// analytics value — across all workload scenarios and all supported grids,
// square and rectangular (the shared grid-shape sweep: 1x1, 1x2, 1x3, 2x2,
// 2x3, plus the extended shapes under -DDSG_GRID_SHAPES=extended).
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <thread>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "common/grid_shapes.hpp"
#include "analytics/maintainer.hpp"
#include "core/update_ops.hpp"
#include "par/comm.hpp"
#include "persist/durability.hpp"
#include "persist/op_log.hpp"
#include "persist/recovery.hpp"
#include "persist/persist_test_utils.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

namespace {

using namespace dsg;
using test::ScratchDir;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using Manager = persist::DurabilityManager<SR>;
using sparse::index_t;
using sparse::Triple;
using dsg::test::GridCase;

/// Streams `writes` ops per producer (2 producers/rank) of `scenario` into
/// A under a durability manager, returning after the queues are exhausted.
void stream_with_durability(par::Comm& comm, Engine& engine,
                            stream::Scenario scenario, index_t n,
                            std::size_t writes, std::uint64_t seed_base) {
    constexpr int kProducers = 2;
    stream::WorkloadConfig wl;
    wl.scenario = scenario;
    wl.n = n;
    wl.writes = writes;
    wl.window = 96;
    wl.seed = seed_base + 13 * static_cast<std::uint64_t>(comm.rank());
    stream::run_producers(engine, wl, kProducers,
                          [](int, index_t, index_t) {});
}

/// The core property, one (grid shape, scenario) cell: a full durable run,
/// then recovery in a fresh world must reproduce its final state exactly.
void check_recovery_equivalence(const GridCase& gc,
                                stream::Scenario scenario) {
    SCOPED_TRACE(std::string("scenario ") + stream::scenario_name(scenario) +
                 ", grid " + std::to_string(gc.rows) + "x" +
                 std::to_string(gc.cols));
    ScratchDir dir;
    const index_t n = 256;
    std::vector<Triple<double>> live;
    std::uint64_t live_version = 0;

    par::run_world(gc.p(), [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.epoch_batch = 256;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);

        persist::PersistConfig pc;
        pc.dir = dir.path();
        pc.fsync_every = 4;
        pc.checkpoint_stride = 4;  // several checkpoints per run
        Manager mgr(engine, A, pc, Manager::Start::Fresh);

        stream_with_durability(comm, engine, scenario, n, 800,
                               500 + static_cast<std::uint64_t>(scenario));
        EXPECT_GT(mgr.stats().epochs_logged, 0u);

        const auto g = test::sorted_global(A);  // collective
        const auto v = engine.with_snapshot(
            [](core::SnapshotView<double> s) { return s.version(); });
        if (comm.rank() == 0) {
            live = g;
            live_version = v;
        }
    });
    ASSERT_FALSE(live.empty());

    par::run_world(gc.p(), [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        core::DistDynamicMatrix<double> A(grid, n, n);
        persist::RecoveryOptions opts;
        opts.dir = dir.path();
        const auto res = persist::recover<SR>(A, opts);
        EXPECT_EQ(res.recovered_version, live_version);
        EXPECT_FALSE(res.truncated_tail)
            << "a graceful shutdown leaves nothing to truncate";
        const auto g = test::sorted_global(A);  // collective
        if (comm.rank() == 0)
            test::expect_bit_identical(g, live, "recovered matrix");
    });
}

class RecoveryG : public ::testing::TestWithParam<GridCase> {};

TEST_P(RecoveryG, BitIdenticalAcrossAllScenarios) {
    for (auto scenario : stream::all_scenarios())
        check_recovery_equivalence(GetParam(), scenario);
}

// With maintainers subscribed, the checkpoint carries the hub's state and
// replay drives on_epoch exactly like live traffic: every maintained value
// (and the maintainers' internal matrices) must come back bit-identical.
TEST(Recovery, AnalyticsMaintainersRestoredBitIdentically) {
    constexpr int kRanks = 4;
    const index_t n = 128;
    const std::vector<index_t> sources = {0, 1, 2};
    ScratchDir dir;
    std::vector<std::pair<std::string, double>> live_snapshots;
    std::vector<Triple<double>> live_triangles_adj;
    std::uint64_t live_version = 0;

    auto build_hub = [&](core::ProcessGrid& grid,
                         analytics::AnalyticsHub<double>& hub)
        -> analytics::LiveTriangleMaintainer& {
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        hub.emplace<analytics::LiveDistanceMaintainer>(grid, n, sources);
        return tri;
    };

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = build_hub(grid, hub);

        stream::EngineConfig cfg;
        cfg.epoch_batch = 128;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);
        hub.attach(engine);

        persist::PersistConfig pc;
        pc.dir = dir.path();
        pc.fsync_every = 2;
        pc.checkpoint_stride = 3;
        Manager mgr(engine, A, pc, Manager::Start::Fresh, &hub);

        stream_with_durability(comm, engine,
                               stream::Scenario::CheckpointUnderLoad, n, 400,
                               900);
        const auto adj = test::sorted_global(tri.counter().adjacency());
        const auto v = engine.with_snapshot(
            [](core::SnapshotView<double> s) { return s.version(); });
        if (comm.rank() == 0) {
            live_snapshots = hub.snapshots();
            live_triangles_adj = adj;
            live_version = v;
        }
    });
    ASSERT_FALSE(live_snapshots.empty());

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = build_hub(grid, hub);

        persist::RecoveryOptions opts;
        opts.dir = dir.path();
        const auto res = persist::recover<SR>(A, opts, &hub);
        EXPECT_EQ(res.recovered_version, live_version);

        const auto got = hub.snapshots();
        const auto adj = test::sorted_global(tri.counter().adjacency());
        if (comm.rank() == 0) {
            ASSERT_EQ(got.size(), live_snapshots.size());
            for (std::size_t k = 0; k < got.size(); ++k) {
                EXPECT_EQ(got[k].first, live_snapshots[k].first);
                EXPECT_EQ(got[k].second, live_snapshots[k].second)
                    << "maintained value '" << got[k].first
                    << "' must restore bit-identically";
            }
            test::expect_bit_identical(adj, live_triangles_adj,
                                       "maintained adjacency");
        }
    });
}

// A mid-run kill: whatever the fsync cadence already made durable (plus a
// deliberate torn tail on one rank) must recover to the last epoch durable
// on EVERY rank, and the recovered matrix must equal an independent direct
// replay of the surviving log — the engine path and the raw apply path
// cross-check each other.
TEST_P(RecoveryG, KillMidRunRecoversTheDurablePrefix) {
    const GridCase gc = GetParam();
    const index_t n = 192;
    ScratchDir dir;

    par::run_world(gc.p(), [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.epoch_batch = 128;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);

        persist::PersistConfig pc;
        pc.dir = dir.path();
        pc.fsync_every = 2;          // lose at most 1 buffered epoch
        pc.checkpoint_stride = 5;
        Manager mgr(engine, A, pc, Manager::Start::Fresh);

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::KillAndRecover;
        wl.n = n;
        wl.writes = 900;
        wl.seed = 77 + static_cast<std::uint64_t>(comm.rank());
        engine.queue().register_producer();
        std::thread producer([&engine, wl] {
            stream::drive_producer(engine, stream::WorkloadProducer(wl, 0),
                                   [](index_t, index_t) {});
        });
        // Pump a fixed number of epochs, then die: the abandon drops the
        // unflushed WAL buffer exactly like a kill -9 drops the page cache.
        for (int e = 0; e < 6; ++e) engine.pump();
        mgr.simulate_crash();
        engine.run();  // drain the rest so the world can exit cleanly
        producer.join();
    });

    // Tear the last durable frame of the highest rank mid-payload: ranks now
    // disagree about the last durable epoch, and recovery must settle on the
    // minimum.
    {
        const int victim = gc.p() - 1;
        const auto seg = persist::latest_segment(dir.path(), victim);
        ASSERT_TRUE(seg.has_value());
        const auto path = persist::log_path(dir.path(), victim, *seg);
        const auto size = std::filesystem::file_size(path);
        if (size > persist::kLogHeaderBytes + 8)
            persist::truncate_file(path, size - 5);
    }

    par::run_world(gc.p(), [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        core::DistDynamicMatrix<double> A(grid, n, n);
        persist::RecoveryOptions opts;
        opts.dir = dir.path();
        const auto res = persist::recover<SR>(A, opts);
        EXPECT_LE(res.recovered_version, 6u);

        // Independent reference: apply the surviving log (recover() already
        // truncated it to the agreed prefix) through the raw update path.
        core::DistDynamicMatrix<double> B(grid, n, n);
        std::uint64_t applied = 0;
        const auto manifest = persist::read_manifest(dir.path());
        std::uint64_t seg = 0;
        std::uint64_t offset = 0;
        if (manifest) {
            // Restore the checkpoint tile as the replay base.
            auto ckpt = persist::read_checkpoint_file<double>(
                dir.path(), manifest->version, comm.rank(), grid.rows(),
                grid.cols(), n, n);
            B.local() = ckpt.tile;
            applied = manifest->version;
            seg = manifest->log[static_cast<std::size_t>(comm.rank())].segment;
            offset = manifest->log[static_cast<std::size_t>(comm.rank())].offset;
        }
        for (;; ++seg) {
            const auto path = persist::log_path(dir.path(), comm.rank(), seg);
            std::vector<persist::EpochOps<double>> epochs;
            if (std::filesystem::exists(path)) {
                persist::OpLogReader reader(path);
                if (offset > 0) {
                    reader.seek(offset);
                    offset = 0;
                }
                while (auto frame = reader.next())
                    epochs.push_back(persist::decode_frame<double>(*frame));
                EXPECT_FALSE(reader.torn()) << "recover() must have truncated";
            }
            // Every rank walks the same number of segments/epochs after the
            // recovery truncation, so the collective applies stay aligned.
            const auto more = comm.allreduce<std::uint8_t>(
                std::filesystem::exists(path) ? 1 : 0,
                [](std::uint8_t a, std::uint8_t b) {
                    return static_cast<std::uint8_t>(a | b);
                });
            if (more == 0) break;
            for (const auto& ops : epochs) {
                auto ua = core::build_update_matrix(grid, n, n, ops.adds);
                core::add_update<SR>(B, ua);
                auto um = core::build_update_matrix(grid, n, n, ops.merges);
                core::merge_update(B, um);
                auto ud = core::build_update_matrix(grid, n, n, ops.masks);
                core::mask_delete(B, ud);
                ++applied;
            }
        }
        EXPECT_EQ(applied, res.recovered_version);

        const auto got = test::sorted_global(A);
        const auto want = test::sorted_global(B);
        if (comm.rank() == 0)
            test::expect_bit_identical(got, want,
                                       "engine replay vs direct replay");
    });
}

// Restart after recovery: a Resume-mode manager appends to the truncated
// log, new checkpoints supersede the old generation, and a SECOND recovery
// reproduces the resumed run's final state.
TEST(Recovery, ResumeContinuesDurablyAcrossRestarts) {
    constexpr int kRanks = 4;
    const index_t n = 256;
    ScratchDir dir;
    std::vector<Triple<double>> final_state;
    std::uint64_t final_version = 0;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.epoch_batch = 192;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);
        persist::PersistConfig pc;
        pc.dir = dir.path();
        pc.fsync_every = 3;
        pc.checkpoint_stride = 3;
        Manager mgr(engine, A, pc, Manager::Start::Fresh);
        stream_with_durability(comm, engine,
                               stream::Scenario::SlidingWindowDelete, n, 700,
                               1100);
    });

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, n, n);
        persist::RecoveryOptions opts;
        opts.dir = dir.path();
        const auto res = persist::recover<SR>(A, opts);

        stream::EngineConfig cfg;
        cfg.epoch_batch = 192;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        cfg.initial_version = res.recovered_version;
        Engine engine(A, cfg);
        persist::PersistConfig pc;
        pc.dir = dir.path();
        pc.fsync_every = 3;
        pc.checkpoint_stride = 3;
        Manager mgr(engine, A, pc, Manager::Start::Resume);
        stream_with_durability(comm, engine, stream::Scenario::HotVertexSkew,
                               n, 500, 2300);

        const auto g = test::sorted_global(A);
        const auto v = engine.with_snapshot(
            [](core::SnapshotView<double> s) { return s.version(); });
        EXPECT_GT(v, res.recovered_version) << "the resumed run made progress";
        if (comm.rank() == 0) {
            final_state = g;
            final_version = v;
        }
    });

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, n, n);
        persist::RecoveryOptions opts;
        opts.dir = dir.path();
        const auto res = persist::recover<SR>(A, opts);
        EXPECT_EQ(res.recovered_version, final_version);
        const auto g = test::sorted_global(A);
        if (comm.rank() == 0)
            test::expect_bit_identical(g, final_state,
                                       "second recovery after resume");
    });
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, RecoveryG,
    ::testing::ValuesIn(dsg::test::grid_shape_cases_sync_only()),
    dsg::test::grid_case_name);

TEST(Recovery, ColdDirectoryRecoversToEmptyVersionZero) {
    ScratchDir dir;
    par::run_world(1, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, 64, 64);
        persist::RecoveryOptions opts;
        opts.dir = dir.path();
        const auto res = persist::recover<SR>(A, opts);
        EXPECT_FALSE(res.had_checkpoint);
        EXPECT_EQ(res.recovered_version, 0u);
        EXPECT_EQ(res.replayed_epochs, 0u);
        EXPECT_EQ(A.global_nnz(), 0u);
    });
}

TEST(Recovery, WrongGridIsRejectedNotMisread) {
    ScratchDir dir;
    const index_t n = 128;
    par::run_world(4, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, n, n);
        Engine engine(A);
        persist::PersistConfig pc;
        pc.dir = dir.path();
        pc.checkpoint_stride = 1;
        Manager mgr(engine, A, pc, Manager::Start::Fresh);
        stream_with_durability(comm, engine,
                               stream::Scenario::SustainedUniform, n, 300,
                               3100);
    });
    EXPECT_THROW(
        par::run_world(1,
                       [&](par::Comm& comm) {
                           core::ProcessGrid grid(comm);
                           core::DistDynamicMatrix<double> A(grid, n, n);
                           persist::RecoveryOptions opts;
                           opts.dir = dir.path();
                           (void)persist::recover<SR>(A, opts);
                       }),
        persist::PersistError);
}

}  // namespace
