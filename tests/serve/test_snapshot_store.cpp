// SnapshotStore tests: publication cadence and retention, immutability of
// published versions, refcounted retirement under concurrent readers (the
// oldest version is freed only after its last reader drops, never while
// pinned), frozen analytics readouts, and query correctness against a
// brute-force reference. The concurrent tests are part of the CI TSan job.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "common/grid_shapes.hpp"
#include "analytics/maintainer.hpp"
#include "par/comm.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

namespace {

using namespace dsg;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using sparse::index_t;
using sparse::Triple;
using stream::OpKind;
using dsg::test::GridCase;

constexpr int kRanks = 4;  // 2x2 grid

class SnapshotStoreG : public ::testing::TestWithParam<GridCase> {};

TEST(SnapshotStore, PublishCadenceAndRetention) {
    serve::StoreConfig scfg;
    scfg.publish_every = 2;
    scfg.retain = 2;
    serve::SnapshotStore<double> store(scfg);

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 32;
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.epoch_batch = 1;  // one buffered op triggers an epoch
        Engine engine(A, cfg);
        store.attach(engine, A);  // publishes version 0

        const auto r = static_cast<index_t>(comm.rank());
        for (index_t e = 1; e <= 5; ++e) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {r, e, 1.0}}));
            engine.pump();  // collective; applies exactly this epoch
        }
        engine.queue().close();
        engine.run();  // drains the (empty) tail collectively
    });

    // Published at versions 0 (attach), 2 and 4; retention keeps {2, 4}.
    EXPECT_EQ(store.published(), 3u);
    EXPECT_EQ(store.retained(), 2u);
    ASSERT_TRUE(store.current_version().has_value());
    EXPECT_EQ(*store.current_version(), 4u);
    EXPECT_EQ(*store.oldest_version(), 2u);
    EXPECT_EQ(store.get(0), nullptr);  // retired
    ASSERT_NE(store.get(2), nullptr);
    EXPECT_EQ(store.get(2)->version(), 2u);
    EXPECT_EQ(store.live_snapshots(), 2);
}

TEST_P(SnapshotStoreG, PublishedVersionsAreImmutablePerEpochImages) {
    const GridCase gc = GetParam();
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    scfg.retain = 8;
    serve::SnapshotStore<double> store(scfg);

    dsg::test::run_case(gc, [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        const index_t n = 32;
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.epoch_batch = 1;
        Engine engine(A, cfg);
        store.attach(engine, A);

        const auto r = static_cast<index_t>(comm.rank());
        for (index_t e = 1; e <= 3; ++e) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {r, 10 + e, 1.0}}));
            engine.pump();
        }
        engine.queue().close();
        engine.run();
    });

    // Version v froze exactly the first v edges of every rank — later
    // epochs must not leak into earlier published snapshots.
    for (std::uint64_t v = 1; v <= 3; ++v) {
        const auto snap = store.get(v);
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->version(), v);
        EXPECT_EQ(snap->nnz(), static_cast<std::size_t>(gc.p()) * v);
        for (index_t rank = 0; rank < gc.p(); ++rank)
            for (index_t e = 1; e <= 3; ++e)
                EXPECT_EQ(snap->edge_exists(rank, 10 + e),
                          static_cast<std::uint64_t>(e) <= v)
                    << "version " << v << " rank " << rank << " edge " << e;
    }
    // The attach-time snapshot of the empty matrix is still pinnable.
    ASSERT_NE(store.get(0), nullptr);
    EXPECT_EQ(store.get(0)->nnz(), 0u);
}

// The lifecycle acceptance test: a pinned snapshot survives its retirement
// from the store — it is freed only when the last reader drops it — while
// concurrent readers hammer current() and queries against live publishing.
TEST(SnapshotStore, RefcountedRetirementUnderConcurrentReaders) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    scfg.retain = 2;
    serve::SnapshotStore<double> store(scfg);
    std::shared_ptr<const serve::Snapshot<double>> pinned;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 256;
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        // A small ring bounds how much one epoch can drain, so the 2000
        // writes are guaranteed to span many applied epochs (and therefore
        // many publications) no matter how the host schedules the threads.
        cfg.queue_capacity = 256;
        cfg.epoch_batch = 128;
        cfg.epoch_deadline = std::chrono::milliseconds(2);
        Engine engine(A, cfg);
        store.attach(engine, A);

        if (comm.rank() == 0) {
            pinned = store.current();  // pin version 0 for the whole run
            ASSERT_NE(pinned, nullptr);
            ASSERT_EQ(pinned->version(), 0u);
        }
        comm.barrier();

        // One reader thread per rank hammers the store while epochs apply;
        // snapshots are grabbed and dropped every iteration.
        std::atomic<bool> done{false};
        std::thread reader([&] {
            std::uint64_t polls = 0;
            while (!done.load(std::memory_order_acquire)) {
                auto snap = store.current();
                if (snap) {
                    const auto i = static_cast<index_t>(polls % 256);
                    (void)snap->degree(i);
                    (void)snap->edge_exists(i, (i * 7) % 256);
                    (void)snap->k_hop_count(i, 2);
                }
                ++polls;
            }
        });

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::SustainedUniform;
        wl.n = n;
        wl.writes = 2'000;
        wl.seed = 400 + static_cast<std::uint64_t>(comm.rank());
        engine.queue().register_producer();
        std::thread producer([&] {
            stream::drive_producer(engine,
                                   stream::WorkloadProducer(wl, comm.rank()),
                                   [](index_t, index_t) {});
        });
        engine.run();
        producer.join();
        done.store(true, std::memory_order_release);
        reader.join();

        comm.barrier();  // all readers joined before asserting population
        if (comm.rank() == 0) {
            EXPECT_GE(store.published(), 3u) << "need retirement to happen";
            // Version 0 was retired from the store long ago, but the pin
            // keeps exactly one extra snapshot alive.
            EXPECT_EQ(store.get(0), nullptr);
            EXPECT_EQ(store.live_snapshots(),
                      static_cast<std::int64_t>(store.retained()) + 1);
            // The pinned snapshot still answers as the empty version 0.
            EXPECT_EQ(pinned->version(), 0u);
            EXPECT_EQ(pinned->nnz(), 0u);
            EXPECT_FALSE(pinned->edge_exists(0, 1));
            pinned.reset();  // last reader drops: now it is freed
            EXPECT_EQ(store.live_snapshots(),
                      static_cast<std::int64_t>(store.retained()));
        }
        comm.barrier();
    });
}

TEST(SnapshotStore, FrozenAnalyticsReadoutsMatchTheHubAtPublishTime) {
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    scfg.retain = 4;
    serve::SnapshotStore<double> store(scfg);
    double final_triangles = -1;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 64;
        core::DistDynamicMatrix<double> A(grid, n, n);

        analytics::AnalyticsHub<double> hub;
        auto& triangles =
            hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);

        stream::EngineConfig cfg;
        cfg.epoch_batch = 1 << 12;
        Engine engine(A, cfg);
        hub.attach(engine);
        store.attach(engine, A, &hub);

        if (comm.rank() == 0) {
            // A triangle {1,2,3} plus a tail edge.
            for (const auto& t : std::vector<Triple<double>>{
                     {1, 2, 1.0}, {2, 3, 1.0}, {1, 3, 1.0}, {3, 4, 1.0}})
                ASSERT_TRUE(engine.queue().push({OpKind::Add, t}));
        }
        engine.queue().close();
        engine.run();
        if (comm.rank() == 0) final_triangles = triangles.snapshot();
        comm.barrier();
    });

    ASSERT_GE(final_triangles, 0.0);
    EXPECT_DOUBLE_EQ(final_triangles, 1.0);
    const auto snap = store.current();
    ASSERT_NE(snap, nullptr);
    ASSERT_EQ(snap->readouts().size(), 1u);
    const auto frozen = snap->analytics("triangles");
    ASSERT_TRUE(frozen.has_value());
    EXPECT_DOUBLE_EQ(*frozen, final_triangles);
    EXPECT_FALSE(snap->analytics("no-such-metric").has_value());
}

TEST_P(SnapshotStoreG, QueriesMatchBruteForceReference) {
    const GridCase gc = GetParam();
    serve::StoreConfig scfg;
    scfg.publish_every = 1;
    serve::SnapshotStore<double> store(scfg);
    std::vector<Triple<double>> reference;

    dsg::test::run_case(gc, [&](par::Comm& comm) {
        core::ProcessGrid grid = dsg::test::make_grid(comm, gc);
        const index_t n = 48;
        core::DistDynamicMatrix<double> A(grid, n, n);
        stream::EngineConfig cfg;
        cfg.epoch_batch = 256;
        Engine engine(A, cfg);
        store.attach(engine, A);

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::SustainedUniform;
        wl.n = n;
        wl.writes = 600;
        wl.seed = 123 + static_cast<std::uint64_t>(comm.rank());
        engine.queue().register_producer();
        std::thread producer([&] {
            stream::drive_producer(engine,
                                   stream::WorkloadProducer(wl, comm.rank()),
                                   [](index_t, index_t) {});
        });
        engine.run();
        producer.join();

        auto all = A.gather_global();  // collective
        if (comm.rank() == 0) reference = std::move(all);
        comm.barrier();
    });

    const auto snap = store.current();
    ASSERT_NE(snap, nullptr);
    ASSERT_FALSE(reference.empty());
    EXPECT_EQ(snap->nnz(), reference.size());

    // Adjacency reference: value map + per-row neighbor sets.
    std::map<std::pair<index_t, index_t>, double> values;
    std::map<index_t, std::set<index_t>> adj;
    for (const auto& t : reference) {
        values[{t.row, t.col}] = t.value;
        adj[t.row].insert(t.col);
    }

    for (const auto& [coord, value] : values) {
        EXPECT_TRUE(snap->edge_exists(coord.first, coord.second));
        const auto v = snap->value_at(coord.first, coord.second);
        ASSERT_TRUE(v.has_value());
        EXPECT_DOUBLE_EQ(*v, value);
    }
    for (index_t i = 0; i < 48; ++i) {
        const auto it = adj.find(i);
        EXPECT_EQ(snap->degree(i), it == adj.end() ? 0u : it->second.size());
    }
    EXPECT_FALSE(snap->edge_exists(-1, 0));
    EXPECT_FALSE(snap->edge_exists(0, 48));

    // k-hop vs a BFS reference from several sources.
    for (const index_t src : {index_t{0}, index_t{7}, index_t{23}}) {
        for (const int hops : {1, 2, 3}) {
            std::set<index_t> visited{src};
            std::vector<index_t> frontier{src};
            for (int h = 0; h < hops; ++h) {
                std::vector<index_t> next;
                for (const auto u : frontier) {
                    const auto it = adj.find(u);
                    if (it == adj.end()) continue;
                    for (const auto v : it->second)
                        if (visited.insert(v).second) next.push_back(v);
                }
                frontier.swap(next);
            }
            EXPECT_EQ(snap->k_hop_count(src, hops), visited.size() - 1)
                << "src " << src << " hops " << hops;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(GridShapes, SnapshotStoreG,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

}  // namespace
