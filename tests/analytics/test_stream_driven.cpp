// Deterministic epoch-delta edge cases for the graph maintainers: the
// satellite coverage for DynamicTriangleCounter::update and
// DynamicMultiSourceProduct::apply_decreases when driven from streamed
// epochs — duplicates within an epoch, insert-then-delete of the same edge
// in one epoch, re-ADDs of live edges, MASKs of absent edges, and empty /
// locally-empty epochs. Ranks push before pumping, so every epoch's content
// is exact.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "core/dist_test_utils.hpp"
#include "par/comm.hpp"
#include "stream/epoch_engine.hpp"

namespace {

using namespace dsg;
using test::CoordMap;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using sparse::index_t;
using sparse::Triple;
using stream::OpKind;

constexpr int kRanks = 4;  // 2x2 grid

stream::EngineConfig fast_epochs() {
    stream::EngineConfig cfg;
    cfg.epoch_batch = 1 << 12;  // everything pushed so far fits one epoch
    cfg.epoch_deadline = std::chrono::milliseconds(2);
    return cfg;
}

CoordMap undirected(std::initializer_list<std::pair<index_t, index_t>> edges) {
    CoordMap m;
    for (const auto& [i, j] : edges) {
        m[{i, j}] = 1.0;
        m[{j, i}] = 1.0;
    }
    return m;
}

TEST(StreamDrivenTriangles, DuplicatesWithinOneEpochCollapse) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        Engine engine(A, fast_epochs());
        hub.attach(engine);

        // Epoch 1: the triangle {1,2,3} streamed with a duplicate ADD, a
        // reversed-direction duplicate, and a self-loop.
        if (comm.rank() == 0) {
            auto& q = engine.queue();
            ASSERT_TRUE(q.push({OpKind::Add, {1, 2, 1.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {2, 1, 1.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {1, 2, 1.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {2, 3, 1.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {1, 3, 1.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {7, 7, 1.0}}));  // self-loop
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 1.0);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{1, 2}, {2, 3}, {1, 3}}));
        if (comm.rank() == 0) {
            EXPECT_EQ(tri.ops_skipped(), 1u);
        }

        // Epoch 2: duplicate MASKs of the same edge, one direction reversed
        // — removed exactly once (a -1 update driven from the delta).
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Mask, {2, 1, 0.0}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Mask, {1, 2, 0.0}}));
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 0.0);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{2, 3}, {1, 3}}));
        comm.barrier();
    });
}

TEST(StreamDrivenTriangles, InsertThenDeleteSameEdgeInOneEpoch) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        Engine engine(A, fast_epochs());
        hub.attach(engine);

        // Epoch 1: {4,5} inserted and deleted within the epoch nets to
        // nothing; the unrelated {5,6} survives.
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {4, 5, 1.0}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Mask, {4, 5, 0.0}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {5, 6, 1.0}}));
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 0.0);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{5, 6}}));

        // Epoch 2: completing the triangle counts it.
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {4, 5, 1.0}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {4, 6, 1.0}}));
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 1.0);

        // Epoch 3: on a LIVE edge, same-epoch ADD + MASK nets to a delete
        // (the engine applies the epoch's ADDs before its MASKs).
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {4, 5, 1.0}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Mask, {4, 5, 0.0}}));
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 0.0);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{5, 6}, {4, 6}}));
        comm.barrier();
    });
}

TEST(StreamDrivenTriangles, ReAddOfLiveEdgeAndMaskOfAbsentEdgeAreNoops) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        Engine engine(A, fast_epochs());
        hub.attach(engine);

        if (comm.rank() == 0) {
            for (auto [i, j] : {std::pair<index_t, index_t>{1, 2},
                                {2, 3},
                                {1, 3}}) {
                ASSERT_TRUE(engine.queue().push({OpKind::Add, {i, j, 1.0}}));
            }
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 1.0);

        // Re-ADD of a live edge (from a DIFFERENT rank's queue) and a MASK
        // of an edge that was never inserted: both dissolve at the pair's
        // owners; the adjacency stays a 0/1 matrix.
        if (comm.rank() == 1) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {2, 1, 1.0}}));
        }
        if (comm.rank() == 2) {
            ASSERT_TRUE(engine.queue().push({OpKind::Mask, {8, 9, 0.0}}));
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_DOUBLE_EQ(tri.snapshot(), 1.0);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{1, 2}, {2, 3}, {1, 3}}));
        comm.barrier();
    });
}

TEST(StreamDrivenDistances, ApplyDecreasesFromEpochDeltas) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        const std::vector<index_t> sources = {0, 2};
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& dist =
            hub.emplace<analytics::LiveDistanceMaintainer>(grid, n, sources);
        Engine engine(A, fast_epochs());
        hub.attach(engine);

        // Epoch 1: duplicate ADD of (0,1) with a worse weight loses to min;
        // (1,3) is not incident to a source and must not appear in D.
        if (comm.rank() == 0) {
            auto& q = engine.queue();
            ASSERT_TRUE(q.push({OpKind::Add, {0, 1, 5.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {0, 1, 7.0}}));
            ASSERT_TRUE(q.push({OpKind::Add, {2, 3, 2.5}}));
            ASSERT_TRUE(q.push({OpKind::Add, {1, 3, 1.0}}));
        }
        EXPECT_TRUE(engine.pump());
        test::expect_matches_exactly(dist.product().distances(),
                                     CoordMap{{{0, 1}, 5.0}, {{1, 3}, 2.5}});
        EXPECT_NEAR(dist.snapshot(), 7.5, 1e-12);
        EXPECT_EQ(dist.reached_pairs(), 2u);

        // Epoch 2: a genuine decrease, an attempted increase (loses to the
        // already-stored minimum), and a new source edge from another rank.
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {0, 1, 2.0}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {0, 1, 9.0}}));
        }
        if (comm.rank() == 3) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {2, 4, 1.5}}));
        }
        EXPECT_TRUE(engine.pump());
        test::expect_matches_exactly(
            dist.product().distances(),
            CoordMap{{{0, 1}, 2.0}, {{1, 3}, 2.5}, {{1, 4}, 1.5}});
        EXPECT_NEAR(dist.snapshot(), 6.0, 1e-12);
        EXPECT_EQ(dist.reached_pairs(), 3u);

        // Epoch 3: MERGEs and MASKs are outside the (min,+) algebra — they
        // are counted, and the maintained product is untouched even though
        // the epoch carried no ADD at all.
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Merge, {0, 1, 0.5}}));
            ASSERT_TRUE(engine.queue().push({OpKind::Mask, {2, 3, 0.0}}));
        }
        EXPECT_TRUE(engine.pump());
        test::expect_matches_exactly(
            dist.product().distances(),
            CoordMap{{{0, 1}, 2.0}, {{1, 3}, 2.5}, {{1, 4}, 1.5}});
        EXPECT_NEAR(dist.snapshot(), 6.0, 1e-12);
        if (comm.rank() == 0) {
            EXPECT_EQ(dist.ops_skipped(), 2u);
        }
        comm.barrier();
    });
}

TEST(StreamDrivenHub, LocallyEmptyDeltasAndGloballyEmptyEpochs) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        const std::vector<index_t> sources = {1};
        core::DistDynamicMatrix<double> A(grid, n, n);
        analytics::AnalyticsHub<double> hub;
        auto& tri = hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);
        auto& dist =
            hub.emplace<analytics::LiveDistanceMaintainer>(grid, n, sources);
        Engine engine(A, fast_epochs());
        hub.attach(engine);

        // Only rank 0 contributes; every other rank's delta is empty, yet
        // all ranks run the hook and publish identical derived values.
        if (comm.rank() == 0) {
            ASSERT_TRUE(engine.queue().push({OpKind::Add, {1, 2, 3.0}}));
        }
        EXPECT_TRUE(engine.pump());
        EXPECT_EQ(hub.stats(0).epochs, 1u);
        EXPECT_EQ(hub.stats(1).epochs, 1u);
        EXPECT_DOUBLE_EQ(tri.snapshot(), 0.0);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{1, 2}}));
        EXPECT_NEAR(dist.snapshot(), 3.0, 1e-12);

        // A globally empty epoch (deadline fires, nothing drained anywhere)
        // never reaches the hub.
        EXPECT_TRUE(engine.pump());
        EXPECT_EQ(hub.stats(0).epochs, 1u);
        EXPECT_EQ(engine.stats().applied_epochs, 1u);

        // A fully empty delta fed directly, with empty owner-side blocks of
        // the engine's shape, is a published no-op (the collective rounds
        // still run on every rank).
        stream::EpochDelta<double> empty;
        empty.owned_adds = core::DistDcsr<double>(grid, n, n);
        empty.owned_merges = core::DistDcsr<double>(grid, n, n);
        empty.owned_masks = core::DistDcsr<double>(grid, n, n);
        tri.on_epoch(empty);
        dist.on_epoch(empty);
        EXPECT_DOUBLE_EQ(tri.snapshot(), 0.0);
        EXPECT_NEAR(dist.snapshot(), 3.0, 1e-12);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{1, 2}}));
        comm.barrier();
    });
}

// Owner-side blocks cut for another matrix are rejected before any
// collective, on every rank alike, and leave the maintained state as it was.
TEST(StreamDrivenHub, MaintainersRejectBlocksOfAnotherShape) {
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = 16;
        analytics::LiveTriangleMaintainer tri(grid, n);
        analytics::LiveDistanceMaintainer dist(grid, n, {1});
        analytics::LiveContractionMaintainer contr(grid, n, 2,
                                                   std::vector<index_t>(n, 0));
        tri.seed({{1, 2, 1.0}});
        stream::EpochDelta<double> other;
        other.owned_adds = core::DistDcsr<double>(grid, n + 1, n + 1);
        other.owned_merges = core::DistDcsr<double>(grid, n + 1, n + 1);
        other.owned_masks = core::DistDcsr<double>(grid, n + 1, n + 1);
        EXPECT_THROW(tri.on_epoch(other), std::invalid_argument);
        EXPECT_THROW(dist.on_epoch(other), std::invalid_argument);
        EXPECT_THROW(contr.on_epoch(other), std::invalid_argument);
        // A delta whose blocks were never set (the WAL hook's) is rejected
        // too.
        EXPECT_THROW(tri.on_epoch(stream::EpochDelta<double>{}),
                     std::invalid_argument);
        test::expect_matches_exactly(tri.counter().adjacency(),
                                     undirected({{1, 2}}));
        comm.barrier();
    });
}

}  // namespace
