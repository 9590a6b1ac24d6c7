// Cross-rank metric federation: label insertion identity, the wire
// round-trip (including hostile frames), the pure merge/skew math, and the
// collective federate() across every grid shape of the shared sweep —
// capped by an end-to-end check that rank 0's /metrics endpoint serves the
// federated view with per-rank labels and imbalance gauges on a 2x3 world.
#include "obs/federate.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "common/grid_shapes.hpp"
#include "obs/introspection.hpp"
#include "obs/metrics.hpp"
#include "par/comm.hpp"

namespace obs = dsg::obs;
namespace par = dsg::par;

namespace {

// ---------------------------------------------------------------------------
// with_label: the registry's render identity, preserved
// ---------------------------------------------------------------------------

TEST(WithLabel, InsertsInSortedPosition) {
    EXPECT_EQ(obs::with_label("m", "rank", "3"), "m{rank=3}");
    EXPECT_EQ(obs::with_label("m{a=1,z=2}", "rank", "3"),
              "m{a=1,rank=3,z=2}");
    EXPECT_EQ(obs::with_label("m{z=2}", "aaa", "1"), "m{aaa=1,z=2}");
}

TEST(WithLabel, ExistingLabelWins) {
    EXPECT_EQ(obs::with_label("m{rank=7}", "rank", "3"), "m{rank=7}");
}

// ---------------------------------------------------------------------------
// Wire round-trip
// ---------------------------------------------------------------------------

obs::MetricsSnapshot odd_snapshot() {
    obs::MetricsSnapshot snap;
    snap.ts_ms = 1234567;
    snap.counters.emplace_back("plain", 42u);
    snap.counters.emplace_back("labelled{a=x,b=y}", 0u);
    snap.counters.emplace_back("weird{path=/tmp/a b,q=\"quoted\"}", 9u);
    snap.gauges.emplace_back("negative", -3.25);
    snap.gauges.emplace_back("", 1.0);  // empty key survives the wire
    obs::HistogramSummary h;
    h.count = 10;
    h.mean = 1.5;
    h.p50 = 1.0;
    h.p99 = 3.0;
    h.max = 4.0;
    snap.histograms.emplace_back("lat_ns{class=k-hop}", h);
    return snap;
}

TEST(SnapshotWire, RoundTripsEveryField) {
    const obs::MetricsSnapshot in = odd_snapshot();
    const obs::MetricsSnapshot out =
        obs::deserialize_snapshot(obs::serialize_snapshot(in));
    EXPECT_EQ(out.ts_ms, in.ts_ms);
    ASSERT_EQ(out.counters.size(), in.counters.size());
    for (std::size_t k = 0; k < in.counters.size(); ++k)
        EXPECT_EQ(out.counters[k], in.counters[k]) << k;
    ASSERT_EQ(out.gauges.size(), in.gauges.size());
    for (std::size_t k = 0; k < in.gauges.size(); ++k)
        EXPECT_EQ(out.gauges[k], in.gauges[k]) << k;
    ASSERT_EQ(out.histograms.size(), in.histograms.size());
    EXPECT_EQ(out.histograms[0].first, in.histograms[0].first);
    EXPECT_EQ(out.histograms[0].second.count, 10u);
    EXPECT_EQ(out.histograms[0].second.p99, 3.0);
}

TEST(SnapshotWire, TruncatedFrameThrows) {
    const par::Buffer buf = obs::serialize_snapshot(odd_snapshot());
    const par::Buffer cut(
        buf.begin(),
        buf.begin() + static_cast<std::ptrdiff_t>(buf.size() / 2));
    EXPECT_THROW((void)obs::deserialize_snapshot(cut),
                 par::TruncatedBufferError);
}

TEST(SnapshotWire, WrongMagicThrows) {
    par::Buffer buf = obs::serialize_snapshot(odd_snapshot());
    std::uint32_t bad = 0xdeadbeef;
    std::memcpy(buf.data(), &bad, sizeof bad);
    EXPECT_THROW((void)obs::deserialize_snapshot(buf), std::runtime_error);
}

// ---------------------------------------------------------------------------
// The merge/skew math (pure)
// ---------------------------------------------------------------------------

double gauge_value(const obs::MetricsSnapshot& snap, const std::string& key) {
    for (const auto& [k, v] : snap.gauges)
        if (k == key) return v;
    ADD_FAILURE() << "gauge not found: " << key;
    return -1.0;
}

TEST(Merge, RankLabelsAndSkewGauges) {
    obs::MetricsSnapshot r0, r1, r2;
    r0.counters.emplace_back("ops", 10u);
    r1.counters.emplace_back("ops", 30u);
    r2.counters.emplace_back("ops", 20u);
    r0.gauges.emplace_back("depth{q=a}", 4.0);
    r1.gauges.emplace_back("depth{q=a}", 4.0);
    r2.gauges.emplace_back("depth{q=a}", 4.0);
    const obs::MetricsSnapshot fed =
        obs::merge_rank_snapshots({r0, r1, r2});

    std::vector<std::string> counter_keys;
    counter_keys.reserve(fed.counters.size());
    for (const auto& [k, v] : fed.counters) counter_keys.push_back(k);
    EXPECT_EQ(counter_keys, (std::vector<std::string>{
                                "ops{rank=0}", "ops{rank=1}", "ops{rank=2}"}));

    // max/mean over {10, 30, 20}: mean 20, imbalance 1.5.
    EXPECT_DOUBLE_EQ(gauge_value(fed, "ops_rank_max"), 30.0);
    EXPECT_DOUBLE_EQ(gauge_value(fed, "ops_rank_min"), 10.0);
    EXPECT_DOUBLE_EQ(gauge_value(fed, "ops_rank_imbalance"), 1.5);
    // A perfectly even family reads exactly 1.0, labels preserved.
    EXPECT_DOUBLE_EQ(gauge_value(fed, "depth_rank_imbalance{q=a}"), 1.0);
    EXPECT_DOUBLE_EQ(gauge_value(fed, "depth{q=a,rank=1}"), 4.0);
    EXPECT_DOUBLE_EQ(gauge_value(fed, "cluster_ranks"), 3.0);
}

TEST(Merge, AllZeroFamilyIsBalancedNotInfinite) {
    obs::MetricsSnapshot r0, r1;
    r0.counters.emplace_back("idle", 0u);
    r1.counters.emplace_back("idle", 0u);
    const obs::MetricsSnapshot fed = obs::merge_rank_snapshots({r0, r1});
    EXPECT_DOUBLE_EQ(gauge_value(fed, "idle_rank_imbalance"), 1.0);
}

TEST(Merge, OutputIsSortedByKey) {
    obs::MetricsSnapshot r0, r1;
    r0.gauges.emplace_back("zz", 1.0);
    r0.gauges.emplace_back("aa", 1.0);
    r1.gauges.emplace_back("zz", 2.0);
    r1.gauges.emplace_back("aa", 2.0);
    const obs::MetricsSnapshot fed = obs::merge_rank_snapshots({r0, r1});
    for (std::size_t k = 1; k < fed.gauges.size(); ++k)
        EXPECT_LT(fed.gauges[k - 1].first, fed.gauges[k].first) << k;
}

// ---------------------------------------------------------------------------
// federate(): the collective, across the shared grid-shape sweep
// ---------------------------------------------------------------------------

class FederateG : public ::testing::TestWithParam<dsg::test::GridCase> {};

TEST_P(FederateG, EveryRankGetsTheIdenticalClusterView) {
    const auto c = GetParam();
    std::vector<std::string> rendered(static_cast<std::size_t>(c.p()));
    dsg::test::run_case(c, [&](par::Comm& comm) {
        obs::MetricsSnapshot local;
        local.gauges.emplace_back(
            "work", static_cast<double>(comm.rank() + 1));
        local.counters.emplace_back("fixed", 5u);
        const obs::MetricsSnapshot fed = obs::federate(comm, local);
        rendered[static_cast<std::size_t>(comm.rank())] =
            fed.to_prometheus();

        // Per-rank labels for EVERY rank of the world, plus skew gauges.
        for (int r = 0; r < comm.size(); ++r) {
            const std::string key = "work{rank=" + std::to_string(r) + '}';
            EXPECT_DOUBLE_EQ(gauge_value(fed, key),
                             static_cast<double>(r + 1));
        }
        EXPECT_DOUBLE_EQ(gauge_value(fed, "cluster_ranks"),
                         static_cast<double>(comm.size()));
        // work over {1..p}: mean (p+1)/2, max p -> imbalance 2p/(p+1).
        const double p = static_cast<double>(comm.size());
        EXPECT_NEAR(gauge_value(fed, "work_rank_imbalance"),
                    2.0 * p / (p + 1.0), 1e-12);
        EXPECT_DOUBLE_EQ(gauge_value(fed, "fixed_rank_imbalance"), 1.0);
    });
    // The merged view is identical on every rank (it must be: rank 0
    // serves it for the whole cluster).
    for (std::size_t r = 1; r < rendered.size(); ++r)
        EXPECT_EQ(rendered[r], rendered[0]) << "rank " << r;
}

INSTANTIATE_TEST_SUITE_P(GridShapes, FederateG,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

// End-to-end on the rectangular 2x3 world (and the rest of the sweep):
// rank 0 runs a real IntrospectionServer whose /metrics provider serves
// the federated snapshot; a loopback scrape must carry all p rank labels
// and the imbalance gauges — the acceptance check of the ISSUE.
class FederatedHttpG : public ::testing::TestWithParam<dsg::test::GridCase> {
};

TEST_P(FederatedHttpG, Rank0ServesAllRanksOverHttp) {
    const auto c = GetParam();
    std::string scraped;
    par::run_world(c.p(), [&](par::Comm& comm) {
        obs::MetricsSnapshot local;
        local.gauges.emplace_back(
            "stream_ops_applied", 100.0 * (comm.rank() + 1));
        const obs::MetricsSnapshot fed = obs::federate(comm, local);

        if (comm.rank() == 0) {
            obs::IntrospectionServer server;
            obs::IntrospectionServer::Config cfg;
            cfg.metrics_provider = [&fed] { return fed; };
            server.start(std::move(cfg));
            scraped = obs::http_fetch(server.port(), "/metrics");
            server.stop();
        }
        comm.barrier();  // ranks > 0 wait out the scrape
    });
    for (int r = 0; r < c.p(); ++r) {
        const std::string label = "rank=\"" + std::to_string(r) + "\"";
        EXPECT_NE(scraped.find("stream_ops_applied{" + label + "}"),
                  std::string::npos)
            << "missing " << label << " in:\n"
            << scraped;
    }
    EXPECT_NE(scraped.find("stream_ops_applied_rank_imbalance"),
              std::string::npos);
    EXPECT_NE(scraped.find("# TYPE stream_ops_applied_rank_imbalance gauge"),
              std::string::npos);
    EXPECT_NE(scraped.find("cluster_ranks " + std::to_string(c.p())),
              std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, FederatedHttpG,
    ::testing::ValuesIn(dsg::test::grid_shape_cases_sync_only()),
    dsg::test::grid_case_name);

}  // namespace
