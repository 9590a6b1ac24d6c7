// Closed-loop SLO harness for the serving tier (ROADMAP item 5(c)).
//
// Unlike bench_query_serving (which measures per-call latency from inside
// the producer threads), this bench shapes traffic the way a client fleet
// would: a paced load generator fixes an arrival schedule at a target QPS
// and measures ON-ARRIVAL latency — scheduled arrival to completion —
// which is coordinated-omission-safe (see serve/load_gen.hpp). Queries run
// against the admission-controlled background executor while the streaming
// engine ingests writes underneath, so the numbers include everything a
// client sees: admission wait, deadline expiry, shedding, cache hits and
// snapshot staleness.
//
// Per target-QPS cell one DSG_BENCH_JSON record (mode = "slo") carries
// on-arrival p50/p99/p999/max, per-class SLO-violation counts, achieved
// QPS and the slow-query flight-recorder summary. scripts/slo-gate.py
// gates CI on these records (structure + violation-rate ceiling +
// optional baseline comparison via scripts/bench-compare.py);
// BENCH_9.json is the committed smoke-scale baseline.
#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "bench_common.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/load_gen.hpp"
#include "serve/query_executor.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

using namespace dsg;
using namespace dsg::bench;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;

namespace {

constexpr int kRanks = 4;
constexpr int kProducers = 2;  // per rank
constexpr int kScale = 12;     // 4096 vertices
constexpr std::size_t kInitialEdges = 20'000;
constexpr double kSloMs = 25.0;  // generous: CI runners are 1-2 cores

std::size_t writes_per_producer() {
    return std::max<std::size_t>(
        250, static_cast<std::size_t>(2'000 * bench_scale()));
}

/// Arrivals per cell: enough to resolve a p99 at smoke scale, more at
/// full scale.
std::size_t arrivals_per_cell() {
    return std::max<std::size_t>(
        400, static_cast<std::size_t>(3'000 * bench_scale()));
}

std::vector<Triple<double>> initial_slice(int rank) {
    auto mine = graph::rmat_edges(kScale, kInitialEdges / kRanks,
                                  7 + static_cast<std::uint64_t>(rank));
    sparse::IndexPermutation perm(index_t{1} << kScale, 4242);
    perm.apply(mine);
    return mine;
}

/// JSON-safe field suffix for a query class ("k-hop" -> "k_hop").
std::string class_field(const char* prefix, serve::QueryKind kind) {
    std::string s = prefix;
    for (const char* c = serve::query_kind_name(kind); *c != '\0'; ++c)
        s.push_back(*c == '-' ? '_' : *c);
    return s;
}

struct SloCell {
    serve::LoadGenReport rep;
    double ingest_ops_per_s = 0;
    std::uint64_t published = 0;
    std::uint64_t flight_recorded = 0;
    std::uint64_t flight_worst_total_ns = 0;
};

SloCell run_slo_cell(double target_qps) {
    SloCell cell;
    serve::StoreConfig scfg;
    scfg.publish_every = 4;
    scfg.retain = 3;
    serve::SnapshotStore<double> store(scfg);
    serve::ResultCache cache;
    store.set_cache(&cache);
    serve::FlightRecorder recorder(16);
    serve::ExecutorConfig ecfg;
    ecfg.background = true;  // the admission-controlled client path
    ecfg.pending_capacity = 4096;
    ecfg.deadline = std::chrono::milliseconds(
        static_cast<std::int64_t>(2 * kSloMs));
    ecfg.cache = &cache;
    ecfg.recorder = &recorder;
    serve::QueryExecutor<double> ex(store, ecfg);

    const index_t n = index_t{1} << kScale;
    std::atomic<bool> engine_done{false};

    // The load generator paces against the executor from outside the rank
    // world, like an external client. It waits for the first publication so
    // the cell measures serving, not the pre-attach window.
    std::thread loadgen([&] {
        while (store.published() == 0 &&
               !engine_done.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        serve::LoadGenConfig lg;
        lg.target_qps = target_qps;
        lg.total = arrivals_per_cell();
        lg.slo_ms = kSloMs;
        cell.rep = serve::run_paced(ex, lg, [&](std::uint64_t k) {
            return serve::paced_query(k, n);
        });
    });

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        auto A = core::build_dynamic_matrix<SR>(grid, n, n,
                                                initial_slice(comm.rank()));
        analytics::AnalyticsHub<double> hub;
        hub.emplace<analytics::LiveTriangleMaintainer>(grid, n);

        stream::EngineConfig cfg;
        cfg.epoch_batch = 512;
        cfg.epoch_deadline = std::chrono::milliseconds(5);
        Engine engine(A, cfg);
        hub.attach(engine);
        store.attach(engine, A, &hub);

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::ServingReadHeavy;
        wl.n = n;
        wl.writes = writes_per_producer();
        wl.seed = 51 + static_cast<std::uint64_t>(comm.rank());

        const double elapsed_ms = timed_ms(comm, [&] {
            stream::run_producers(engine, wl, kProducers,
                                  [](int, index_t, index_t) {});
        });

        const auto total_ops = comm.allreduce<std::uint64_t>(
            engine.stats().local_ops,
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
        if (comm.rank() == 0)
            cell.ingest_ops_per_s =
                static_cast<double>(total_ops) / (elapsed_ms * 1e-3);
    });
    engine_done.store(true, std::memory_order_release);
    loadgen.join();  // tail queries are served from the final snapshot
    ex.stop();

    cell.published = store.published();
    cell.flight_recorded = recorder.offered();
    const auto worst = recorder.worst();
    if (!worst.empty()) cell.flight_worst_total_ns = worst.front().total_ns;
    return cell;
}

}  // namespace

int main() {
    print_header("Closed-loop SLO serving (src/serve/ + serve/load_gen.hpp)",
                 "no figure — ROADMAP item 5(c), the traffic-shaped gate");
    std::printf(
        "%d ranks, %d producers/rank, %zu writes/producer, %zu arrivals/cell, "
        "SLO %.0f ms on-arrival\n",
        kRanks, kProducers, writes_per_producer(), arrivals_per_cell(),
        kSloMs);

    std::printf("\n%-10s %8s %8s %6s %8s %9s %9s %9s %9s %7s\n", "target",
                "issued", "served", "shed", "expired", "p50 ms", "p99 ms",
                "p999 ms", "viol.", "qps");
    bool sane = true;
    for (const double qps : {500.0, 2000.0}) {
        const SloCell c = run_slo_cell(qps);
        const auto& r = c.rep;
        std::printf(
            "%-10.0f %8llu %8llu %6llu %8llu %9.2f %9.2f %9.2f %8llu %7.0f\n",
            qps, static_cast<unsigned long long>(r.issued),
            static_cast<unsigned long long>(r.served),
            static_cast<unsigned long long>(r.shed),
            static_cast<unsigned long long>(r.expired), r.p50_ms, r.p99_ms,
            r.p999_ms, static_cast<unsigned long long>(r.slo_violations),
            r.achieved_qps);

        // Structural sanity this binary owns (the SLO levels themselves are
        // scripts/slo-gate.py's to judge): every arrival is accounted for
        // exactly once and the percentiles are ordered.
        sane = sane && r.issued > 0 &&
               r.served + r.shed + r.expired == r.issued &&
               r.p50_ms <= r.p99_ms && r.p99_ms <= r.p999_ms &&
               r.p999_ms <= r.max_ms;

        JsonRecord rec("bench_slo_serving");
        rec.field("mode", "slo")
            .field("target_qps", qps)
            .field("slo_ms", kSloMs)
            .field("ranks", kRanks)
            .field("writes_per_producer", writes_per_producer())
            .field("arrivals", r.issued)
            .field("served", r.served)
            .field("ok", r.ok)
            .field("shed", r.shed)
            .field("expired", r.expired)
            .field("cache_hits", r.cache_hits)
            .field("on_arrival_p50_ms", r.p50_ms)
            .field("on_arrival_p99_ms", r.p99_ms)
            .field("on_arrival_p999_ms", r.p999_ms)
            .field("on_arrival_max_ms", r.max_ms)
            .field("slo_violations", r.slo_violations)
            .field("violation_rate", r.violation_rate())
            .field("achieved_qps", r.achieved_qps)
            .field("max_submit_lateness_ms", r.max_submit_lateness_ms)
            .field("ingest_ops_per_s", c.ingest_ops_per_s)
            .field("snapshots_published", c.published)
            .field("flight_recorded", c.flight_recorded)
            .field("flight_worst_total_ns", c.flight_worst_total_ns);
        for (std::size_t k = 0; k < serve::kQueryKindCount; ++k)
            rec.field(class_field("slo_violations_",
                                  static_cast<serve::QueryKind>(k))
                          .c_str(),
                      r.violations_by_class[k]);
        json_record(rec);
    }

    std::printf("\nstructural sanity: %s (accounting exact, percentiles "
                "ordered; SLO levels gated by scripts/slo-gate.py)\n",
                sane ? "PASS" : "FAIL");
    if (json_enabled()) json_flush();
    return sane ? 0 : 1;
}
