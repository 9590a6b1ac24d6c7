// Streaming ingestion on the epoch engine: concurrent producers to a live
// distributed matrix in one program.
//
// Each of the 4 ranks starts 2 producer threads that push ADD/MERGE/MASK
// stream ops into the rank's bounded update queue while the rank thread
// pumps the EpochEngine: epochs trigger on batch size or deadline, drain the
// queue, and apply the drained ops collectively through the paper's update
// machinery (build A*, then ADD/MERGE/MASK). The mixed read/write scenario
// additionally issues point reads through the engine's consistent reader
// snapshot while epochs are being applied.
//
// Every other run is one pipeline, built in one fixed order on a fresh
// 1024-vertex matrix: an AnalyticsHub (live triangle count, live distances
// from sources 0-3) subscribed to the engine's epoch boundaries, then the
// optional recovery, snapshot store and durability, then the introspection
// hooks and the producers. The three hub modes differ only in their
// scenario, what a read does and which optional parts they add:
//
//   (no flags)         after the five scenarios above, the analytics-read
//                      scenario, whose reads poll the derived values;
//   --checkpoint-dir   the checkpoint-under-load scenario under a
//                      persist::DurabilityManager (write-ahead op log +
//                      epoch-consistent checkpoints), so a kill -9 at ANY
//                      point is recoverable; --restore first recovers
//                      matrix, version and analytics from DIR and then
//                      continues streaming on top (the CI crash drill):
//
//     ./example_streaming_ingest --checkpoint-dir=/tmp/d --writes=200000 &
//     kill -9 $!; ./example_streaming_ingest --checkpoint-dir=/tmp/d --restore
//
//   --serve-queries    the serving-read-heavy scenario: a SnapshotStore
//                      publishes immutable snapshots at epoch boundaries and
//                      every read becomes a typed query (edge-exists /
//                      degree / k-hop / analytics-read) submitted to a
//                      shared QueryExecutor with a result cache, at
//                      --query-rate=N queries/s per producer thread. It
//                      composes with --checkpoint-dir and --restore; after
//                      a restore the initial snapshot IS the recovered state.
//
// --target-qps=N adds an external paced client to the serving run: a
// coordinated-omission-safe load generator (serve/load_gen.hpp) submits
// queries on a fixed arrival schedule against the background executor and
// reports on-arrival p50/p99/p999 against --slo-ms=MS. --events-out=FILE
// arms the anomaly watchdog (obs/watchdog.hpp) over the global registry
// and streams its structured events as JSONL alongside the metrics;
// scripts/check-trace.py validates both.
//
// --http-port=N (0 = ephemeral, bound port printed on stdout) raises the
// live introspection plane (obs/introspection.hpp) over any hub mode: rank
// 0 serves the federated cluster view (/metrics, /metrics.json, /healthz,
// /readyz, /status, /trace, /events, /flight), every other rank serves its
// own per-rank view on an ephemeral port, and the ranks federate every 4
// versions. --induce-stall-ms=MS arms the readiness drills: after --restore,
// a hold before the readiness gate opens; otherwise, on runs without
// --checkpoint-dir, a one-shot mid-run checkpoint-hook stall that flips
// /readyz 200 -> 503 -> 200. scripts/crash-recovery-test.sh and
// scripts/check-endpoints.py validate both.
//
// Run: ./build/examples/example_streaming_ingest
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "core/update_ops.hpp"
#include "graph/generators.hpp"
#include "obs/event_log.hpp"
#include "obs/exporter.hpp"
#include "obs/federate.hpp"
#include "obs/introspection.hpp"
#include "obs/metrics.hpp"
#include "obs/mirrors.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "par/comm.hpp"
#include "par/profiler.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/load_gen.hpp"
#include "serve/query_executor.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

using namespace dsg;
using sparse::index_t;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using Hub = analytics::AnalyticsHub<double>;

namespace {

constexpr int kRanks = 4;
constexpr int kProducers = 2;  // per rank
constexpr int kScale = 12;     // 4096 vertices
constexpr std::size_t kInitialEdges = 40'000;
constexpr std::size_t kWritesPerProducer = 6'000;
constexpr std::size_t kQueueCapacity = 4'096;  // every engine's ring
constexpr index_t kHubN = 1024;                // the hub modes' matrix

/// The serving tier is process-wide: one store, cache, flight recorder and
/// executor shared by every rank's producers (ranks are threads).
struct ServingTier {
    serve::SnapshotStore<double> store{{.publish_every = 4, .retain = 3}};
    serve::ResultCache cache;
    serve::FlightRecorder recorder{16};
    serve::QueryExecutor<double> executor;

    /// `background`: the admission-controlled path a paced client needs;
    /// the producers' fire-and-forget queries work either way.
    explicit ServingTier(bool background)
        : executor(store, {.pending_capacity = 4'096,
                           .deadline = std::chrono::milliseconds(250),
                           .background = background,
                           .cache = &cache,
                           .recorder = &recorder}) {
        store.set_cache(&cache);
    }
};

/// The introspection plane (--http-port), shared by the rank threads: the
/// skew watchdog run on each federated snapshot, the newest federated
/// snapshot (swapped in whole by rank 0's epoch observer, read by the HTTP
/// workers), what /status and the stall drill read, and rank 0's server,
/// declared last so it drains before the rest is destroyed.
struct Intro {
    obs::Watchdog fed_watchdog{
        obs::registry(), obs::EventLog::global(),
        {{"rank-load-imbalance", "stream_ops_applied_rank_imbalance",
          obs::RuleKind::GaugeAbove, 2.0, obs::HistField::P99, 3, 2,
          obs::Severity::Warning}}};
    std::atomic<std::shared_ptr<const obs::MetricsSnapshot>> fed;
    std::atomic<std::uint64_t> engine_version{0};  ///< newest applied version
    std::atomic<std::uint64_t> federations{0};     ///< merges completed
    std::atomic<std::uint64_t> stall_at{0};  ///< version pinned for the stall
    long stall_ms = 0;                       ///< --induce-stall-ms
    obs::IntrospectionServer server;
};

/// What a read event does in a hub mode: the rank's hub, the reading
/// producer's read count so far, and the key the read carries.
using OnRead = std::function<void(const Hub&, std::uint64_t, index_t, index_t)>;

/// A hub mode as data. Everything else is the same pipeline.
struct HubMode {
    const char* title = "";
    stream::WorkloadConfig wl;  ///< seed without the rank
    std::string dir;            ///< --checkpoint-dir; empty = not durable
    bool restore = false;
    ServingTier* serving = nullptr;
    OnRead on_read;
};

/// An analytics read polls the derived values (lock-free) instead of
/// point-probing the matrix.
void poll_hub(const Hub& hub, std::uint64_t, index_t, index_t) {
    for (std::size_t k = 0; k < hub.size(); ++k) (void)hub[k].snapshot();
}

/// Streams one scenario into A and reports this rank's engine stats.
void run_scenario(par::Comm& comm, core::DistDynamicMatrix<double>& A,
                  stream::Scenario scenario) {
    stream::WorkloadConfig wl;
    wl.scenario = scenario;
    wl.n = A.shape().nrows();
    wl.writes = kWritesPerProducer;
    wl.seed = 1000 + static_cast<std::uint64_t>(comm.rank()) * 17 +
              static_cast<std::uint64_t>(scenario);

    stream::EngineConfig cfg;
    // A small ring so producers feel backpressure and epochs interleave with
    // pushes (reads then observe earlier writes; hits are bounded by the
    // 1/p block-ownership fraction — readers only see their rank's block).
    cfg.queue_capacity = kQueueCapacity;
    cfg.epoch_batch = 2'000;
    cfg.epoch_deadline = std::chrono::milliseconds(5);
    Engine engine(A, cfg);

    std::vector<std::uint64_t> probes(kProducers), hits(kProducers);
    stream::run_producers(
        engine, wl, kProducers, [&](int p, index_t row, index_t col) {
            const auto q = static_cast<std::size_t>(p);
            ++probes[q];
            hits[q] += engine.with_snapshot(
                [&](auto snap) { return snap.contains(row, col) ? 1u : 0u; });
        });

    const std::size_t nnz = A.global_nnz();  // collective
    if (comm.rank() == 0) {
        std::printf("%-22s %s\n", stream::scenario_name(scenario),
                    engine.stats().summary().c_str());
        std::printf("%-22s   nnz now %zu", "", nnz);
        const auto all = std::accumulate(probes.begin(), probes.end(), 0ull);
        if (all > 0)
            std::printf(", reads %llu (%.0f%% hit)", all,
                        100.0 *
                            static_cast<double>(std::accumulate(
                                hits.begin(), hits.end(), 0ull)) /
                            static_cast<double>(all));
        std::printf("\n");
    }
}

/// The one pipeline of every hub mode, on one rank, built in this order:
/// matrix -> hub -> recovery (restore) -> engine at the recovered version ->
/// hub.attach -> store.attach (serving) -> durability (dir) ->
/// introspection hooks (intro) -> producers -> report.
void run_hub(par::Comm& comm, core::ProcessGrid& grid, const HubMode& mode,
             Intro* intro) {
    using Manager = persist::DurabilityManager<SR>;
    core::DistDynamicMatrix<double> B(grid, kHubN, kHubN);
    Hub hub;
    auto& triangles =
        hub.emplace<analytics::LiveTriangleMaintainer>(grid, kHubN);
    hub.emplace<analytics::LiveDistanceMaintainer>(
        grid, kHubN, std::vector<index_t>{0, 1, 2, 3});

    stream::EngineConfig cfg;
    cfg.queue_capacity = kQueueCapacity;
    cfg.epoch_batch = 1'024;
    cfg.epoch_deadline = std::chrono::milliseconds(5);
    if (mode.restore) {
        persist::RecoveryOptions ropts;
        ropts.dir = mode.dir;
        const auto res = persist::recover<SR>(B, ropts, &hub);
        cfg.initial_version = res.recovered_version;
        const std::size_t nnz = B.global_nnz();  // collective
        if (comm.rank() == 0)
            std::printf(
                "recovery OK: version %llu (checkpoint %llu + %llu replayed "
                "epochs, %llu ops this rank%s), nnz %zu, triangles %.0f\n",
                static_cast<unsigned long long>(res.recovered_version),
                static_cast<unsigned long long>(res.checkpoint_version),
                static_cast<unsigned long long>(res.replayed_epochs),
                static_cast<unsigned long long>(res.replayed_ops),
                res.truncated_tail ? ", torn tail truncated" : "",
                nnz, triangles.snapshot());
    }
    Engine engine(B, cfg);
    hub.attach(engine);
    if (mode.serving != nullptr)
        mode.serving->store.attach(engine, B, &hub);  // initial snapshot
    std::optional<Manager> mgr;
    if (!mode.dir.empty()) {
        persist::PersistConfig pc;
        pc.dir = mode.dir;
        pc.fsync_every = 8;
        pc.checkpoint_stride = 16;
        mgr.emplace(engine, B, pc,
                    mode.restore ? Manager::Start::Resume
                                 : Manager::Start::Fresh,
                    &hub);
    }

    // Introspection: every rank mirrors its own engine-local stats into a
    // small private registry and federates it every 4 versions (collective,
    // obs/federate.hpp). Rank 0 swaps the merged cluster snapshot into its
    // /metrics view and feeds the rank-imbalance watchdog; ranks > 0 serve
    // their private view on an ephemeral port. rank_server is declared
    // after rank_reg so its drain-on-destruct runs while the registry its
    // handlers read is still alive.
    std::unique_ptr<obs::Registry> rank_reg;
    std::unique_ptr<obs::IntrospectionServer> rank_server;
    if (intro != nullptr) {
        rank_reg = std::make_unique<obs::Registry>();
        if (comm.rank() != 0) {
            rank_server = std::make_unique<obs::IntrospectionServer>();
            obs::IntrospectionServer::Config rcfg;
            rcfg.registry = rank_reg.get();
            rank_server->start(std::move(rcfg));
            std::printf(
                "introspection: rank %d serving http://127.0.0.1:%u "
                "(rank view)\n",
                comm.rank(), rank_server->port());
            std::fflush(stdout);
        }
        engine.add_epoch_observer([&comm, &engine, intro,
                                   reg = rank_reg.get()](std::uint64_t v) {
            const auto& st = engine.stats();
            reg->gauge("stream_ops_applied")
                .set(static_cast<std::int64_t>(st.local_ops));
            reg->gauge("stream_epochs_applied")
                .set(static_cast<std::int64_t>(st.applied_epochs));
            reg->gauge("stream_queue_depth")
                .set(static_cast<std::int64_t>(engine.queue().size()));
            if (comm.rank() == 0)
                intro->engine_version.store(v, std::memory_order_relaxed);
            if (v % 4 != 0) return;  // v is the collective epoch version
            obs::MetricsSnapshot fed = obs::federate(comm, reg->snapshot());
            if (comm.rank() == 0) {
                intro->fed_watchdog.evaluate(fed);
                intro->fed.store(std::make_shared<const obs::MetricsSnapshot>(
                    std::move(fed)));
                intro->federations.fetch_add(1, std::memory_order_relaxed);
            }
        });
        if (mode.restore) {
            // Recovery replay held the /readyz gate down; the drill's stall
            // window holds it a little longer, then streaming resumes.
            std::this_thread::sleep_for(
                std::chrono::milliseconds(intro->stall_ms));
            if (comm.rank() == 0) intro->server.set_ready(true);
        } else if (intro->stall_ms > 0 && mode.dir.empty()) {
            // The induced checkpoint stall (durable runs own the checkpoint
            // hook): the first rank past the arming delay pins the stall to
            // its current version, and every rank whose hook sees that
            // version sleeps. Ranks that miss the pin block on the next
            // collective anyway, so the whole grid stalls once: queues
            // saturate, the Critical ingest-stall rule fires, /readyz holds
            // 503 until the backlog drains and the rule clears.
            const auto armed_at = std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(800);
            engine.set_checkpoint_hook([intro, armed_at](std::uint64_t v) {
                if (std::chrono::steady_clock::now() < armed_at) return;
                std::uint64_t expected = 0;
                intro->stall_at.compare_exchange_strong(
                    expected, v, std::memory_order_acq_rel);
                if (intro->stall_at.load(std::memory_order_acquire) == v)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(intro->stall_ms));
            });
        }
    }

    stream::WorkloadConfig wl = mode.wl;
    wl.seed += static_cast<std::uint64_t>(comm.rank());
    std::vector<std::uint64_t> reads(kProducers);  // per producer
    stream::run_producers(
        engine, wl, kProducers, [&](int p, index_t row, index_t col) {
            mode.on_read(hub, reads[static_cast<std::size_t>(p)]++, row, col);
        });

    const std::size_t nnz = B.global_nnz();  // collective
    if (comm.rank() != 0) return;
    std::printf("\n%s (%s%s):\n  %s\n", mode.title,
                stream::scenario_name(wl.scenario),
                mode.restore ? ", restored" : mgr ? ", durable" : "",
                engine.stats().summary().c_str());
    std::printf("  nnz %zu, reads %llu\n", nnz,
                std::accumulate(reads.begin(), reads.end(), 0ull));
    for (std::size_t k = 0; k < hub.size(); ++k)
        std::printf(
            "  %-18s value %10.1f   per epoch: mean %6.2f ms, max %6.2f ms\n",
            hub[k].name(), hub[k].snapshot(), hub.stats(k).mean_ms(),
            hub.stats(k).max_ms);
    if (mgr) {
        const auto& ps = mgr->stats();
        std::printf(
            "  durability: %llu epochs logged (%.1f KiB), %llu fsyncs, "
            "%llu checkpoints (%.1f KiB), log %.1f ms, ckpt %.1f ms\n",
            static_cast<unsigned long long>(ps.epochs_logged),
            static_cast<double>(ps.bytes_logged) / 1024.0,
            static_cast<unsigned long long>(ps.fsyncs),
            static_cast<unsigned long long>(ps.checkpoints),
            static_cast<double>(ps.checkpoint_bytes) / 1024.0, ps.log_ms,
            ps.checkpoint_ms);
    }
    if (mode.serving != nullptr) {
        const auto& store = mode.serving->store;
        std::printf(
            "  snapshots published %llu (retained %zu, live %lld), "
            "current version %llu\n",
            static_cast<unsigned long long>(store.published()),
            store.retained(), static_cast<long long>(store.live_snapshots()),
            static_cast<unsigned long long>(
                store.current_version().value_or(0)));
    }
}

}  // namespace

int main(int argc, char** argv) {
    std::string checkpoint_dir;
    std::string metrics_out;
    std::string trace_out;
    std::string events_out;
    long metrics_interval = 1'000;  // ms
    bool restore = false;
    bool serve_queries = false;
    double query_rate = 2'000;  // queries/s per producer thread
    double target_qps = 0;      // 0 = no paced external client
    double slo_ms = 25;         // on-arrival SLO for the paced client
    std::size_t writes = 0;     // 0 = mode default
    long http_port = -1;        // -1 = no introspection plane; 0 = ephemeral
    long induce_stall_ms = 0;   // readiness-flip drill (CI)
    for (int a = 1; a < argc; ++a) {
        const char* arg = argv[a];
        if (std::strncmp(arg, "--checkpoint-dir=", 17) == 0) {
            checkpoint_dir = arg + 17;
            if (checkpoint_dir.empty()) {
                std::fprintf(stderr, "--checkpoint-dir needs a value\n");
                return 2;
            }
        } else if (std::strcmp(arg, "--restore") == 0) {
            restore = true;
        } else if (std::strcmp(arg, "--serve-queries") == 0) {
            serve_queries = true;
        } else if (std::strncmp(arg, "--query-rate=", 13) == 0) {
            query_rate = std::strtod(arg + 13, nullptr);
            if (!(query_rate > 0)) {
                std::fprintf(stderr, "--query-rate needs a value > 0\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--target-qps=", 13) == 0) {
            target_qps = std::strtod(arg + 13, nullptr);
            if (!(target_qps > 0)) {
                std::fprintf(stderr, "--target-qps needs a value > 0\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--slo-ms=", 9) == 0) {
            slo_ms = std::strtod(arg + 9, nullptr);
            if (!(slo_ms > 0)) {
                std::fprintf(stderr, "--slo-ms needs a value > 0\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--events-out=", 13) == 0) {
            events_out = arg + 13;
            if (events_out.empty()) {
                std::fprintf(stderr, "--events-out needs a value\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--writes=", 9) == 0) {
            writes = static_cast<std::size_t>(
                std::strtoull(arg + 9, nullptr, 10));
        } else if (std::strncmp(arg, "--metrics-out=", 14) == 0) {
            metrics_out = arg + 14;
            if (metrics_out.empty()) {
                std::fprintf(stderr, "--metrics-out needs a value\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--metrics-interval=", 19) == 0) {
            metrics_interval = std::strtol(arg + 19, nullptr, 10);
            if (metrics_interval <= 0) {
                std::fprintf(stderr,
                             "--metrics-interval needs a value > 0 (ms)\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
            trace_out = arg + 12;
            if (trace_out.empty()) {
                std::fprintf(stderr, "--trace-out needs a value\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--http-port=", 12) == 0) {
            http_port = std::strtol(arg + 12, nullptr, 10);
            if (http_port < 0 || http_port > 65'535) {
                std::fprintf(stderr,
                             "--http-port needs a value in [0, 65535] "
                             "(0 = ephemeral)\n");
                return 2;
            }
        } else if (std::strncmp(arg, "--induce-stall-ms=", 18) == 0) {
            induce_stall_ms = std::strtol(arg + 18, nullptr, 10);
            if (induce_stall_ms <= 0) {
                std::fprintf(stderr,
                             "--induce-stall-ms needs a value > 0\n");
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: %s [--checkpoint-dir=DIR [--restore] "
                         "[--writes=N]] [--serve-queries [--query-rate=N] "
                         "[--target-qps=N [--slo-ms=MS]]] "
                         "[--metrics-out=FILE [--metrics-interval=MS]] "
                         "[--events-out=FILE] [--trace-out=FILE] "
                         "[--http-port=N [--induce-stall-ms=MS]]\n",
                         argv[0]);
            return 2;
        }
    }
    if (restore && checkpoint_dir.empty()) {
        std::fprintf(stderr, "--restore requires --checkpoint-dir=DIR\n");
        return 2;
    }

    // Observability sidecars: a periodic exporter snapshotting the global
    // registry (JSONL or Prometheus by extension — SIGKILL-survivable in
    // JSONL, which the crash-recovery CI drill relies on) and the epoch-
    // tagged span trace written as Chrome trace JSON on exit.
    if (!trace_out.empty()) par::Profiler::set_trace_enabled(true);
    std::unique_ptr<obs::MetricsExporter> exporter;
    if (!metrics_out.empty() || !events_out.empty()) {
        obs::MetricsExporter::Config mcfg;
        mcfg.path = metrics_out;
        mcfg.interval_ms = metrics_interval;
        mcfg.format = obs::format_for_path(metrics_out);
        mcfg.events_path = events_out;
        exporter = std::make_unique<obs::MetricsExporter>(obs::registry(),
                                                          std::move(mcfg));
    }
    // The anomaly watchdog rides the same registry the exporter snapshots:
    // its rule breaches land in the global EventLog, which the exporter
    // drains to --events-out as JSONL. A short interval so the CI-sized
    // runs get several evaluations.
    const bool http_enabled = http_port >= 0;
    std::unique_ptr<obs::Watchdog> watchdog;
    if (!events_out.empty() || http_enabled) {
        obs::Watchdog::Config wcfg;
        wcfg.interval = std::chrono::milliseconds(100);
        wcfg.background = true;
        auto rules = obs::default_rules(/*queue_capacity=*/kQueueCapacity);
        // With the introspection plane up, a deeply backed-up ingest queue
        // is a readiness event, not just a warning: the Critical firing is
        // what flips /readyz to 503 (obs/introspection.hpp). Half capacity
        // sits well clear of both sides: paced producers keep the steady-
        // state peak under ~10% of capacity, while a stalled drain backs
        // the queue up past 70% within a couple of watchdog ticks.
        if (http_enabled)
            rules.push_back({"ingest-stall-critical", "stream_queue_depth",
                             obs::RuleKind::GaugeAbove,
                             0.5 * static_cast<double>(kQueueCapacity),
                             obs::HistField::P99, 2, 2,
                             obs::Severity::Critical});
        watchdog = std::make_unique<obs::Watchdog>(
            obs::registry(), obs::EventLog::global(), std::move(rules), wcfg);
    }

    // Declared before the introspection plane, whose handlers read them.
    std::optional<ServingTier> serving;
    if (serve_queries) serving.emplace(target_qps > 0);

    // The live introspection plane (--http-port=N; 0 binds an ephemeral
    // port, printed below for discovery). Rank 0 serves the federated
    // cluster view once the ranks start federating (global-registry
    // fallback before that).
    std::unique_ptr<Intro> intro;
    if (http_enabled) {
        par::Profiler::set_trace_enabled(true);  // /trace serves the rings
        intro = std::make_unique<Intro>();
        intro->stall_ms = induce_stall_ms;
        obs::IntrospectionServer::Config icfg;
        icfg.http.port = static_cast<std::uint16_t>(http_port);
        icfg.metrics_provider = [&intro] {
            if (const auto fed = intro->fed.load()) return *fed;
            return obs::registry().snapshot();  // before the 1st federation
        };
        icfg.status_fields = [&intro, &serving] {
            char buf[320];
            const int len = std::snprintf(
                buf, sizeof buf,
                "\"engine_version\": %llu, \"federations\": %llu",
                static_cast<unsigned long long>(intro->engine_version.load()),
                static_cast<unsigned long long>(intro->federations.load()));
            if (serving)
                std::snprintf(
                    buf + len, sizeof buf - static_cast<std::size_t>(len),
                    ", \"published_version\": %llu, "
                    "\"snapshots_published\": %llu, \"live_snapshots\": %lld, "
                    "\"retained\": %zu, \"queries_shed\": %llu, "
                    "\"queries_pending\": %zu",
                    static_cast<unsigned long long>(
                        serving->store.current_version().value_or(0)),
                    static_cast<unsigned long long>(serving->store.published()),
                    static_cast<long long>(serving->store.live_snapshots()),
                    serving->store.retained(),
                    static_cast<unsigned long long>(
                        serving->executor.shed_total()),
                    serving->executor.pending());
            return std::string(buf);
        };
        if (serving)
            icfg.flight_json = [&serving] {
                return serving->recorder.to_json();
            };
        icfg.ready = !restore;  // recovery replay holds the gate down
        intro->server.start(std::move(icfg));
        std::printf(
            "introspection: rank 0 serving http://127.0.0.1:%u (federated)\n",
            intro->server.port());
        std::fflush(stdout);
    }

    // The hub mode, as data (see the header comment).
    HubMode mode;
    mode.wl.n = kHubN;
    mode.wl.seed = restore ? 7'777 : 0;
    mode.dir = checkpoint_dir;
    mode.restore = restore;
    mode.on_read = poll_hub;
    if (serving) {
        mode.title = "query serving";
        mode.wl.scenario = stream::Scenario::ServingReadHeavy;
        mode.wl.writes = writes > 0 ? writes : 2'000;
        mode.wl.seed += 15'000;
        mode.serving = &*serving;
        const auto query_gap = std::chrono::microseconds(
            static_cast<long>(1e6 / query_rate));
        // Every read becomes a query of the mixed rotation, its analytics
        // reads alternating between the two maintained metrics.
        mode.on_read = [&serving, query_gap](const Hub&, std::uint64_t k,
                                             index_t row, index_t col) {
            serve::Query q = serve::mixed_query(k, row, col);
            if (k % 8 == 7) q.metric = "distance-sum";
            (void)serving->executor.submit(std::move(q));  // fire and forget
            if (query_gap.count() > 0) std::this_thread::sleep_for(query_gap);
        };
    } else if (!checkpoint_dir.empty()) {
        mode.title = "durable streaming";
        mode.wl.scenario = stream::Scenario::CheckpointUnderLoad;
        mode.wl.writes = writes > 0 ? writes : 20'000;
        mode.wl.window = 600;
        mode.wl.seed += 11'000;
    } else {
        mode.title = "live analytics";
        mode.wl.scenario = stream::Scenario::AnalyticsRead;
        mode.wl.writes = 3'000;
        mode.wl.window = 400;
        mode.wl.read_fraction = 0.3;
        mode.wl.seed += 7'000;
    }
    const bool scenarios = !serving && checkpoint_dir.empty();

    // The external paced client: fixed arrival schedule at --target-qps,
    // on-arrival latency against --slo-ms, coordinated-omission-safe
    // (serve/load_gen.hpp). It starts once the first snapshot is published
    // so it measures serving, not attach.
    std::atomic<bool> engine_done{false};
    serve::LoadGenReport slo_rep;
    std::thread paced_client;
    if (serving && target_qps > 0) {
        paced_client = std::thread([&] {
            while (serving->store.published() == 0 &&
                   !engine_done.load(std::memory_order_acquire))
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            serve::LoadGenConfig lg;
            lg.target_qps = target_qps;
            lg.total = static_cast<std::size_t>(
                std::max(200.0, target_qps));  // ~1 s of traffic
            lg.slo_ms = slo_ms;
            slo_rep = serve::run_paced(
                serving->executor, lg,
                [](std::uint64_t k) { return serve::paced_query(k, kHubN); });
        });
    }

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        if (scenarios) {
            // Initial load: each rank contributes an equal slice of an R-MAT
            // graph, indices permuted identically on all ranks for balance.
            const index_t n = index_t{1} << kScale;
            auto mine = graph::rmat_edges(
                kScale, kInitialEdges / kRanks,
                100 + static_cast<std::uint64_t>(comm.rank()));
            sparse::IndexPermutation perm(n, 9999);
            perm.apply(mine);
            auto A = core::build_dynamic_matrix<SR>(grid, n, n, mine);
            const std::size_t built_nnz = A.global_nnz();  // collective
            if (comm.rank() == 0)
                std::printf(
                    "initial load: %zu non-zeros; streaming %d producers/rank, "
                    "%zu writes each\n\n",
                    built_nnz, kProducers, kWritesPerProducer);

            par::Profiler::reset();
            par::Profiler::set_enabled(true);
            for (auto scenario :
                 {stream::Scenario::SustainedUniform, stream::Scenario::Bursty,
                  stream::Scenario::HotVertexSkew,
                  stream::Scenario::SlidingWindowDelete,
                  stream::Scenario::MixedReadWrite})
                run_scenario(comm, A, scenario);
        }
        run_hub(comm, grid, mode, intro.get());
        par::Profiler::set_enabled(false);
        if (comm.rank() == 0) obs::publish_comm_stats(comm.stats().snapshot());
    });
    engine_done.store(true, std::memory_order_release);
    if (paced_client.joinable())
        paced_client.join();  // tail queries: the final snapshot
    if (serving) serving->executor.stop();

    if (scenarios) {
        std::printf("\nphase breakdown across all scenarios:\n");
        for (auto ph : {par::Phase::StreamDrain, par::Phase::StreamApply,
                        par::Phase::Analytics, par::Phase::RedistSort,
                        par::Phase::RedistComm, par::Phase::MemManagement,
                        par::Phase::LocalConstruct, par::Phase::LocalAddition})
            std::printf("  %-18s %8.2f ms\n",
                        std::string(par::phase_name(ph)).c_str(),
                        par::Profiler::total_seconds(ph) * 1e3);
        std::printf("\n");
    }
    if (serving && target_qps > 0) {
        std::printf(
            "paced client: %llu arrivals at %.0f qps (achieved %.0f), "
            "on-arrival p50/p99/p999 %.2f/%.2f/%.2f ms, "
            "%llu SLO violations (%.1f%%), max submit lateness %.2f ms\n",
            static_cast<unsigned long long>(slo_rep.issued), target_qps,
            slo_rep.achieved_qps, slo_rep.p50_ms, slo_rep.p99_ms,
            slo_rep.p999_ms,
            static_cast<unsigned long long>(slo_rep.slo_violations),
            100.0 * slo_rep.violation_rate(), slo_rep.max_submit_lateness_ms);
        const auto& rec = serving->recorder;
        std::printf("slow-query flight recorder (%llu offered, worst "
                    "%zu):\n%s\n",
                    static_cast<unsigned long long>(rec.offered()),
                    rec.worst().size(), rec.to_json().c_str());
    }
    // The final readout of the scenario and serving runs IS the registry:
    // per-class serve_query_ns quantiles, cache counters, stream/persist
    // instruments, one rendering instead of a hand-rolled table.
    if (scenarios || serving)
        std::fputs(obs::registry().snapshot().to_text().c_str(), stdout);
    std::printf(serving            ? "serving run OK\n"
                : scenarios        ? "streaming run OK\n"
                                   : "durable run OK\n");

    // Shutdown ordering (mirrored by tests/obs/test_introspection.cpp): the
    // HTTP plane drains its in-flight requests FIRST, while every structure
    // its handlers read (stores, registries, callback gauges) is still
    // alive; only then do the file sinks finalize.
    if (intro) intro->server.stop();
    if (watchdog) {
        watchdog->stop();
        watchdog->evaluate_now();  // one final deterministic pass
    }
    if (exporter) exporter->stop();
    if (!trace_out.empty()) {
        if (obs::write_chrome_trace(trace_out))
            std::printf("trace written to %s\n", trace_out.c_str());
        else
            std::fprintf(stderr, "cannot write trace to %s\n",
                         trace_out.c_str());
    }
    return 0;
}
