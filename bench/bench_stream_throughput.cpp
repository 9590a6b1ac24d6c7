// Streaming ingestion throughput: scenarios x epoch batch sizes.
//
// Not a paper figure — this measures the streaming engine layered on top of
// the paper's update machinery (src/stream/): per-rank producer threads push
// workload ops into bounded queues while every rank pumps epoch-batched
// collective application. Reported per (scenario, epoch_batch) cell:
// sustained throughput (ops/s across all ranks), epochs pumped, mean epoch
// latency, worst epoch, and worst backlog. With DSG_BENCH_JSON=<path> every
// cell is also recorded as one JSON object.
#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/introspection.hpp"
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

std::size_t writes_per_producer() {
    return static_cast<std::size_t>(20'000 * bench_scale());
}

struct Cell {
    double elapsed_ms = 0;
    double ops_per_s = 0;
    std::uint64_t epochs = 0;
    double mean_epoch_ms = 0;
    double worst_epoch_ms = 0;
    std::size_t worst_backlog = 0;
    std::size_t final_nnz = 0;
};

Cell run_cell(stream::Scenario scenario, std::size_t epoch_batch) {
    Cell cell;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        const index_t n = index_t{1} << kScale;

        // Initial load: half of an R-MAT instance, as in the figure benches.
        auto mine = graph::rmat_edges(
            kScale, 20'000 / kRanks, 7 + static_cast<std::uint64_t>(comm.rank()));
        sparse::IndexPermutation perm(n, 4242);
        perm.apply(mine);
        auto A = core::build_dynamic_matrix<SR>(grid, n, n, mine);

        stream::WorkloadConfig wl;
        wl.scenario = scenario;
        wl.n = n;
        wl.writes = writes_per_producer();
        wl.seed = 31 + static_cast<std::uint64_t>(comm.rank());

        stream::EngineConfig cfg;
        cfg.epoch_batch = epoch_batch;
        cfg.epoch_deadline = std::chrono::milliseconds(10);
        Engine engine(A, cfg);

        const double elapsed_ms = timed_ms(comm, [&] {
            stream::run_producers(
                engine, wl, kProducers, [&](int, index_t row, index_t col) {
                    engine.with_snapshot(
                        [&](auto snap) { return snap.contains(row, col); });
                });
        });

        const std::size_t nnz = A.global_nnz();  // collective
        const auto total_ops = comm.allreduce<std::uint64_t>(
            engine.stats().local_ops,
            [](std::uint64_t a, std::uint64_t b) { return a + b; });

        if (comm.rank() == 0) {
            const auto& s = engine.stats();
            cell.elapsed_ms = elapsed_ms;
            cell.ops_per_s =
                static_cast<double>(total_ops) / (elapsed_ms * 1e-3);
            cell.epochs = s.epochs;
            cell.mean_epoch_ms =
                s.epochs > 0 ? (s.drain_ms + s.apply_ms) /
                                   static_cast<double>(s.epochs)
                             : 0;
            cell.worst_epoch_ms = s.max_epoch_ms;
            cell.worst_backlog = s.max_backlog;
            cell.final_nnz = nnz;
        }
    });
    return cell;
}

/// Budget of both overhead gates: the instrumented side may lose at most 2%
/// of the baseline side's throughput.
constexpr double kGateBudget = 0.02;

/// An overhead gate: three interleaved runs of a baseline and a treatment
/// (ops/s each). The baseline's own spread is the gate's noise floor; a gate
/// whose noise floor exceeds its budget cannot resolve the budget, so its
/// verdict is "inconclusive" rather than "within".
struct Gate {
    std::vector<double> base, treat;
    double ratio = 1.0;        ///< median(treat) / median(base)
    double noise_floor = 0.0;  ///< max(base) / min(base) - 1
    const char* verdict = "inconclusive";
    bool within = false;

    template <typename Base, typename Treat>
    static Gate run(Base&& run_base, Treat&& run_treat) {
        Gate g;
        for (int rep = 0; rep < 3; ++rep) {
            g.base.push_back(run_base());
            g.treat.push_back(run_treat());
        }
        const auto [lo, hi] = std::minmax_element(g.base.begin(), g.base.end());
        g.noise_floor = *lo > 0 ? *hi / *lo - 1.0 : 0.0;
        const double base_median = median(g.base);
        if (base_median > 0) g.ratio = median(g.treat) / base_median;
        if (g.noise_floor <= kGateBudget) {
            g.within = g.ratio >= 1.0 - kGateBudget;
            g.verdict = g.within ? "within" : "outside";
        }
        return g;
    }

    static double median(std::vector<double> v) {
        std::sort(v.begin(), v.end());
        return v[v.size() / 2];
    }

    /// The runs as a JSON array, for JsonRecord::object.
    static std::string json_runs(const std::vector<double>& v) {
        std::string out = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%s%.6g", i > 0 ? ", " : "", v[i]);
            out += buf;
        }
        return out + "]";
    }

    void print(const char* base_name, const char* treat_name) const {
        std::printf("%-22s %10.0f  (runs %.0f %.0f %.0f)\n", base_name,
                    median(base), base[0], base[1], base[2]);
        std::printf("%-22s %10.0f  (runs %.0f %.0f %.0f)\n", treat_name,
                    median(treat), treat[0], treat[1], treat[2]);
        std::printf(
            "ratio %.3fx, noise floor %.1f%% against the %.0f%% budget: %s\n",
            ratio, noise_floor * 100, kGateBudget * 100, verdict);
    }
};

}  // namespace

int main() {
    print_header("Streaming ingestion throughput (src/stream/)",
                 "no figure — engine layered on Sections IV-A/IV-B");
    std::printf(
        "%d ranks, %d producers/rank, %zu writes/producer, scale %d\n\n",
        kRanks, kProducers, writes_per_producer(), kScale);
    std::printf("%-22s %8s %10s %7s %9s %9s %9s\n", "scenario", "batch",
                "ops/s", "epochs", "epoch ms", "worst ms", "backlog");

    for (auto scenario : stream::all_scenarios()) {
        for (std::size_t epoch_batch : {std::size_t{512}, std::size_t{4096}}) {
            const Cell cell = run_cell(scenario, epoch_batch);
            std::printf("%-22s %8zu %10.0f %7llu %9.2f %9.2f %9zu\n",
                        stream::scenario_name(scenario), epoch_batch,
                        cell.ops_per_s,
                        static_cast<unsigned long long>(cell.epochs),
                        cell.mean_epoch_ms, cell.worst_epoch_ms,
                        cell.worst_backlog);

            JsonRecord rec("bench_stream_throughput");
            rec.field("scenario", stream::scenario_name(scenario))
                .field("ranks", kRanks)
                .field("producers_per_rank", kProducers)
                .field("writes_per_producer", writes_per_producer())
                .field("epoch_batch", epoch_batch)
                .field("elapsed_ms", cell.elapsed_ms)
                .field("ops_per_s", cell.ops_per_s)
                .field("epochs", cell.epochs)
                .field("mean_epoch_ms", cell.mean_epoch_ms)
                .field("worst_epoch_ms", cell.worst_epoch_ms)
                .field("worst_backlog", cell.worst_backlog)
                .field("final_nnz", cell.final_nnz);
            json_record(rec);
        }
    }

    // -----------------------------------------------------------------------
    // Metrics overhead gate: one representative cell, instruments recording
    // vs runtime-disabled (every record path reduced to a single relaxed
    // load — the same contrast the -DDSG_OBS_NOOP compile-out build gives,
    // without needing a second binary).
    const auto scenario = stream::Scenario::SustainedUniform;
    constexpr std::size_t kGateBatch = 4096;
    const auto gate_cell = [&] {
        return run_cell(scenario, kGateBatch).ops_per_s;
    };
    {
        const auto with_instruments = [&](bool on) {
            obs::set_enabled(on);
            const double ops = gate_cell();
            obs::set_enabled(true);
            return ops;
        };
        (void)gate_cell();  // warm-up
        const Gate g = Gate::run([&] { return with_instruments(false); },
                                 [&] { return with_instruments(true); });
        std::printf(
            "\nmetrics overhead gate (%s, batch %zu, 3 interleaved runs)%s:\n",
            stream::scenario_name(scenario), kGateBatch,
            obs::compiled_noop() ? " [DSG_OBS_NOOP build]" : "");
        g.print("disabled", "recording");
        JsonRecord rec("bench_stream_throughput_obs_gate");
        rec.field("scenario", stream::scenario_name(scenario))
            .field("epoch_batch", kGateBatch)
            .field("ops_per_s_disabled", Gate::median(g.base))
            .field("ops_per_s_recording", Gate::median(g.treat))
            .object("runs_disabled", Gate::json_runs(g.base))
            .object("runs_recording", Gate::json_runs(g.treat))
            .field("ratio", g.ratio)
            .field("noise_floor", g.noise_floor)
            .field("verdict", g.verdict)
            .field("within_gate", g.within ? 1 : 0)
            .field("compiled_noop", obs::compiled_noop() ? 1 : 0);
        json_record_with_metrics(std::move(rec));
    }

    // -----------------------------------------------------------------------
    // Scrape overhead gate: the same representative cell with a live
    // IntrospectionServer on an ephemeral port and one scraper polling
    // GET /metrics at 10 Hz throughout — the introspection plane's
    // steady-state cost — against the same cell with no server.
    {
        std::uint64_t scrapes = 0;
        const auto scraped_cell = [&] {
            obs::IntrospectionServer server;
            server.start({});
            std::atomic<bool> stop_scraper{false};
            std::atomic<std::uint64_t> served{0};
            std::thread scraper([&] {
                while (!stop_scraper.load(std::memory_order_relaxed)) {
                    if (!obs::http_fetch(server.port(), "/metrics").empty())
                        served.fetch_add(1, std::memory_order_relaxed);
                    std::this_thread::sleep_for(std::chrono::milliseconds(100));
                }
            });
            const double ops = gate_cell();
            stop_scraper.store(true);
            scraper.join();
            server.stop();
            scrapes += served.load();
            return ops;
        };
        const Gate g = Gate::run(gate_cell, scraped_cell);
        std::printf(
            "\nscrape overhead gate (%s, batch %zu, 3 interleaved runs, "
            "10 Hz GET /metrics, %llu scrapes served):\n",
            stream::scenario_name(scenario), kGateBatch,
            static_cast<unsigned long long>(scrapes));
        g.print("idle", "polling");
        JsonRecord rec("bench_stream_throughput_scrape_gate");
        rec.field("scenario", stream::scenario_name(scenario))
            .field("epoch_batch", kGateBatch)
            .field("scrape_hz", 10)
            .field("ops_per_s_idle", Gate::median(g.base))
            .field("ops_per_s_scraped", Gate::median(g.treat))
            .object("runs_idle", Gate::json_runs(g.base))
            .object("runs_scraped", Gate::json_runs(g.treat))
            .field("scrape_slowdown", g.ratio)
            .field("noise_floor", g.noise_floor)
            .field("verdict", g.verdict)
            .field("scrapes_served", scrapes)
            .field("within_gate", g.within ? 1 : 0);
        json_record(rec);
    }

    if (json_enabled()) json_flush();
    return 0;
}
