// Epoch-boundary latency of the live analytics layer: maintainer set x
// epoch batch size.
//
// Not a paper figure — this measures what src/analytics/ adds on top of the
// streaming engine: with maintainers subscribed, every applied epoch pays
// the hook (collective maintainer updates) before readers are released, so
// the interesting quantities are the hook's mean/worst latency per epoch,
// its share of the epoch, and how both move with the epoch batch size and
// with which maintainers are attached. Traffic is the analytics-read
// scenario (weighted ADDs, windowed MASKs, derived-value polls). With
// DSG_BENCH_JSON=<path> every cell is recorded as one JSON object;
// DSG_BENCH_SCALE shrinks the per-producer write budget (see
// docs/BENCHMARKS.md).
#include <numeric>
#include <string>
#include <vector>

#include "analytics/graph_maintainers.hpp"
#include "analytics/maintainer.hpp"
#include "bench_common.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

using namespace dsg;
using namespace dsg::bench;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;

namespace {

constexpr int kRanks = 4;
constexpr int kProducers = 2;  // per rank
constexpr index_t kN = 1024;
constexpr index_t kClusters = 16;

std::size_t writes_per_producer() {
    return std::max<std::size_t>(
        200, static_cast<std::size_t>(3'000 * bench_scale()));
}

struct MaintainerSet {
    const char* name;
    bool triangles, distances, contraction;
};

constexpr MaintainerSet kSets[] = {
    {"none", false, false, false},
    {"triangles", true, false, false},
    {"distances", false, true, false},
    {"contraction", false, false, true},
    {"all", true, true, true},
};

struct Cell {
    double elapsed_ms = 0;
    double ops_per_s = 0;
    std::uint64_t epochs = 0;
    std::uint64_t applied_epochs = 0;
    double hook_mean_ms = 0;   ///< hook time per applied epoch
    double hook_max_ms = 0;    ///< worst single hook
    double hook_share = 0;     ///< hook / (drain + apply + hook)
    std::uint64_t polls = 0;   ///< derived-value reads served
    double triangles = -1, distance_sum = -1, contraction_weight = -1;
};

Cell run_cell(const MaintainerSet& set, std::size_t epoch_batch) {
    Cell cell;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, kN, kN);

        const std::vector<index_t> sources = {0, 1, 2, 3};
        std::vector<index_t> assignment(static_cast<std::size_t>(kN));
        for (std::size_t v = 0; v < assignment.size(); ++v)
            assignment[v] = static_cast<index_t>(v) % kClusters;

        analytics::AnalyticsHub<double> hub;
        if (set.triangles)
            hub.emplace<analytics::LiveTriangleMaintainer>(grid, kN);
        if (set.distances)
            hub.emplace<analytics::LiveDistanceMaintainer>(grid, kN, sources);
        if (set.contraction)
            hub.emplace<analytics::LiveContractionMaintainer>(
                grid, kN, kClusters, assignment);

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::AnalyticsRead;
        wl.n = kN;
        wl.writes = writes_per_producer();
        wl.window = 256;
        wl.read_fraction = 0.2;
        wl.seed = 61 + static_cast<std::uint64_t>(comm.rank());

        stream::EngineConfig cfg;
        cfg.epoch_batch = epoch_batch;
        cfg.epoch_deadline = std::chrono::milliseconds(10);
        Engine engine(A, cfg);
        if (hub.size() > 0) hub.attach(engine);

        std::vector<std::uint64_t> polls(kProducers);  // per producer
        const double elapsed_ms = timed_ms(comm, [&] {
            stream::run_producers(
                engine, wl, kProducers, [&](int p, index_t, index_t) {
                    for (std::size_t k = 0; k < hub.size(); ++k)
                        (void)hub[k].snapshot();
                    ++polls[static_cast<std::size_t>(p)];
                });
        });

        const auto total_ops = comm.allreduce<std::uint64_t>(
            engine.stats().local_ops,
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
        const auto total_polls = comm.allreduce<std::uint64_t>(
            std::accumulate(polls.begin(), polls.end(), std::uint64_t{0}),
            [](std::uint64_t a, std::uint64_t b) { return a + b; });

        if (comm.rank() == 0) {
            const auto& s = engine.stats();
            cell.elapsed_ms = elapsed_ms;
            cell.ops_per_s =
                static_cast<double>(total_ops) / (elapsed_ms * 1e-3);
            cell.epochs = s.epochs;
            cell.applied_epochs = s.applied_epochs;
            cell.hook_mean_ms =
                s.applied_epochs > 0
                    ? s.hook_ms / static_cast<double>(s.applied_epochs)
                    : 0;
            cell.hook_max_ms = s.max_hook_ms;
            const double epoch_total = s.drain_ms + s.apply_ms + s.hook_ms;
            cell.hook_share = epoch_total > 0 ? s.hook_ms / epoch_total : 0;
            cell.polls = total_polls;
            for (std::size_t k = 0; k < hub.size(); ++k) {
                const std::string n = hub[k].name();
                if (n == "triangles") cell.triangles = hub[k].snapshot();
                if (n == "distance-sum") cell.distance_sum = hub[k].snapshot();
                if (n == "contraction-weight")
                    cell.contraction_weight = hub[k].snapshot();
            }
        }
    });
    return cell;
}

}  // namespace

int main() {
    print_header("Live analytics epoch-boundary latency (src/analytics/)",
                 "no figure — maintainer hook cost per epoch");
    std::printf("%d ranks, %d producers/rank, %zu writes/producer, n = %lld\n\n",
                kRanks, kProducers, writes_per_producer(),
                static_cast<long long>(kN));
    std::printf("%-12s %6s %9s %7s %10s %10s %7s\n", "maintainers", "batch",
                "ops/s", "epochs", "hook ms", "worst ms", "share");

    for (const auto& set : kSets) {
        for (std::size_t epoch_batch :
             {std::size_t{512}, std::size_t{2048}, std::size_t{8192}}) {
            const Cell cell = run_cell(set, epoch_batch);
            std::printf("%-12s %6zu %9.0f %7llu %10.2f %10.2f %6.1f%%\n",
                        set.name, epoch_batch, cell.ops_per_s,
                        static_cast<unsigned long long>(cell.epochs),
                        cell.hook_mean_ms, cell.hook_max_ms,
                        100.0 * cell.hook_share);

            JsonRecord rec("bench_analytics_latency");
            rec.field("maintainers", set.name)
                .field("ranks", kRanks)
                .field("producers_per_rank", kProducers)
                .field("writes_per_producer", writes_per_producer())
                .field("epoch_batch", epoch_batch)
                .field("elapsed_ms", cell.elapsed_ms)
                .field("ops_per_s", cell.ops_per_s)
                .field("epochs", cell.epochs)
                .field("applied_epochs", cell.applied_epochs)
                .field("hook_mean_ms", cell.hook_mean_ms)
                .field("hook_max_ms", cell.hook_max_ms)
                .field("hook_share", cell.hook_share)
                .field("derived_value_polls", cell.polls);
            if (cell.triangles >= 0) rec.field("triangles", cell.triangles);
            if (cell.distance_sum >= 0)
                rec.field("distance_sum", cell.distance_sum);
            if (cell.contraction_weight >= 0)
                rec.field("contraction_weight", cell.contraction_weight);
            json_record(rec);
        }
    }
    if (json_enabled()) json_flush();
    return 0;
}
