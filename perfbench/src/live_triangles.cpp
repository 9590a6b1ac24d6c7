// Workload live-triangles: the system's headline use. An R-MAT (Graph500)
// graph under a sliding window is streamed through EpochEngine with a
// LiveTriangleMaintainer on the epoch hook. Every step each rank ADDs its
// next kBatch edges and MASKs its kBatch oldest, so the maintainer runs
// Algorithm 1 on both operands for insertions and removals every epoch.
//
// Load shape: one 2x2 grid, 4 rank threads, no thread pool.
// Check: the maintained count equals graph::triangle_count of the engine's
// final matrix read as an undirected 0/1 adjacency, and the window holds
// exactly kWindow edges.
#include "analytics/graph_maintainers.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "graph/algorithms.hpp"
#include "harness.hpp"
#include "sparse/coo.hpp"
#include "stream/epoch_engine.hpp"

namespace perfbench {

using namespace dsg;

namespace {

using SR = sparse::PlusTimes<double>;

constexpr int kRows = 2, kCols = 2, kRanks = kRows * kCols;
constexpr int kScale = 12;                     // 4096 vertices
constexpr std::size_t kWindow = 1 << 14;       // live undirected edges
constexpr std::size_t kBatch = 128;            // ADDs (= MASKs) per rank per step
constexpr std::size_t kSteps = 32;             // steps per round

}  // namespace

void live_triangles(Runner& run) {
    const index_t n = index_t{1} << kScale;
    const std::size_t per_rank_window = kWindow / kRanks;
    std::vector<Triple<double>> stream;  // written by rank 0 during setup

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm, kRows, kCols);
        const int rank = comm.rank();
        while (run.begin_round(comm)) {
            run.begin_setup(comm);
            if (rank == 0)
                stream = rmat_unique(kScale, kWindow + kSteps * kBatch * kRanks,
                                     run.options().seed, /*undirected=*/true);
            comm.barrier();
            // This rank's sub-stream: every kRanks-th edge. Its first
            // per_rank_window edges are the initial window.
            std::vector<Triple<double>> seq;
            for (std::size_t k = static_cast<std::size_t>(rank); k < stream.size();
                 k += kRanks)
                seq.push_back(stream[k]);
            const std::vector<Triple<double>> init(
                seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(per_rank_window));

            auto A = core::build_dynamic_matrix<SR>(grid, n, n, init);
            analytics::LiveTriangleMaintainer maint(grid, n);
            maint.seed(init);
            stream::EngineConfig cfg;
            cfg.epoch_batch = 2 * kBatch;  // exactly one step's ops per epoch
            cfg.queue_capacity = 4 * kBatch;
            cfg.epoch_deadline = std::chrono::milliseconds(10'000);
            stream::EpochEngine<SR> engine(A, cfg);
            double hook_ms = 0;
            engine.set_epoch_hook([&](const stream::EpochDelta<double>& d) {
                const auto t0 = Clock::now();
                maint.on_epoch(d);
                hook_ms += ms_between(t0, Clock::now());
            });
            run.end_setup(comm);
            // Static SUMMA of the seeded adjacency, outside set-up: the
            // traffic a static recomputation of C = A·A pays, the base of
            // dyn_vs_static_bytes.
            const double static_bytes = bytes_moved(comm, [&] {
                const auto& adj = maint.counter().adjacency();
                auto C = core::summa_multiply<SR>(adj, adj);
            });

            double push_ms = 0;
            std::uint64_t rejected = 0;
            run.begin_timed(comm);
            for (std::size_t s = 0; s < kSteps; ++s) {
                const auto t0 = Clock::now();
                for (std::size_t x = 0; x < kBatch; ++x) {
                    rejected += !engine.queue().push(
                        {stream::OpKind::Add, seq[per_rank_window + s * kBatch + x]});
                    rejected += !engine.queue().push(
                        {stream::OpKind::Mask, seq[s * kBatch + x]});
                }
                push_ms += ms_between(t0, Clock::now());
                engine.pump();
                if (rank == 0) run.round().step_ms.push_back(ms_between(t0, Clock::now()));
            }
            run.end_timed(comm);

            const double per = static_cast<double>(kRanks * kSteps);
            const double hook = world_sum(comm, hook_ms) / per;
            const double push = world_sum(comm, push_ms) / per;
            const double drain = world_sum(comm, engine.stats().drain_ms) / per;
            const double apply = world_sum(comm, engine.stats().apply_ms) / per;
            const double failed = world_sum(comm, static_cast<double>(rejected));
            const double c_nnz = static_cast<double>(maint.counter().square().global_nnz());

            // Check (untimed): the engine's final matrix, read as an
            // undirected 0/1 adjacency, counted from scratch.
            std::vector<Triple<double>> ref;
            A.local().for_each([&](index_t i, index_t j, double) {
                const index_t gi = A.shape().global_row(i), gj = A.shape().global_col(j);
                ref.push_back({gi, gj, 1.0});
                ref.push_back({gj, gi, 1.0});
            });
            const auto R = core::build_dynamic_matrix<SR>(grid, n, n, std::move(ref));
            const double expect = graph::triangle_count(R);
            const double got = maint.snapshot();
            const std::size_t live = A.global_nnz();

            if (rank == 0) {
                Round& rd = run.round();
                rd.ops = kSteps * kBatch * 2 * kRanks;
                rd.steps = kSteps;
                rd.attempted = rd.ops;
                rd.failed = static_cast<std::uint64_t>(failed);
                if (got != expect)
                    rd.error = "maintained triangle count " + std::to_string(got) +
                               " != recount " + std::to_string(expect);
                else if (live != kWindow)
                    rd.error = "window holds " + std::to_string(live) + " edges, expected " +
                               std::to_string(kWindow);
                auto& L = rd.layer;
                L["analytics.hook_ms"] = hook;
                L["stream.push_ms"] = push;
                L["stream.drain_ms"] = drain;
                L["stream.apply_ms"] = apply;
                L["summa.setup_comm_bytes"] = static_bytes;
                L["core.dyn_vs_static_bytes"] =
                    static_cast<double>(rd.comm.total_bytes()) / kSteps / static_bytes;
                L["graph.c_nnz"] = c_nnz;
                L["analytics.triangles"] = got;
                record_phase_layers(run, per);
                auto& C = rd.counts;
                C["summa_setup_bytes"] = static_bytes;
                C["c_nnz"] = c_nnz;
                C["triangles"] = got;
            }
            run.end_round(comm);
        }
    });
}

}  // namespace perfbench
