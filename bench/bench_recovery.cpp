// Durability-layer costs (src/persist/): what restartability charges the
// streaming engine, and how fast a dead rank comes back.
//
//   1. log append overhead — sustained-uniform ingest with the write-ahead
//      op log on vs off, swept over the fsync cadence (the acceptance bar:
//      < 10% slowdown at the default cadence);
//   2. checkpoint write throughput — epoch-consistent tile snapshots +
//      manifest commit, amortized MB/s and per-checkpoint latency;
//   3. replay rate — recovery ops/s from a pure log (cold start) and from
//      checkpoint + log tail.
//
// Emits DSG_BENCH_JSON records like the rest of the harness; scales with
// DSG_BENCH_SCALE. See docs/BENCHMARKS.md.
#include <unistd.h>

#include <filesystem>
#include <optional>

#include "bench_common.hpp"
#include "persist/durability.hpp"
#include "persist/recovery.hpp"
#include "stream/epoch_engine.hpp"
#include "stream/workloads.hpp"

using namespace dsg;
using namespace dsg::bench;
using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;
using Manager = persist::DurabilityManager<SR>;

namespace {

constexpr int kRanks = 4;
constexpr int kProducers = 2;  // per rank
constexpr index_t kN = 4096;

std::size_t writes_per_producer() {
    return std::max<std::size_t>(
        2'000, static_cast<std::size_t>(50'000 * bench_scale()));
}

/// Repetitions per configuration; the MINIMUM wall time is reported. The
/// rank threads oversubscribe this one-core host ~6x, so single runs carry
/// scheduler noise far larger than the effect being measured.
constexpr int kReps = 5;

struct IngestResult {
    double wall_ms = 0;
    std::uint64_t total_ops = 0;
    persist::PersistStats stats;  // zeros when persistence is off
};

/// One sustained-uniform ingest run, optionally under a DurabilityManager.
IngestResult run_ingest_once(const std::filesystem::path& dir,
                             bool persist_on, std::size_t fsync_every,
                             std::uint64_t checkpoint_stride) {
    IngestResult out;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, kN, kN);

        stream::WorkloadConfig wl;
        wl.scenario = stream::Scenario::SustainedUniform;
        wl.n = kN;
        wl.writes = writes_per_producer();
        wl.seed = 4'200 + static_cast<std::uint64_t>(comm.rank());

        stream::EngineConfig cfg;
        cfg.queue_capacity = 1 << 13;
        cfg.epoch_batch = 2'048;
        cfg.epoch_deadline = std::chrono::milliseconds(4);
        Engine engine(A, cfg);

        std::optional<Manager> mgr;
        if (persist_on) {
            persist::PersistConfig pc;
            pc.dir = dir;
            pc.fsync_every = fsync_every;
            pc.checkpoint_stride = checkpoint_stride;
            mgr.emplace(engine, A, pc, Manager::Start::Fresh);
        }

        const double ms = timed_ms(comm, [&] {
            stream::run_producers(engine, wl, kProducers,
                                  [](int, index_t, index_t) {});
        });
        if (comm.rank() == 0) {
            out.wall_ms = ms;
            out.total_ops = static_cast<std::uint64_t>(kRanks) * kProducers *
                            wl.writes;
            if (mgr) out.stats = mgr->stats();
        }
    });
    return out;
}

/// Best of kReps runs (each run overwrites the durable state in `dir`).
IngestResult run_ingest(const std::filesystem::path& dir, bool persist_on,
                        std::size_t fsync_every,
                        std::uint64_t checkpoint_stride) {
    IngestResult best;
    for (int rep = 0; rep < kReps; ++rep) {
        auto r = run_ingest_once(dir, persist_on, fsync_every,
                                 checkpoint_stride);
        if (rep == 0 || r.wall_ms < best.wall_ms) best = r;
    }
    return best;
}

struct ReplayResult {
    double wall_ms = 0;
    std::uint64_t replayed_ops = 0;  // summed over ranks
    std::uint64_t replayed_epochs = 0;
    std::uint64_t version = 0;
};

ReplayResult run_recovery(const std::filesystem::path& dir) {
    ReplayResult out;
    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm);
        core::DistDynamicMatrix<double> A(grid, kN, kN);
        persist::RecoveryOptions opts;
        opts.dir = dir;
        persist::RecoveryResult res;
        const double ms = timed_ms(comm, [&] {
            res = persist::recover<SR>(A, opts);
        });
        const auto total_ops = comm.allreduce<std::uint64_t>(
            res.replayed_ops,
            [](std::uint64_t a, std::uint64_t b) { return a + b; });
        if (comm.rank() == 0) {
            out.wall_ms = ms;
            out.replayed_ops = total_ops;
            out.replayed_epochs = res.replayed_epochs;
            out.version = res.recovered_version;
        }
    });
    return out;
}

double ops_per_s(std::uint64_t ops, double ms) {
    return ms > 0 ? static_cast<double>(ops) / (ms * 1e-3) : 0.0;
}

}  // namespace

int main() {
    print_header("Recovery: WAL overhead, checkpoint throughput, replay rate",
                 "the durability layer, beyond the paper");
    const auto scratch =
        std::filesystem::temp_directory_path() /
        ("dsg-bench-recovery-" + std::to_string(::getpid()));
    std::filesystem::create_directories(scratch);

    // -- 1. log append overhead vs the no-persist baseline -------------------
    const auto base = run_ingest(scratch / "off", false, 0, 0);
    std::printf("%zu sustained-uniform ops, %d ranks x %d producers\n\n",
                static_cast<std::size_t>(base.total_ops), kRanks, kProducers);
    std::printf("%-22s | %10s | %9s | %8s | %s\n", "mode", "ops/s", "wall ms",
                "overhead", "fsyncs");
    std::printf("%-22s | %10.0f | %9.1f | %8s | %s\n", "no persistence",
                ops_per_s(base.total_ops, base.wall_ms), base.wall_ms, "-",
                "-");
    {
        JsonRecord rec("bench_recovery");
        rec.field("mode", "baseline")
            .field("ops_per_s", ops_per_s(base.total_ops, base.wall_ms))
            .field("wall_ms", base.wall_ms)
            .field("total_ops", base.total_ops);
        json_record(rec);
    }
    // Default cadence (16) is the acceptance-gated row; 1 shows the
    // worst-case fsync-per-epoch tax; 0 rides the page cache entirely.
    for (const std::size_t fsync_every : {std::size_t{0}, std::size_t{16},
                                          std::size_t{1}}) {
        const auto r = run_ingest(scratch / "wal", true, fsync_every, 0);
        const double overhead =
            100.0 * (r.wall_ms - base.wall_ms) / base.wall_ms;
        char mode[40];
        std::snprintf(mode, sizeof mode, "wal fsync_every=%zu%s", fsync_every,
                      fsync_every == 16 ? " (def)" : "");
        std::printf("%-22s | %10.0f | %9.1f | %+7.1f%% | %llu\n", mode,
                    ops_per_s(r.total_ops, r.wall_ms), r.wall_ms, overhead,
                    static_cast<unsigned long long>(r.stats.fsyncs));
        JsonRecord rec("bench_recovery");
        rec.field("mode", "wal")
            .field("fsync_every", fsync_every)
            .field("ops_per_s", ops_per_s(r.total_ops, r.wall_ms))
            .field("wall_ms", r.wall_ms)
            .field("overhead_pct", overhead)
            .field("bytes_logged", r.stats.bytes_logged)
            .field("fsyncs", r.stats.fsyncs);
        json_record(rec);
        if (fsync_every == 16)
            std::printf("%-22s   acceptance: %s (< 10%% at default cadence)\n",
                        "", overhead < 10.0 ? "PASS" : "FAIL");
    }

    // -- 2. checkpoint write throughput --------------------------------------
    const auto ck = run_ingest(scratch / "ckpt", true, 16, 8);
    const double ck_mb =
        static_cast<double>(ck.stats.checkpoint_bytes) / (1024.0 * 1024.0);
    const double ck_mbps = ck.stats.checkpoint_ms > 0
                               ? ck_mb / (ck.stats.checkpoint_ms * 1e-3)
                               : 0.0;
    const double ck_mean_ms =
        ck.stats.checkpoints > 0
            ? ck.stats.checkpoint_ms /
                  static_cast<double>(ck.stats.checkpoints)
            : 0.0;
    std::printf(
        "\ncheckpoints (stride 8): %llu taken, %.2f MiB written, "
        "%.1f MiB/s, mean %.2f ms each (incl. manifest commit + compaction)\n",
        static_cast<unsigned long long>(ck.stats.checkpoints), ck_mb, ck_mbps,
        ck_mean_ms);
    {
        JsonRecord rec("bench_recovery");
        rec.field("mode", "checkpoint")
            .field("checkpoints", ck.stats.checkpoints)
            .field("bytes", ck.stats.checkpoint_bytes)
            .field("mib_per_s", ck_mbps)
            .field("mean_ms", ck_mean_ms);
        json_record(rec);
    }

    // -- 3. replay rate -------------------------------------------------------
    // (a) pure log: the 'wal' dir holds every epoch, no checkpoint.
    const auto cold = run_recovery(scratch / "wal");
    std::printf(
        "\nreplay, pure log (no checkpoint): %llu ops / %llu epochs in "
        "%.1f ms = %.0f ops/s to version %llu\n",
        static_cast<unsigned long long>(cold.replayed_ops),
        static_cast<unsigned long long>(cold.replayed_epochs), cold.wall_ms,
        ops_per_s(cold.replayed_ops, cold.wall_ms),
        static_cast<unsigned long long>(cold.version));
    {
        JsonRecord rec("bench_recovery");
        rec.field("mode", "replay-log")
            .field("replayed_ops", cold.replayed_ops)
            .field("replayed_epochs", cold.replayed_epochs)
            .field("wall_ms", cold.wall_ms)
            .field("ops_per_s", ops_per_s(cold.replayed_ops, cold.wall_ms));
        json_record(rec);
    }
    // (b) checkpoint + tail: most epochs come back via the tile snapshot.
    const auto warm = run_recovery(scratch / "ckpt");
    std::printf(
        "replay, checkpoint + tail:        %llu ops / %llu epochs in "
        "%.1f ms (recovered to version %llu)\n",
        static_cast<unsigned long long>(warm.replayed_ops),
        static_cast<unsigned long long>(warm.replayed_epochs), warm.wall_ms,
        static_cast<unsigned long long>(warm.version));
    {
        JsonRecord rec("bench_recovery");
        rec.field("mode", "replay-checkpoint")
            .field("replayed_ops", warm.replayed_ops)
            .field("replayed_epochs", warm.replayed_epochs)
            .field("wall_ms", warm.wall_ms)
            .field("version", warm.version);
        json_record(rec);
    }

    std::printf(
        "\nboth recoveries land on the same matrix the live runs held; the\n"
        "recovery test suite (tests/persist/) proves that equality\n"
        "bit-for-bit across every workload scenario.\n");
    std::filesystem::remove_all(scratch);
    return 0;
}
