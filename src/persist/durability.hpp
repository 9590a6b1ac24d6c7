// DurabilityManager: the glue that makes a streaming engine restartable
// (docs/ARCHITECTURE.md, "The durability layer").
//
// One manager per rank rides the engine's two persistence hooks:
//  - WAL hook (pre-apply): appends the epoch's EpochDelta to the rank's op
//    log, fsyncing at the configured cadence — a crash can cost at most
//    the last `fsync_every` epochs, always a clean suffix (never torn,
//    never reordered);
//  - checkpoint hook (post-apply, post-analytics, under the writer lock):
//    every `checkpoint_stride` applied epochs, snapshots the rank's tile
//    (plus the analytics hub's state when subscribed), rotates the log to a
//    fresh segment, commits the manifest on rank 0, and compacts — deleting
//    fully-covered segments and superseded checkpoint files.
//
// Construction and checkpointing are collective (the checkpoint gathers log
// positions and barriers around the manifest commit), exactly like the
// engine hooks that drive them. Construct the manager AFTER the engine and
// after recovery (recover() replays with hooks unset, so replayed epochs
// are not re-logged); scoping then destroys it before the engine, which is
// required — the hooks hold a pointer to the manager.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <utility>

#include "analytics/maintainer.hpp"
#include "core/dist_matrix.hpp"
#include "obs/metrics.hpp"
#include "par/profiler.hpp"
#include "persist/checkpoint.hpp"
#include "persist/op_log.hpp"
#include "stream/epoch_engine.hpp"

namespace dsg::persist {

struct PersistConfig {
    std::filesystem::path dir;  ///< durability directory (shared by all ranks)
    /// fsync the op log every N logged epochs (1 = every epoch; 0 = only at
    /// checkpoints and shutdown). The window of epochs that can be lost to a
    /// crash — never torn, never reordered — is bounded by this.
    std::size_t fsync_every = 16;
    /// Take a checkpoint every N applied epochs (by version, so all ranks
    /// agree); 0 disables checkpoints (the log then grows unboundedly).
    std::uint64_t checkpoint_stride = 64;
};

/// One rank's durability accounting.
struct PersistStats {
    std::uint64_t epochs_logged = 0;
    std::uint64_t bytes_logged = 0;    ///< framed WAL bytes appended
    std::uint64_t fsyncs = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t checkpoint_bytes = 0;  ///< bytes of checkpoint files written
    double log_ms = 0;         ///< total WAL append + fsync time
    double checkpoint_ms = 0;  ///< total checkpoint time (incl. collectives)
};

template <sparse::Semiring SR>
class DurabilityManager {
public:
    using T = typename SR::value_type;
    using Clock = std::chrono::steady_clock;

    enum class Start {
        Fresh,   ///< wipe any previous durable state and start at segment 0
        Resume,  ///< append after a recover() on the same directory
    };

    /// Collective. `hub` (optional) must be the hub attached to `engine` —
    /// its state is then checkpointed alongside the matrix.
    DurabilityManager(stream::EpochEngine<SR>& engine,
                      core::DistDynamicMatrix<T>& A, PersistConfig cfg,
                      Start start,
                      analytics::AnalyticsHub<T>* hub = nullptr)
        : engine_(&engine), A_(&A), cfg_(std::move(cfg)), hub_(hub) {
        auto& world = A_->shape().grid().world();
        rank_ = world.rank();
        if (rank_ == 0) std::filesystem::create_directories(cfg_.dir);
        world.barrier();

        if (start == Start::Fresh) {
            // Each rank wipes its own files; rank 0 retires the manifest
            // FIRST so a crash mid-wipe cannot leave a manifest pointing at
            // deleted files.
            if (rank_ == 0)
                std::filesystem::remove(manifest_path(cfg_.dir));
            world.barrier();
            delete_segments_below(cfg_.dir, rank_,
                                  ~std::uint64_t{0});
            delete_checkpoints_below(cfg_.dir, rank_, ~std::uint64_t{0});
            world.barrier();
            log_ = OpLogWriter::create(log_path(cfg_.dir, rank_, 0), rank_, 0);
        } else {
            const auto seg = latest_segment(cfg_.dir, rank_);
            log_ = seg ? OpLogWriter::append_to(log_path(cfg_.dir, rank_, *seg),
                                                rank_)
                       : OpLogWriter::create(log_path(cfg_.dir, rank_, 0),
                                             rank_, 0);
        }

        engine_->set_wal_hook(
            [this](const stream::EpochDelta<T>& delta) { on_epoch(delta); });
        engine_->set_checkpoint_hook(
            [this](std::uint64_t version) { maybe_checkpoint(version); });

        // Registry instruments (fetched once; the WAL path is per-epoch
        // hot). Append and fsync latencies are separate histograms — the
        // fsync tail is the quantity ROADMAP item 5(c) gates on.
        auto& reg = obs::registry();
        obs_append_ns_ = &reg.histogram("persist_wal_append_ns");
        obs_fsync_ns_ = &reg.histogram("persist_wal_fsync_ns");
        obs_ckpt_ns_ = &reg.histogram("persist_checkpoint_ns");
        obs_wal_bytes_ = &reg.counter("persist_wal_bytes");
        obs_wal_epochs_ = &reg.counter("persist_wal_epochs");
        obs_fsyncs_ = &reg.counter("persist_wal_fsyncs");
        obs_ckpts_ = &reg.counter("persist_checkpoints");
        obs_ckpt_bytes_ = &reg.counter("persist_checkpoint_bytes");
    }

    DurabilityManager(const DurabilityManager&) = delete;
    DurabilityManager& operator=(const DurabilityManager&) = delete;

    ~DurabilityManager() {
        try {
            log_->sync();  // graceful shutdown: nothing rides the page cache
        } catch (...) {    // NOLINT(bugprone-empty-catch)
        }
        engine_->set_wal_hook(nullptr);
        engine_->set_checkpoint_hook(nullptr);
    }

    [[nodiscard]] const PersistStats& stats() const { return stats_; }
    [[nodiscard]] const PersistConfig& config() const { return cfg_; }

    /// Makes everything logged so far durable immediately.
    void sync() { timed_sync(); }

    /// TEST ONLY — models a kill -9 at this instant: everything not yet
    /// flushed by the fsync cadence (or an explicit sync) is dropped, like
    /// the page cache on power loss. The manager must not be used after.
    void simulate_crash() {
        log_->abandon();
        engine_->set_wal_hook(nullptr);
        engine_->set_checkpoint_hook(nullptr);
    }

private:
    static double ms_since(Clock::time_point t0) {
        return std::chrono::duration<double, std::milli>(Clock::now() - t0)
            .count();
    }
    static std::uint64_t ns_since(Clock::time_point t0) {
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
    }

    /// One timed, counted fsync of the op log.
    void timed_sync() {
        const auto t0 = Clock::now();
        log_->sync();
        ++stats_.fsyncs;
        obs_fsyncs_->add(1);
        obs_fsync_ns_->record(ns_since(t0));
    }

    void on_epoch(const stream::EpochDelta<T>& delta) {
        par::Profiler::Scope scope(par::Phase::PersistLog);
        const auto t0 = Clock::now();
        const auto before = log_->offset();
        log_->append_epoch(delta.version, delta.adds, delta.merges,
                           delta.masks);
        const auto appended = log_->offset() - before;
        stats_.bytes_logged += appended;
        ++stats_.epochs_logged;
        obs_append_ns_->record(ns_since(t0));
        obs_wal_bytes_->add(appended);
        obs_wal_epochs_->add(1);
        if (cfg_.fsync_every > 0 && ++since_sync_ >= cfg_.fsync_every) {
            timed_sync();
            since_sync_ = 0;
        }
        stats_.log_ms += ms_since(t0);
    }

    void maybe_checkpoint(std::uint64_t version) {
        if (cfg_.checkpoint_stride == 0 ||
            version % cfg_.checkpoint_stride != 0)
            return;
        checkpoint(version);
    }

    /// Collective: all ranks reach this for the same versions because the
    /// stride test is on the (globally agreed) engine version.
    void checkpoint(std::uint64_t version) {
        par::Profiler::Scope scope(par::Phase::PersistCheckpoint);
        const auto t0 = Clock::now();
        auto& world = A_->shape().grid().world();
        const auto& shape = A_->shape();

        // 1. Every epoch the checkpoint covers must be durable first.
        timed_sync();

        // 2. This rank's snapshot file (tmp + rename + fsync).
        par::Buffer extra;
        if (hub_ != nullptr) hub_->save_state(extra);
        write_checkpoint_file<T>(cfg_.dir, version, rank_,
                                 shape.grid().rows(), shape.grid().cols(),
                                 shape.nrows(), shape.ncols(), A_->local(),
                                 extra);
        const auto file_bytes = std::filesystem::file_size(
            checkpoint_path(cfg_.dir, version, rank_));
        stats_.checkpoint_bytes += file_bytes;
        obs_ckpt_bytes_->add(file_bytes);

        // 3. Rotate to a fresh segment; the manifest records the new
        //    segment's start as this rank's replay position. The segment's
        //    header content is fsynced here; its directory entry becomes
        //    durable with the manifest's directory fsync below.
        const std::uint64_t old_segment = log_->segment();
        log_ = OpLogWriter::create(
            log_path(cfg_.dir, rank_, old_segment + 1), rank_,
            old_segment + 1);
        log_->sync();
        since_sync_ = 0;

        // 4. Commit point: rank 0 writes the manifest once every rank's
        //    checkpoint file and fresh segment exist (the allgather is the
        //    synchronization).
        const LogPosition mine{log_->segment(), log_->offset()};
        par::Buffer msg;
        par::BufferWriter w(msg);
        w.write(mine);
        auto all = world.allgather(std::move(msg));
        if (rank_ == 0) {
            Manifest m;
            m.version = version;
            m.grid_rows = shape.grid().rows();
            m.grid_cols = shape.grid().cols();
            m.nrows = shape.nrows();
            m.ncols = shape.ncols();
            m.log.resize(all.size());
            for (std::size_t r = 0; r < all.size(); ++r) {
                par::BufferReader reader(all[r]);
                m.log[r] = reader.read<LogPosition>();
            }
            write_manifest(cfg_.dir, m);
        }
        world.barrier();  // no compaction before the manifest is durable

        // 5. Compaction: everything at or below the old segment is covered
        //    by this checkpoint, as is every older checkpoint file.
        delete_segments_below(cfg_.dir, rank_, old_segment + 1);
        delete_checkpoints_below(cfg_.dir, rank_, version);

        ++stats_.checkpoints;
        obs_ckpts_->add(1);
        obs_ckpt_ns_->record(ns_since(t0));
        stats_.checkpoint_ms += ms_since(t0);
    }

    stream::EpochEngine<SR>* engine_;
    core::DistDynamicMatrix<T>* A_;
    PersistConfig cfg_;
    analytics::AnalyticsHub<T>* hub_;
    int rank_ = 0;
    std::optional<OpLogWriter> log_;
    std::size_t since_sync_ = 0;
    PersistStats stats_;

    // Registry instruments (fetched once in the ctor; see there).
    obs::Histogram* obs_append_ns_ = nullptr;
    obs::Histogram* obs_fsync_ns_ = nullptr;
    obs::Histogram* obs_ckpt_ns_ = nullptr;
    obs::Counter* obs_wal_bytes_ = nullptr;
    obs::Counter* obs_wal_epochs_ = nullptr;
    obs::Counter* obs_fsyncs_ = nullptr;
    obs::Counter* obs_ckpts_ = nullptr;
    obs::Counter* obs_ckpt_bytes_ = nullptr;
};

}  // namespace dsg::persist
