// Crash recovery: checkpoint load + log-tail replay through the normal
// collective apply path (docs/ARCHITECTURE.md, "The durability layer").
//
// recover() restores one rank's share of the durable state into a freshly
// constructed distributed matrix (and, optionally, a freshly constructed
// AnalyticsHub):
//
//   1. read the manifest (absent = cold start from an op log alone);
//   2. load this rank's checkpoint tile + analytics state, verifying CRC,
//      version, and grid shape against the manifest and the live grid;
//   3. scan the log tail (manifest position onward), stopping at the first
//      torn or corrupt frame and verifying version continuity;
//   4. agree across ranks on the replayable prefix — the minimum last
//      complete version — and truncate every frame beyond it (an epoch that
//      is not durable on EVERY rank never happened; it was never applied,
//      because the WAL hook runs before apply on all ranks of the epoch);
//   5. replay the surviving frames through a real EpochEngine, one epoch
//      per frame: pushed in the logged ADD/MERGE/MASK order, drained,
//      agreed, applied, and handed to the analytics hook exactly like live
//      traffic — replay IS ingestion, just fed from disk;
//   6. verify the recovered version and return the replay accounting.
//
// Collective: every rank of the grid calls recover() together. Afterwards
// construct the production engine with initial_version = recovered_version
// (and a DurabilityManager in Resume mode to keep appending).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <vector>

#include "analytics/maintainer.hpp"
#include "core/dist_matrix.hpp"
#include "par/profiler.hpp"
#include "persist/checkpoint.hpp"
#include "persist/op_log.hpp"
#include "stream/epoch_engine.hpp"

namespace dsg::persist {

struct RecoveryOptions {
    std::filesystem::path dir;
    par::ThreadPool* pool = nullptr;  ///< intra-rank threads for replay apply
};

struct RecoveryResult {
    bool had_checkpoint = false;
    std::uint64_t checkpoint_version = 0;  ///< 0 when cold-starting
    std::uint64_t recovered_version = 0;   ///< checkpoint + replayed epochs
    std::uint64_t replayed_epochs = 0;
    std::uint64_t replayed_ops = 0;  ///< this rank's ops pushed during replay
    /// True when torn bytes or epochs not durable on every rank were cut
    /// from this rank's log (the normal aftermath of a hard kill).
    bool truncated_tail = false;
};

/// Restores durable state from `opts.dir` into `A` (which must be freshly
/// constructed on the same grid shape the state was written under) and, when
/// given, into `hub` (freshly constructed, same maintainers in the same
/// order as at checkpoint time). Collective; throws PersistError when the
/// durable state is unusable (wrong grid, corrupt checkpoint, version
/// discontinuity) — torn log TAILS are truncated, not errors.
template <sparse::Semiring SR, typename T = typename SR::value_type>
    requires std::is_trivially_copyable_v<T>
RecoveryResult recover(core::DistDynamicMatrix<T>& A,
                       const RecoveryOptions& opts,
                       analytics::AnalyticsHub<T>* hub = nullptr) {
    par::Profiler::Scope scope(par::Phase::PersistRecover);
    auto& grid = A.shape().grid();
    auto& world = grid.world();
    const int rank = world.rank();
    RecoveryResult res;

    // -- 1/2: manifest + checkpoint tile -------------------------------------
    const auto manifest = read_manifest(opts.dir);
    std::uint64_t start_segment = 0;
    std::uint64_t start_offset = kLogHeaderBytes;
    if (manifest) {
        if (manifest->grid_rows != grid.rows() ||
            manifest->grid_cols != grid.cols())
            throw PersistError(
                "durable state was written on a " +
                std::to_string(manifest->grid_rows) + "x" +
                std::to_string(manifest->grid_cols) + " grid, recovering on " +
                std::to_string(grid.rows()) + "x" +
                std::to_string(grid.cols()));
        if (manifest->nrows != A.shape().nrows() ||
            manifest->ncols != A.shape().ncols())
            throw PersistError("durable matrix shape disagrees with A");
        auto ckpt = read_checkpoint_file<T>(opts.dir, manifest->version, rank,
                                            grid.rows(), grid.cols(),
                                            A.shape().nrows(),
                                            A.shape().ncols());
        if (ckpt.tile.nrows() != A.shape().local_rows() ||
            ckpt.tile.ncols() != A.shape().local_cols())
            throw PersistError("checkpoint tile shape disagrees with this "
                               "rank's block");
        A.local() = ckpt.tile;
        if (hub != nullptr) {
            if (ckpt.extra_state.empty())
                throw PersistError(
                    "an analytics hub was passed to recover() but the "
                    "checkpoint holds no analytics state (was it written "
                    "by a durability manager without a hub?)");
            par::BufferReader r(ckpt.extra_state);
            hub->load_state(r);
        }
        res.had_checkpoint = true;
        res.checkpoint_version = manifest->version;
        start_segment = manifest->log[static_cast<std::size_t>(rank)].segment;
        start_offset = manifest->log[static_cast<std::size_t>(rank)].offset;
    } else {
        A.local().clear();
    }

    // -- 3: scan this rank's log tail ----------------------------------------
    struct PendingEpoch {
        std::uint64_t version;
        EpochOps<T> ops;
        std::uint64_t segment;
        std::uint64_t end_offset;  ///< one past this frame in its segment
    };
    std::vector<PendingEpoch> frames;
    std::size_t max_frame_ops = 0;
    bool cut = false;                        // something to truncate?
    std::uint64_t cut_segment = start_segment;
    std::uint64_t cut_offset = start_offset;  // first byte NOT kept
    bool segment_present = false;             // does cut_segment exist?
    {
        std::uint64_t expected = res.checkpoint_version + 1;
        std::uint64_t seg = start_segment;
        while (std::filesystem::exists(log_path(opts.dir, rank, seg))) {
            if (seg == start_segment) segment_present = true;
            bool torn = false;
            try {
                OpLogReader reader(log_path(opts.dir, rank, seg));
                if (reader.header().segment != seg && reader.valid_end() > 0)
                    throw PersistError("log segment id disagrees with its "
                                       "file name");
                // valid_end() == 0 marks a headerless stub (rotation crash
                // artifact): nothing to seek into, the torn flag below cuts
                // the file away.
                if (seg == start_segment && reader.valid_end() > 0)
                    reader.seek(std::min<std::uint64_t>(
                        start_offset, std::filesystem::file_size(
                                          log_path(opts.dir, rank, seg))));
                while (auto frame = reader.next()) {
                    if (frame->version != expected)
                        throw PersistError(
                            "log version discontinuity: expected epoch " +
                            std::to_string(expected) + ", found " +
                            std::to_string(frame->version));
                    auto ops = decode_frame<T>(*frame);
                    max_frame_ops = std::max(max_frame_ops, ops.total());
                    frames.push_back({frame->version, std::move(ops), seg,
                                      reader.valid_end()});
                    ++expected;
                }
                torn = reader.torn();
                if (torn) {
                    cut = true;
                    cut_segment = seg;
                    cut_offset = reader.valid_end();
                }
            } catch (const PersistError&) {
                if (!frames.empty() || seg != start_segment) {
                    // A segment whose very header failed after valid data:
                    // crash artifact of rotation — cut it away entirely.
                    torn = cut = true;
                    cut_segment = seg;
                    cut_offset = 0;
                } else {
                    throw;  // the first thing we read is garbage: corrupt
                }
            }
            if (torn) break;  // later segments are unreachable by replay
            ++seg;
        }
    }

    // -- 4: cross-rank agreement on the replayable prefix --------------------
    const std::uint64_t my_last =
        frames.empty() ? res.checkpoint_version : frames.back().version;
    const std::uint64_t replay_upto = world.allreduce(
        my_last,
        [](std::uint64_t a, std::uint64_t b) { return std::min(a, b); });
    while (!frames.empty() && frames.back().version > replay_upto) {
        // Durable here but not everywhere — the epoch was never applied
        // anywhere (WAL runs pre-apply), so dropping it loses nothing that
        // was ever observable. Popping back-to-front leaves cut_segment at
        // the EARLIEST dropped frame's segment; the byte offset within it
        // is recomputed from the surviving frames below.
        cut = true;
        cut_segment = frames.back().segment;
        frames.pop_back();
    }
    if (cut) {
        if (!frames.empty() && frames.back().segment == cut_segment) {
            cut_offset = frames.back().end_offset;
        } else if (frames.empty() || frames.back().segment < cut_segment) {
            // Nothing kept in cut_segment: cut right after the replay start
            // (start segment) or the whole file (later segments).
            cut_offset = cut_segment == start_segment
                             ? std::min<std::uint64_t>(
                                   start_offset,
                                   segment_present
                                       ? std::filesystem::file_size(log_path(
                                             opts.dir, rank, cut_segment))
                                       : start_offset)
                             : 0;
        }
        if (std::filesystem::exists(log_path(opts.dir, rank, cut_segment))) {
            if (cut_offset < kLogHeaderBytes) {
                // No complete header survives: remove the file outright so
                // Resume never appends after a headerless stub.
                std::filesystem::remove(
                    log_path(opts.dir, rank, cut_segment));
            } else {
                truncate_file(log_path(opts.dir, rank, cut_segment),
                              cut_offset);
            }
        }
        for (std::uint64_t seg = cut_segment + 1;
             std::filesystem::exists(log_path(opts.dir, rank, seg)); ++seg)
            std::filesystem::remove(log_path(opts.dir, rank, seg));
        res.truncated_tail = true;
    }

    // -- 5: replay through a real engine -------------------------------------
    stream::EngineConfig cfg;
    cfg.queue_capacity = std::max<std::size_t>(max_frame_ops, 1);
    cfg.epoch_batch = 1;
    cfg.epoch_deadline = std::chrono::milliseconds(0);
    cfg.pool = opts.pool;
    cfg.initial_version = res.checkpoint_version;
    stream::EpochEngine<SR> engine(A, cfg);
    if (hub != nullptr) hub->attach(engine);
    for (const auto& f : frames) {
        auto& q = engine.queue();
        for (const auto& t : f.ops.adds) q.push({stream::OpKind::Add, t});
        for (const auto& t : f.ops.merges) q.push({stream::OpKind::Merge, t});
        for (const auto& t : f.ops.masks) q.push({stream::OpKind::Mask, t});
        res.replayed_ops += f.ops.total();
        engine.pump();  // collective: drains, agrees, applies, fires the hub
    }
    res.replayed_epochs = frames.size();

    // -- 6: verify ------------------------------------------------------------
    const auto version =
        engine.with_snapshot([](core::SnapshotView<T> snap) {
            return snap.version();
        });
    if (version != replay_upto)
        throw PersistError("recovered version " + std::to_string(version) +
                           " does not match the agreed replay target " +
                           std::to_string(replay_upto));
    res.recovered_version = version;
    return res;
}

}  // namespace dsg::persist
