// Versioned immutable snapshot store: the read path of the serving
// subsystem (docs/ARCHITECTURE.md, "The query serving layer").
//
// The problem this solves: EpochEngine::with_snapshot serves reads under a
// shared lock on the LIVE matrix, so every reader excludes epoch
// application for its whole read — one slow analytical reader stalls
// ingestion for everyone. The SnapshotStore decouples the two sides: it
// subscribes to the engine's snapshot-publication hook and, every
// `publish_every` applied epochs, freezes an immutable Snapshot — every
// rank's block as a DCSR tile (with O(1) row lookups) plus the frozen
// AnalyticsHub readouts, all under the engine's writer lock where matrix
// and maintainers are quiescent and mutually consistent. Readers then query
// the published Snapshot through a plain shared_ptr: no engine lock, no
// collectives, no waiting on epoch application — and epoch application
// never waits on them.
//
// Versioning and retirement: the store retains the last `retain` published
// versions. Retiring a version from the store only drops the store's
// reference — the shared_ptr refcount keeps the snapshot alive until its
// LAST reader drops, so a reader pinning an old version keeps exactly that
// version's memory and nothing else (live_snapshots() makes the population
// observable). A registered ResultCache is pruned in lockstep: entries of
// versions that slid out of the retention window are invalidated at
// publish time.
//
// SPMD contract: ONE store instance is shared by all ranks of a grid
// (ranks are threads — see docs/ARCHITECTURE.md on the runtime). attach()
// must be called by every rank, like constructing any SPMD object;
// publication then runs collectively inside the engine's hook: each rank
// freezes its own tile into a staging slot, a barrier joins them, and rank
// 0 seals the global snapshot. Published snapshots are whole-matrix
// objects — any thread can answer queries about ANY coordinate, which is
// what lets the query executor run on non-rank threads.
#pragma once

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analytics/maintainer.hpp"
#include "core/dist_matrix.hpp"
#include "obs/metrics.hpp"
#include "par/profiler.hpp"
#include "serve/result_cache.hpp"
#include "sparse/dcsr.hpp"

namespace dsg::serve {

/// One immutable published snapshot of the whole distributed matrix plus
/// the frozen analytics readouts. Never mutated after construction, so any
/// number of threads may query it concurrently without synchronization;
/// lifetime is refcounted (hold it through the shared_ptr the store hands
/// out, and it cannot be retired under you).
template <typename T>
class Snapshot {
public:
    /// Grid geometry a snapshot needs to resolve global coordinates without
    /// keeping the (mutable, rank-affine) ProcessGrid alive.
    struct Geometry {
        sparse::index_t nrows = 0;
        sparse::index_t ncols = 0;
        int rows = 1;  ///< grid shape; tiles are indexed rank = i*cols + j
        int cols = 1;
        core::BlockPartition row_partition;
        core::BlockPartition col_partition;
    };

    Snapshot(std::uint64_t version, Geometry geom,
             std::vector<sparse::Dcsr<T>> tiles,
             std::vector<std::pair<std::string, double>> readouts,
             std::shared_ptr<std::atomic<std::int64_t>> live)
        : version_(version),
          geom_(std::move(geom)),
          tiles_(std::move(tiles)),
          readouts_(std::move(readouts)),
          live_(std::move(live)) {
        assert(tiles_.size() == static_cast<std::size_t>(geom_.rows) *
                                    static_cast<std::size_t>(geom_.cols));
        lookups_.reserve(tiles_.size());
        for (const auto& tile : tiles_) {
            lookups_.emplace_back(tile);
            nnz_ += tile.nnz();
        }
        if (live_) live_->fetch_add(1, std::memory_order_relaxed);
    }
    ~Snapshot() {
        if (live_) live_->fetch_sub(1, std::memory_order_relaxed);
    }

    // Immutable by contract; the row lookups hold pointers into tiles_.
    Snapshot(const Snapshot&) = delete;
    Snapshot& operator=(const Snapshot&) = delete;

    /// Engine version this snapshot froze (monotone across publications).
    [[nodiscard]] std::uint64_t version() const { return version_; }
    [[nodiscard]] sparse::index_t nrows() const { return geom_.nrows; }
    [[nodiscard]] sparse::index_t ncols() const { return geom_.ncols; }
    /// Non-zeros across all tiles at freeze time.
    [[nodiscard]] std::size_t nnz() const { return nnz_; }

    // -- point and row queries (global coordinates, no locks) ----------------

    /// Whether (i, j) was a stored non-zero at freeze time.
    [[nodiscard]] bool edge_exists(sparse::index_t i, sparse::index_t j) const {
        if (!in_range(i, j)) return false;
        const auto& tile = tiles_[tile_of(i, j)];
        const auto& lookup = lookups_[tile_of(i, j)];
        const std::size_t pos =
            lookup.position(geom_.row_partition.to_local(i));
        if (pos == sparse::DcsrRowLookup<T>::npos) return false;
        const sparse::index_t lj = geom_.col_partition.to_local(j);
        for (const sparse::index_t c : tile.row_cols(pos))
            if (c == lj) return true;
        return false;
    }

    /// Stored value at (i, j), or nullopt when structurally zero.
    [[nodiscard]] std::optional<T> value_at(sparse::index_t i,
                                            sparse::index_t j) const {
        if (!in_range(i, j)) return std::nullopt;
        const auto& tile = tiles_[tile_of(i, j)];
        const std::size_t pos =
            lookups_[tile_of(i, j)].position(geom_.row_partition.to_local(i));
        if (pos == sparse::DcsrRowLookup<T>::npos) return std::nullopt;
        const sparse::index_t lj = geom_.col_partition.to_local(j);
        const auto cols = tile.row_cols(pos);
        for (std::size_t k = 0; k < cols.size(); ++k)
            if (cols[k] == lj) return tile.row_values(pos)[k];
        return std::nullopt;
    }

    /// Out-degree of row i (stored non-zeros across the row's grid blocks).
    [[nodiscard]] std::size_t degree(sparse::index_t i) const {
        if (i < 0 || i >= geom_.nrows) return 0;
        const int ib = geom_.row_partition.owner(i);
        const sparse::index_t li = geom_.row_partition.to_local(i);
        std::size_t deg = 0;
        for (int jb = 0; jb < geom_.cols; ++jb) {
            const std::size_t t = static_cast<std::size_t>(ib) *
                                      static_cast<std::size_t>(geom_.cols) +
                                  static_cast<std::size_t>(jb);
            const std::size_t pos = lookups_[t].position(li);
            if (pos != sparse::DcsrRowLookup<T>::npos)
                deg += tiles_[t].row_cols(pos).size();
        }
        return deg;
    }

    /// Invokes fn(global col, value) over the stored entries of row i.
    template <typename Fn>
    void for_row(sparse::index_t i, Fn&& fn) const {
        if (i < 0 || i >= geom_.nrows) return;
        const int ib = geom_.row_partition.owner(i);
        const sparse::index_t li = geom_.row_partition.to_local(i);
        for (int jb = 0; jb < geom_.cols; ++jb) {
            const std::size_t t = static_cast<std::size_t>(ib) *
                                      static_cast<std::size_t>(geom_.cols) +
                                  static_cast<std::size_t>(jb);
            const std::size_t pos = lookups_[t].position(li);
            if (pos == sparse::DcsrRowLookup<T>::npos) continue;
            const auto cols = tiles_[t].row_cols(pos);
            const auto vals = tiles_[t].row_values(pos);
            for (std::size_t k = 0; k < cols.size(); ++k)
                fn(geom_.col_partition.to_global(jb, cols[k]), vals[k]);
        }
    }

    /// Vertices reachable from `src` in at most `hops` directed steps,
    /// excluding `src` itself. This is k rounds of masked SpMV over the
    /// Boolean semiring — y = xᵀA with the complement of the visited set as
    /// mask — evaluated as sparse frontier expansion against the frozen
    /// tiles (the mask is what keeps each vertex expanded exactly once).
    [[nodiscard]] std::size_t k_hop_count(sparse::index_t src, int hops) const {
        if (src < 0 || src >= geom_.nrows || hops <= 0) return 0;
        std::vector<std::uint8_t> visited(
            static_cast<std::size_t>(std::max(geom_.nrows, geom_.ncols)), 0);
        visited[static_cast<std::size_t>(src)] = 1;
        std::vector<sparse::index_t> frontier{src}, next;
        std::size_t reached = 0;
        for (int h = 0; h < hops && !frontier.empty(); ++h) {
            next.clear();
            for (const sparse::index_t u : frontier) {
                if (u >= geom_.nrows) continue;  // col-only vertex: no out-edges
                for_row(u, [&](sparse::index_t v, const T&) {
                    auto& seen = visited[static_cast<std::size_t>(v)];
                    if (seen) return;
                    seen = 1;
                    ++reached;
                    next.push_back(v);
                });
            }
            frontier.swap(next);
        }
        return reached;
    }

    // -- frozen analytics readouts -------------------------------------------

    /// The derived value published under `name` at freeze time, if a
    /// maintainer by that name was attached.
    [[nodiscard]] std::optional<double> analytics(std::string_view name) const {
        for (const auto& [key, value] : readouts_)
            if (key == name) return value;
        return std::nullopt;
    }
    /// All frozen (name, value) readouts, in hub registration order.
    [[nodiscard]] const std::vector<std::pair<std::string, double>>& readouts()
        const {
        return readouts_;
    }

private:
    [[nodiscard]] bool in_range(sparse::index_t i, sparse::index_t j) const {
        return i >= 0 && i < geom_.nrows && j >= 0 && j < geom_.ncols;
    }
    [[nodiscard]] std::size_t tile_of(sparse::index_t i,
                                      sparse::index_t j) const {
        return static_cast<std::size_t>(geom_.row_partition.owner(i)) *
                   static_cast<std::size_t>(geom_.cols) +
               static_cast<std::size_t>(geom_.col_partition.owner(j));
    }

    std::uint64_t version_;
    Geometry geom_;
    std::vector<sparse::Dcsr<T>> tiles_;          // indexed by world rank
    std::vector<sparse::DcsrRowLookup<T>> lookups_;  // parallel to tiles_
    std::vector<std::pair<std::string, double>> readouts_;
    std::size_t nnz_ = 0;
    std::shared_ptr<std::atomic<std::int64_t>> live_;  // population counter
};

struct StoreConfig {
    /// Publish at every version divisible by this (1 = every applied
    /// epoch). Clamped to >= 1.
    std::uint64_t publish_every = 4;
    /// Published versions the store itself keeps alive. Clamped to >= 1.
    std::size_t retain = 3;
};

/// The store: owns the publication protocol and the retention window. See
/// the header comment for the SPMD contract.
template <typename T>
class SnapshotStore {
public:
    using Config = StoreConfig;

    explicit SnapshotStore(Config cfg = {})
        : cfg_(cfg),
          live_(std::make_shared<std::atomic<std::int64_t>>(0)) {
        if (cfg_.publish_every == 0) cfg_.publish_every = 1;
        if (cfg_.retain == 0) cfg_.retain = 1;
        // Registry instruments (fetched once; rank 0 updates the gauges).
        auto& reg = obs::registry();
        obs_publish_ns_ = &reg.histogram("serve_publish_ns");
        obs_published_ = &reg.counter("serve_snapshots_published");
        obs_live_ = &reg.gauge("serve_snapshots_live");
        obs_lag_ = &reg.gauge("serve_snapshot_lag");
    }

    SnapshotStore(const SnapshotStore&) = delete;
    SnapshotStore& operator=(const SnapshotStore&) = delete;

    [[nodiscard]] const Config& config() const { return cfg_; }

    /// Registers a ResultCache to be pruned as the retention window slides.
    /// Call before attach() (rank 0 prunes it during publication).
    void set_cache(ResultCache* cache) { cache_ = cache; }

    /// Collective: subscribes this rank to `engine`'s publication hook and
    /// publishes the initial snapshot at the engine's starting version.
    /// Every rank of the grid must call attach with its own engine and
    /// matrix, before pumping starts; `hub`, when given, must be the
    /// rank's hub (rank 0's readouts are frozen — they are identical on
    /// every rank by the hub's collective contract).
    template <typename Engine>
    void attach(Engine& engine, core::DistDynamicMatrix<T>& A,
                const analytics::AnalyticsHub<T>* hub = nullptr) {
        auto& grid = A.shape().grid();
        const int rank = grid.world().rank();
        {
            std::lock_guard lock(reg_mx_);
            if (staging_.empty()) {
                staging_.resize(static_cast<std::size_t>(grid.world().size()));
                geom_.nrows = A.shape().nrows();
                geom_.ncols = A.shape().ncols();
                geom_.rows = grid.rows();
                geom_.cols = grid.cols();
                geom_.row_partition = A.shape().row_partition();
                geom_.col_partition = A.shape().col_partition();
            }
            if (rank == 0) hub_ = hub;
        }
        engine.set_publish_hook([this, &A, rank](std::uint64_t version) {
            if (version % cfg_.publish_every == 0) publish_now(A, rank, version);
            if (rank == 0) {
                // Version lag of the newest published snapshot behind the
                // engine (0 right after an on-cycle publication), refreshed
                // every applied epoch.
                const auto cur = current_version();
                obs_lag_->set(static_cast<std::int64_t>(
                    cur ? version - std::min(version, *cur) : version));
                obs_live_->set(live_snapshots());
            }
        });
        // The initial snapshot, before any epoch: readers are never
        // snapshot-less, also right after recovery, where the initial
        // version is the restored one.
        publish_now(A, rank, engine.config().initial_version);
    }

    /// Collective: freezes and publishes a snapshot of `A` at `version`
    /// right now, regardless of cadence. The caller must guarantee the
    /// matrix is quiescent on every rank (the engine's hook guarantees it;
    /// attach-time publication happens before pumping starts).
    void publish_now(const core::DistDynamicMatrix<T>& A, int rank,
                     std::uint64_t version) {
        // Rank 0 (the sealer) marks its publish span as the flow producer
        // for this version: query spans answered from the snapshot carry
        // the matching flow id, and obs::to_chrome_trace renders the pairs
        // as s/f flow arrows ("this slow query waited on that publish").
        par::Profiler::set_thread_snapshot_version(
            static_cast<std::int64_t>(version));
        {
            par::Profiler::Scope scope(par::Phase::ServePublish);
            if (rank == 0)
                scope.set_flow(version + 1, par::FlowDir::Start);
            const auto t0 = std::chrono::steady_clock::now();
            staging_[static_cast<std::size_t>(rank)] = A.freeze_tile();
            auto& world = A.shape().grid().world();
            world.barrier();  // all tiles staged
            if (rank == 0) seal(version);
            world.barrier();  // sealed before any rank can restage
            if (rank == 0)
                obs_publish_ns_->record(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
        }
        par::Profiler::set_thread_snapshot_version(-1);
    }

    // -- reader side (any thread, any time) ----------------------------------

    /// The newest published snapshot, or nullptr before the first
    /// publication. Holding the returned pointer pins the snapshot.
    [[nodiscard]] std::shared_ptr<const Snapshot<T>> current() const {
        std::lock_guard lock(mx_);
        return versions_.empty() ? nullptr : versions_.back();
    }
    /// A specific retained version, or nullptr if never published / retired.
    [[nodiscard]] std::shared_ptr<const Snapshot<T>> get(
        std::uint64_t version) const {
        std::lock_guard lock(mx_);
        for (const auto& s : versions_)
            if (s->version() == version) return s;
        return nullptr;
    }
    /// Version of current(), or nullopt before the first publication.
    [[nodiscard]] std::optional<std::uint64_t> current_version() const {
        std::lock_guard lock(mx_);
        return versions_.empty() ? std::nullopt
                                 : std::optional(versions_.back()->version());
    }
    /// Oldest version the store still retains (readers may pin older ones).
    [[nodiscard]] std::optional<std::uint64_t> oldest_version() const {
        std::lock_guard lock(mx_);
        return versions_.empty() ? std::nullopt
                                 : std::optional(versions_.front()->version());
    }
    /// Versions the store currently retains (<= config().retain).
    [[nodiscard]] std::size_t retained() const {
        std::lock_guard lock(mx_);
        return versions_.size();
    }
    /// Snapshots published since construction.
    [[nodiscard]] std::uint64_t published() const {
        std::lock_guard lock(mx_);
        return published_;
    }
    /// Snapshot objects alive right now: retained + reader-pinned retirees.
    /// This is what makes refcounted retirement observable — it exceeds
    /// retained() exactly while a retired version is still pinned.
    [[nodiscard]] std::int64_t live_snapshots() const {
        return live_->load(std::memory_order_relaxed);
    }

private:
    void seal(std::uint64_t version) {
        auto readouts = hub_ != nullptr
                            ? hub_->snapshots()
                            : std::vector<std::pair<std::string, double>>{};
        auto snap = std::make_shared<Snapshot<T>>(
            version, geom_, std::move(staging_), std::move(readouts), live_);
        staging_.assign(tile_count(), sparse::Dcsr<T>{});
        std::lock_guard lock(mx_);
        // Re-publishing the same version (attach on a store that already
        // holds it) replaces in place rather than duplicating the window.
        if (!versions_.empty() && versions_.back()->version() == version)
            versions_.pop_back();
        versions_.push_back(std::move(snap));
        ++published_;
        obs_published_->add(1);
        while (versions_.size() > cfg_.retain) versions_.pop_front();
        if (cache_ != nullptr)
            cache_->invalidate_before(versions_.front()->version());
    }

    [[nodiscard]] std::size_t tile_count() const {
        return static_cast<std::size_t>(geom_.rows) *
               static_cast<std::size_t>(geom_.cols);
    }

    Config cfg_;
    ResultCache* cache_ = nullptr;

    std::mutex reg_mx_;  // attach-time registration
    typename Snapshot<T>::Geometry geom_;
    std::vector<sparse::Dcsr<T>> staging_;  // slot r: rank r's frozen tile
    const analytics::AnalyticsHub<T>* hub_ = nullptr;  // rank 0's hub

    mutable std::mutex mx_;  // guards the published window
    std::deque<std::shared_ptr<const Snapshot<T>>> versions_;
    std::uint64_t published_ = 0;
    std::shared_ptr<std::atomic<std::int64_t>> live_;

    // Registry instruments (fetched once in the ctor).
    obs::Histogram* obs_publish_ns_ = nullptr;
    obs::Counter* obs_published_ = nullptr;
    obs::Gauge* obs_live_ = nullptr;
    obs::Gauge* obs_lag_ = nullptr;
};

}  // namespace dsg::serve
