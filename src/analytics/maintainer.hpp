// The live analytics layer: incremental maintainers subscribed to epoch
// boundaries of the streaming engine (docs/ARCHITECTURE.md, "The live
// analytics layer").
//
// A Maintainer owns one derived value (a triangle count, a distance table, a
// contraction) and keeps it consistent with the stream: at every *applied*
// epoch the engine hands it a stream::EpochDelta via on_epoch() — the rank's
// drained ops and the owner-side blocks the engine already routed, so a
// maintainer starts from those and routes nothing again. on_epoch() runs
// collectively on every rank — after the epoch's ops were applied to the
// matrix and before the engine's reader lock is released. snapshot() is the other half of the contract: a lock-free read
// of the most recently published derived scalar, callable from any thread at
// any time (reader threads poll it while epochs are being applied).
//
// The AnalyticsHub composes maintainers: it registers any number of them,
// drives them in registration order from a single engine epoch hook
// (attach()), and accounts per-maintainer latency so benchmarks can
// attribute epoch-boundary cost (bench_analytics_latency). Registration
// order is part of the collective contract — every rank must register the
// same maintainers in the same order, exactly like issuing collectives.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "par/buffer.hpp"
#include "stream/epoch_engine.hpp"

namespace dsg::analytics {

/// One incrementally maintained derived value (see the header comment for
/// the on_epoch/snapshot contract).
template <typename T>
class Maintainer {
public:
    virtual ~Maintainer() = default;

    /// Stable display name (also the key in AnalyticsHub::snapshots()).
    [[nodiscard]] virtual const char* name() const = 0;

    /// Collective: folds one applied epoch into the derived value and
    /// publishes the new snapshot. Called on every rank of the epoch, under
    /// the engine's writer lock; delta lists and blocks may be empty on
    /// ranks that drained or own nothing.
    virtual void on_epoch(const stream::EpochDelta<T>& delta) = 0;

    /// Lock-free read of the most recently published derived scalar; safe
    /// from any thread, any time.
    [[nodiscard]] virtual double snapshot() const = 0;

    /// Serializes this rank's share of the maintainer's state (derived
    /// matrices, published scalars, skip counters) so the durability layer
    /// (src/persist/) can include it in epoch-consistent checkpoints.
    /// Rank-local — no collectives. Default: stateless.
    virtual void save_state(par::Buffer& out) const { (void)out; }
    /// Restores what save_state wrote, called at the same epoch boundary
    /// semantics (before any post-checkpoint epoch is replayed). Must not
    /// issue collectives and must leave snapshot() returning the restored
    /// published value. Default: stateless.
    virtual void load_state(par::BufferReader& in) { (void)in; }
};

/// Per-maintainer epoch-hook accounting of one rank.
struct MaintainerStats {
    std::uint64_t epochs = 0;  ///< on_epoch invocations
    double total_ms = 0;
    double max_ms = 0;

    [[nodiscard]] double mean_ms() const {
        return epochs > 0 ? total_ms / static_cast<double>(epochs) : 0.0;
    }
};

/// Registry + dispatcher for a rank's maintainers. One hub per rank, driven
/// by that rank's engine; every rank must build an identical hub (same
/// maintainer types, same order) because on_epoch bodies issue collectives.
template <typename T>
class AnalyticsHub {
public:
    AnalyticsHub() = default;
    AnalyticsHub(const AnalyticsHub&) = delete;
    AnalyticsHub& operator=(const AnalyticsHub&) = delete;

    /// Constructs a maintainer in place; returns a typed reference for
    /// seeding and typed reads.
    template <typename M, typename... Args>
    M& emplace(Args&&... args) {
        return static_cast<M&>(
            add(std::make_unique<M>(std::forward<Args>(args)...)));
    }

    /// Registers an externally constructed maintainer.
    Maintainer<T>& add(std::unique_ptr<Maintainer<T>> m) {
        maintainers_.push_back(std::move(m));
        stats_.emplace_back();
        // Per-maintainer epoch latency, merged across ranks (on_epoch is
        // collective). Fetched here, once per registration.
        obs_epoch_ns_.push_back(&obs::registry().histogram(
            "analytics_epoch_ns",
            {{"maintainer", std::string(maintainers_.back()->name())}}));
        return *maintainers_.back();
    }

    [[nodiscard]] std::size_t size() const { return maintainers_.size(); }
    [[nodiscard]] Maintainer<T>& operator[](std::size_t k) {
        return *maintainers_[k];
    }
    [[nodiscard]] const Maintainer<T>& operator[](std::size_t k) const {
        return *maintainers_[k];
    }
    [[nodiscard]] const MaintainerStats& stats(std::size_t k) const {
        return stats_[k];
    }

    /// The epoch-hook body: drives every maintainer in registration order
    /// and records per-maintainer latency. Collective (maintainers issue
    /// collectives); invoked by the engine under its writer lock, so it must
    /// not be called concurrently with itself.
    void on_epoch(const stream::EpochDelta<T>& delta) {
        using Clock = std::chrono::steady_clock;
        for (std::size_t k = 0; k < maintainers_.size(); ++k) {
            const auto t0 = Clock::now();
            maintainers_[k]->on_epoch(delta);
            const double ms =
                std::chrono::duration<double, std::milli>(Clock::now() - t0)
                    .count();
            ++stats_[k].epochs;
            stats_[k].total_ms += ms;
            stats_[k].max_ms = std::max(stats_[k].max_ms, ms);
            obs_epoch_ns_[k]->record_ms(ms);
        }
    }

    /// Subscribes this hub to an engine's epoch boundary. Call on every rank
    /// (with that rank's engine and hub) before pumping starts; the hub must
    /// outlive the engine's run.
    template <typename Engine>
    void attach(Engine& engine) {
        engine.set_epoch_hook(
            [this](const stream::EpochDelta<T>& delta) { on_epoch(delta); });
    }

    /// Serializes every maintainer's rank-local state in registration order
    /// (name-tagged, length-framed) — the hub's contribution to a
    /// checkpoint. Rank-local; no collectives.
    void save_state(par::Buffer& out) const {
        par::BufferWriter w(out);
        w.write<std::uint64_t>(maintainers_.size());
        for (const auto& m : maintainers_) {
            const std::string_view name = m->name();
            w.write_span(std::span<const char>(name.data(), name.size()));
            par::Buffer state;
            m->save_state(state);
            w.write_vector(state);
        }
    }

    /// Restores a blob produced by save_state into this hub, which must
    /// hold the same maintainers in the same order (the collective
    /// registration contract already requires exactly that). Throws
    /// std::runtime_error on any mismatch.
    void load_state(par::BufferReader& in) {
        const auto count = in.read<std::uint64_t>();
        if (count != maintainers_.size())
            throw std::runtime_error(
                "AnalyticsHub::load_state: checkpoint holds " +
                std::to_string(count) + " maintainers, hub has " +
                std::to_string(maintainers_.size()));
        for (const auto& m : maintainers_) {
            const auto name = in.read_vector<char>();
            if (std::string_view(name.data(), name.size()) != m->name())
                throw std::runtime_error(
                    "AnalyticsHub::load_state: maintainer order mismatch ("
                    "checkpoint has '" +
                    std::string(name.data(), name.size()) + "', hub has '" +
                    m->name() + "')");
            const auto state = in.read_vector<std::byte>();
            par::BufferReader sub(state);
            m->load_state(sub);
        }
    }

    /// (name, snapshot) of every maintainer, in registration order. Reads
    /// are lock-free; safe from any thread. This is also the hub's frozen
    /// readout: taken under the engine's writer lock (where every
    /// maintainer is quiescent and published), the returned vector is an
    /// immutable, mutually consistent copy of all derived values — the
    /// serving layer (src/serve/) embeds exactly this in each published
    /// snapshot so analytics reads never touch the live hub.
    [[nodiscard]] std::vector<std::pair<std::string, double>> snapshots()
        const {
        std::vector<std::pair<std::string, double>> out;
        out.reserve(maintainers_.size());
        for (const auto& m : maintainers_)
            out.emplace_back(m->name(), m->snapshot());
        return out;
    }

private:
    std::vector<std::unique_ptr<Maintainer<T>>> maintainers_;
    std::vector<MaintainerStats> stats_;
    // Parallel to maintainers_: registry instruments (fetched in add()).
    std::vector<obs::Histogram*> obs_epoch_ns_;
};

}  // namespace dsg::analytics
