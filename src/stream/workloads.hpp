// Workload scenario driver for the streaming ingestion engine.
//
// A WorkloadProducer is a deterministic per-thread event source: given a
// (config, producer_id) pair it emits the same sequence on every run, so
// engine tests can replay a concurrent ingest against a sequential
// reference. Events are writes (the StreamOps the producer pushes into its
// rank's UpdateQueue), reads (point probes served from a reader snapshot
// between epochs), and pauses (burst gaps the driver may honor by sleeping
// or yield to model think time).
//
// The nine scenarios cover the axes that stress distinct parts of the
// engine: sustained-uniform — steady uniform load (the paper's R-MAT-batch
// regime); bursty — deadline-triggered epochs + backpressure; hot-vertex-skew
// — long DHB rows and unbalanced grid blocks; sliding-window-delete —
// MASK-heavy traffic over the producer's own recent inserts; mixed-read-write
// — point-probe readers racing epoch application; analytics-read —
// weighted inserts plus windowed deletes with frequent reads, where a read
// means "poll the derived analytics" (the driver's on_read typically samples
// analytics::AnalyticsHub snapshots instead of probing the matrix);
// checkpoint-under-load — all three op kinds sustained so the durability
// layer (src/persist/) logs and checkpoints under real write pressure;
// kill-and-recover — deterministic ADD bursts + MASK sweeps whose every
// prefix is exactly regenerable, the stream crash drills kill mid-flight;
// and serving-read-heavy — the query-serving stress (src/serve/): at least
// nine reads per write, read keys zipf-skewed onto a small hot set (real
// query traffic concentrates on celebrities), writes a thin stream of
// uniform ADDs so snapshot versions keep advancing under the readers.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <deque>
#include <optional>
#include <random>
#include <thread>
#include <vector>

#include "stream/update_queue.hpp"

namespace dsg::stream {

enum class Scenario : int {
    SustainedUniform,     ///< steady uniform ADDs
    Bursty,               ///< uniform ADDs in bursts separated by pauses
    HotVertexSkew,        ///< ADD/MERGE concentrated on a small hot row set
    SlidingWindowDelete,  ///< ADD new edges, MASK those older than a window
    MixedReadWrite,       ///< uniform ADDs interleaved with point reads
    AnalyticsRead,        ///< weighted ADDs + windowed MASKs + derived-value reads
    CheckpointUnderLoad,  ///< all three kinds sustained: durability pressure
    KillAndRecover,       ///< deterministic ADD bursts + MASK sweeps, kill-friendly
    ServingReadHeavy,     ///< >= 9:1 zipf-skewed reads : uniform ADD writes
};

[[nodiscard]] constexpr const char* scenario_name(Scenario s) {
    switch (s) {
        case Scenario::SustainedUniform: return "sustained-uniform";
        case Scenario::Bursty: return "bursty";
        case Scenario::HotVertexSkew: return "hot-vertex-skew";
        case Scenario::SlidingWindowDelete: return "sliding-window-delete";
        case Scenario::MixedReadWrite: return "mixed-read-write";
        case Scenario::AnalyticsRead: return "analytics-read";
        case Scenario::CheckpointUnderLoad: return "checkpoint-under-load";
        case Scenario::KillAndRecover: return "kill-and-recover";
        case Scenario::ServingReadHeavy: return "serving-read-heavy";
    }
    return "?";
}

[[nodiscard]] inline const std::vector<Scenario>& all_scenarios() {
    static const std::vector<Scenario> all = {
        Scenario::SustainedUniform,    Scenario::Bursty,
        Scenario::HotVertexSkew,       Scenario::SlidingWindowDelete,
        Scenario::MixedReadWrite,      Scenario::AnalyticsRead,
        Scenario::CheckpointUnderLoad, Scenario::KillAndRecover,
        Scenario::ServingReadHeavy};
    return all;
}

struct WorkloadConfig {
    Scenario scenario = Scenario::SustainedUniform;
    sparse::index_t n = 1024;         ///< square matrix dimension
    std::size_t writes = 10'000;      ///< StreamOps emitted per producer
    std::uint64_t seed = 1;           ///< base seed (combined with producer_id)

    // Scenario knobs (ignored by scenarios they do not apply to).
    std::size_t burst_len = 256;      ///< Bursty: writes per burst
    double hot_fraction = 0.9;        ///< HotVertexSkew: P(row in hot set)
    sparse::index_t hot_rows = 16;    ///< HotVertexSkew: hot-set size
    double merge_fraction = 0.3;      ///< HotVertexSkew: P(MERGE | write)
    std::size_t window = 512;         ///< SlidingWindowDelete/AnalyticsRead: live inserts
    double read_fraction = 0.5;       ///< MixedReadWrite/AnalyticsRead: P(read)
    double zipf_skew = 4.0;           ///< ServingReadHeavy: read-key skew (>= 1;
                                      ///< P(key < t·n) = t^(1/skew), so skew 4
                                      ///< sends ~56% of reads to the top 10%)
};

/// One workload event.
struct Event {
    enum class Type : std::uint8_t {
        Write,  ///< op is a StreamOp to push into the queue
        Read,   ///< op.tuple carries the (row, col) coordinates to probe
        Pause,  ///< burst boundary; the driver may sleep/yield here
    };
    Type type;
    StreamOp<double> op;
};

class WorkloadProducer {
public:
    WorkloadProducer(const WorkloadConfig& cfg, int producer_id)
        : cfg_(cfg),
          rng_(cfg.seed * 0x9e3779b97f4a7c15ull +
               static_cast<std::uint64_t>(producer_id) + 1) {
        assert(cfg_.n > 0);
        // Clamp the knobs into ranges where every scenario makes progress:
        // burst_len/window of 0 would divide by zero / pop an empty window,
        // and read_fraction == 1 would emit reads forever without ever
        // consuming the write budget (next() must terminate).
        cfg_.burst_len = std::max<std::size_t>(1, cfg_.burst_len);
        cfg_.window = std::max<std::size_t>(1, cfg_.window);
        cfg_.hot_fraction = std::clamp(cfg_.hot_fraction, 0.0, 1.0);
        cfg_.merge_fraction = std::clamp(cfg_.merge_fraction, 0.0, 1.0);
        cfg_.read_fraction = std::clamp(cfg_.read_fraction, 0.0, 0.95);
        cfg_.hot_rows = std::max<sparse::index_t>(1, cfg_.hot_rows);
        cfg_.zipf_skew = std::max(1.0, cfg_.zipf_skew);
    }

    [[nodiscard]] const WorkloadConfig& config() const { return cfg_; }

    /// The next event, or nullopt once `writes` write events were emitted.
    std::optional<Event> next() {
        if (writes_emitted_ >= cfg_.writes) return std::nullopt;
        switch (cfg_.scenario) {
            case Scenario::SustainedUniform: return write(uniform_add());
            case Scenario::Bursty: {
                if (writes_emitted_ > 0 && !pause_pending_ &&
                    writes_emitted_ % cfg_.burst_len == 0) {
                    pause_pending_ = true;
                    return Event{Event::Type::Pause, {}};
                }
                pause_pending_ = false;
                return write(uniform_add());
            }
            case Scenario::HotVertexSkew: {
                const sparse::index_t row =
                    chance(cfg_.hot_fraction)
                        ? rand_index(std::min(cfg_.hot_rows, cfg_.n))
                        : rand_index(cfg_.n);
                const OpKind kind =
                    chance(cfg_.merge_fraction) ? OpKind::Merge : OpKind::Add;
                return write({kind, {row, rand_index(cfg_.n), rand_value()}});
            }
            case Scenario::SlidingWindowDelete: {
                if (live_.size() >= cfg_.window && !just_masked_) {
                    // Alternate: retire the oldest live edge of this producer.
                    auto victim = live_.front();
                    live_.pop_front();
                    just_masked_ = true;
                    return write({OpKind::Mask, {victim.row, victim.col, 0.0}});
                }
                just_masked_ = false;
                auto op = uniform_add();
                live_.push_back({op.tuple.row, op.tuple.col});
                return write(op);
            }
            case Scenario::MixedReadWrite: {
                if (chance(cfg_.read_fraction)) {
                    // Probe a previously written coordinate when possible so
                    // reads actually hit; do not consume the write budget.
                    sparse::Triple<double> probe{rand_index(cfg_.n),
                                                 rand_index(cfg_.n), 0.0};
                    if (!live_.empty()) {
                        const auto& c =
                            live_[static_cast<std::size_t>(rng_()) % live_.size()];
                        probe.row = c.row;
                        probe.col = c.col;
                    }
                    return Event{Event::Type::Read, {OpKind::Add, probe}};
                }
                auto op = uniform_add();
                if (live_.size() < 4096) live_.push_back({op.tuple.row, op.tuple.col});
                return write(op);
            }
            case Scenario::AnalyticsRead: {
                // Sustained weighted ingestion with a sliding deletion
                // window, sampled by frequent reads. A read event here means
                // "poll the derived analytics" — the driver's on_read
                // decides what to sample; the carried coordinates are a
                // recently written edge for drivers that also want a point
                // probe. Reads do not consume the write budget.
                if (chance(cfg_.read_fraction)) {
                    sparse::Triple<double> probe{rand_index(cfg_.n),
                                                 rand_index(cfg_.n), 0.0};
                    if (!live_.empty()) {
                        const auto& c =
                            live_[static_cast<std::size_t>(rng_()) % live_.size()];
                        probe.row = c.row;
                        probe.col = c.col;
                    }
                    return Event{Event::Type::Read, {OpKind::Add, probe}};
                }
                if (live_.size() >= cfg_.window && !just_masked_) {
                    auto victim = live_.front();
                    live_.pop_front();
                    just_masked_ = true;
                    return write({OpKind::Mask, {victim.row, victim.col, 0.0}});
                }
                just_masked_ = false;
                StreamOp<double> op{
                    OpKind::Add,
                    {rand_index(cfg_.n), rand_index(cfg_.n), rand_value()}};
                live_.push_back({op.tuple.row, op.tuple.col});
                return write(op);
            }
            case Scenario::CheckpointUnderLoad: {
                // Durability pressure: every op kind, sustained, writes
                // only. The live window keeps the log's MASK share honest
                // (only ever retiring this producer's own inserts), MERGEs
                // re-weight live edges, ADDs grow the matrix — so both the
                // WAL (all three streams per epoch) and the checkpoint (a
                // steadily growing tile) are exercised while the driver
                // runs a small checkpoint stride underneath.
                if (live_.size() >= cfg_.window && !just_masked_) {
                    auto victim = live_.front();
                    live_.pop_front();
                    just_masked_ = true;
                    return write(
                        {OpKind::Mask, {victim.row, victim.col, 0.0}});
                }
                just_masked_ = false;
                if (!live_.empty() && chance(cfg_.merge_fraction)) {
                    const auto& c =
                        live_[static_cast<std::size_t>(rng_()) % live_.size()];
                    return write({OpKind::Merge, {c.row, c.col, rand_value()}});
                }
                StreamOp<double> op{
                    OpKind::Add,
                    {rand_index(cfg_.n), rand_index(cfg_.n), rand_value()}};
                live_.push_back({op.tuple.row, op.tuple.col});
                return write(op);
            }
            case Scenario::ServingReadHeavy: {
                // Query-serving stress: read-dominated (at least 9:1 —
                // read_fraction can only push the ratio HIGHER, up to its
                // 0.95 clamp) with zipf-skewed read keys, so the serving
                // tier sees both a hot cached working set and a cold tail.
                // A read event's coordinates are the query key; the driver
                // decides the query mix (point probe, degree, k-hop,
                // analytics read — src/serve/). Writes are uniform ADDs:
                // enough traffic that epochs apply and snapshot versions
                // advance underneath the readers. Reads do not consume the
                // write budget.
                if (chance(std::max(cfg_.read_fraction, 0.9))) {
                    return Event{Event::Type::Read,
                                 {OpKind::Add,
                                  {zipf_index(cfg_.n), zipf_index(cfg_.n),
                                   0.0}}};
                }
                return write(uniform_add());
            }
            case Scenario::KillAndRecover: {
                // Deterministic phased rounds for crash drills: burst_len
                // weighted ADDs, then a MASK sweep retiring the oldest
                // quarter of the live set. Writes only, no pauses — a
                // driver killed at ANY point leaves a prefix this same
                // producer regenerates exactly, which is what the recovery
                // equivalence tests replay against.
                if (mask_sweep_ > 0 && !live_.empty()) {
                    --mask_sweep_;
                    auto victim = live_.front();
                    live_.pop_front();
                    return write(
                        {OpKind::Mask, {victim.row, victim.col, 0.0}});
                }
                mask_sweep_ = 0;
                if (phase_pos_ >= cfg_.burst_len) {
                    phase_pos_ = 0;
                    mask_sweep_ = live_.size() / 4;
                }
                ++phase_pos_;
                StreamOp<double> op{
                    OpKind::Add,
                    {rand_index(cfg_.n), rand_index(cfg_.n), rand_value()}};
                live_.push_back({op.tuple.row, op.tuple.col});
                return write(op);
            }
        }
        return std::nullopt;
    }

    /// Collects just the write ops of the remaining sequence — the sequential
    /// reference an engine test replays against the concurrent run.
    [[nodiscard]] std::vector<StreamOp<double>> remaining_writes() {
        std::vector<StreamOp<double>> out;
        out.reserve(cfg_.writes - writes_emitted_);
        while (auto ev = next())
            if (ev->type == Event::Type::Write) out.push_back(ev->op);
        return out;
    }

private:
    struct Coord {
        sparse::index_t row, col;
    };

    Event write(const StreamOp<double>& op) {
        ++writes_emitted_;
        return {Event::Type::Write, op};
    }
    StreamOp<double> uniform_add() {
        return {OpKind::Add, {rand_index(cfg_.n), rand_index(cfg_.n), 1.0}};
    }
    sparse::index_t rand_index(sparse::index_t n) {
        return static_cast<sparse::index_t>(rng_() %
                                            static_cast<std::uint64_t>(n));
    }
    /// Zipf-like skewed index: u^skew concentrates mass near 0, giving the
    /// power-law key popularity serving workloads see (exact Zipf sampling
    /// needs a harmonic-number table; this one-liner preserves the property
    /// the serving layer cares about — a small hot set absorbing most
    /// reads — and stays deterministic and O(1)).
    sparse::index_t zipf_index(sparse::index_t n) {
        const double u =
            std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
        const auto idx = static_cast<sparse::index_t>(
            std::pow(u, cfg_.zipf_skew) * static_cast<double>(n));
        return std::min(idx, n - 1);
    }
    double rand_value() {
        return 1.0 + static_cast<double>(rng_() % 1000) / 1000.0;
    }
    bool chance(double p) {
        return std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < p;
    }

    WorkloadConfig cfg_;
    std::mt19937_64 rng_;
    std::size_t writes_emitted_ = 0;
    bool pause_pending_ = false;
    bool just_masked_ = false;
    std::size_t phase_pos_ = 0;   // KillAndRecover: position within a burst
    std::size_t mask_sweep_ = 0;  // KillAndRecover: MASKs left in the sweep
    std::deque<Coord> live_;
};

/// The canonical producer-thread body: pumps one producer's events into an
/// engine's queue — writes push (blocking on backpressure), reads invoke
/// on_read(row, col) (callers typically probe engine.with_snapshot), pauses
/// yield — and returns the producer token when the source is exhausted.
/// Templated on the engine so this header stays semiring-agnostic.
template <typename Engine, typename OnRead>
void drive_producer(Engine& engine, WorkloadProducer producer,
                    OnRead&& on_read) {
    while (auto ev = producer.next()) {
        switch (ev->type) {
            case Event::Type::Write:
                engine.queue().push(ev->op);
                break;
            case Event::Type::Read:
                on_read(ev->op.tuple.row, ev->op.tuple.col);
                break;
            case Event::Type::Pause:
                std::this_thread::yield();
                break;
        }
    }
    engine.queue().producer_done();
}

/// One rank's producer fleet: registers all `producers` before any starts
/// (so the queue cannot close early), runs WorkloadProducer(wl, p) through
/// drive_producer on thread p with reads going to on_read(p, row, col),
/// pumps engine.run() on the calling rank thread, then joins. Collective,
/// as engine.run() is.
template <typename Engine, typename OnRead>
void run_producers(Engine& engine, const WorkloadConfig& wl, int producers,
                   OnRead&& on_read) {
    for (int p = 0; p < producers; ++p) engine.queue().register_producer();
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p)
        threads.emplace_back([&, p] {
            drive_producer(engine, WorkloadProducer(wl, p),
                           [&](sparse::index_t row, sparse::index_t col) {
                               on_read(p, row, col);
                           });
        });
    engine.run();
    for (auto& t : threads) t.join();
}

}  // namespace dsg::stream
