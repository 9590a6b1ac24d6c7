// Anomaly watchdog: declarative threshold/rate rules evaluated over
// registry snapshots, emitting structured events into an obs::EventLog.
//
// A Rule names a metric family (exact key, or a prefix matching every
// labelled instance — "stream_queue_depth" matches
// "stream_queue_depth{rank=2}"), a predicate over the family's snapshot
// value (gauge above/below, counter rate above, histogram field above),
// and hysteresis: the predicate must hold for `for_ticks` consecutive
// evaluations to fire, and release for `clear_ticks` to clear — so a
// single noisy tick neither pages nor flaps. Each transition appends one
// Event (firing at the rule's severity, clearing at Info).
//
// The evaluator is deterministic and snapshot-driven — evaluate(snapshot)
// is the unit the tests feed synthetic registry states — with a background
// thread (start()/stop(), exporter-style) for production wiring. The
// exporter drains the EventLog to JSONL next to the metrics stream, so the
// CI observability job can assert "the induced checkpoint stall produced a
// watchdog event".
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/event_log.hpp"
#include "obs/metrics.hpp"

namespace dsg::obs {

/// What a rule compares against its threshold.
enum class RuleKind : int {
    GaugeAbove,        ///< max over matching gauges > threshold
    GaugeBelow,        ///< min over matching gauges < threshold
    CounterRateAbove,  ///< d(sum over matching counters)/dt [1/s] > threshold
    HistAbove,         ///< max over matching histograms' `field` > threshold
};

/// Which summary field a HistAbove rule reads.
enum class HistField : int { P50, P90, P99, P999, Max, Mean };

/// One declarative watchdog rule.
struct Rule {
    std::string name;    ///< event identity, e.g. "snapshot-lag-ceiling"
    std::string metric;  ///< registry key or family prefix (labels ignored)
    RuleKind kind = RuleKind::GaugeAbove;
    double threshold = 0.0;
    HistField field = HistField::P99;  ///< HistAbove only
    int for_ticks = 1;    ///< consecutive breaching ticks before firing
    int clear_ticks = 1;  ///< consecutive calm ticks before clearing
    Severity severity = Severity::Warning;
};

/// The stock rule set covering the failure modes each layer already
/// exposes through the registry. `queue_capacity` should match the stream
/// engine's per-rank queue bound (rules fire at 90% occupancy).
inline std::vector<Rule> default_rules(std::size_t queue_capacity = 1 << 15) {
    std::vector<Rule> rules;
    rules.push_back({"epoch-drain-stall", "stream_epoch_drain_ns",
                     RuleKind::HistAbove, 500e6, HistField::P99, 2, 2,
                     Severity::Warning});
    rules.push_back({"queue-saturation", "stream_queue_depth",
                     RuleKind::GaugeAbove,
                     0.9 * static_cast<double>(queue_capacity), HistField::P99,
                     2, 2, Severity::Warning});
    rules.push_back({"shed-burst", "serve_query_shed",
                     RuleKind::CounterRateAbove, 100.0, HistField::P99, 1, 2,
                     Severity::Warning});
    rules.push_back({"wal-fsync-spike", "persist_wal_fsync_ns",
                     RuleKind::HistAbove, 100e6, HistField::P99, 1, 2,
                     Severity::Warning});
    rules.push_back({"snapshot-lag-ceiling", "serve_snapshot_lag",
                     RuleKind::GaugeAbove, 8.0, HistField::P99, 2, 2,
                     Severity::Critical});
    // Federated snapshots only (obs/federate.hpp): sustained max/mean skew
    // of applied work across ranks. In a non-federated registry the family
    // never exists, so the rule sits calm — safe in the default set.
    rules.push_back({"rank-load-imbalance", "stream_ops_applied_rank_imbalance",
                     RuleKind::GaugeAbove, 2.0, HistField::P99, 3, 2,
                     Severity::Warning});
    return rules;
}

class Watchdog {
public:
    struct Config {
        std::chrono::milliseconds interval{500};  ///< background tick period
        bool background = false;  ///< spawn the evaluator thread on start()
    };

    Watchdog(Registry& reg, EventLog& log, std::vector<Rule> rules)
        : Watchdog(reg, log, std::move(rules), Config{}) {}

    Watchdog(Registry& reg, EventLog& log, std::vector<Rule> rules,
             Config cfg)
        : reg_(reg), log_(log), cfg_(cfg) {
        for (Rule& r : rules) states_.push_back(State{std::move(r)});
        if (cfg_.background) start();
    }

    ~Watchdog() { stop(); }
    Watchdog(const Watchdog&) = delete;
    Watchdog& operator=(const Watchdog&) = delete;

    /// Snapshots the registry and evaluates every rule once on the calling
    /// thread. Returns the number of events emitted.
    std::size_t evaluate_now() { return evaluate(reg_.snapshot()); }

    /// Evaluates every rule against `snap` (deterministic; the unit tests
    /// drive this directly with synthetic snapshots). Counter rates use
    /// snap.ts_ms deltas between consecutive calls.
    std::size_t evaluate(const MetricsSnapshot& snap) {
        std::size_t emitted = 0;
        for (State& st : states_) emitted += evaluate_rule(st, snap);
        return emitted;
    }

    /// True while the named rule is in the fired state.
    [[nodiscard]] bool firing(std::string_view rule) const {
        for (const State& st : states_)
            if (st.rule.name == rule) return st.firing;
        return false;
    }

    void start() {
        if (thread_.joinable()) return;
        stop_ = false;
        thread_ = std::thread([this] { loop(); });
    }

    void stop() {
        if (!thread_.joinable()) return;
        {
            std::lock_guard lock(mx_);
            stop_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

private:
    struct State {
        Rule rule;
        int breach_ticks = 0;
        int calm_ticks = 0;
        bool firing = false;
        // CounterRateAbove: previous sum + timestamp.
        double last_value = 0.0;
        std::int64_t last_ts_ms = 0;
        bool has_last = false;
    };

    /// Does `key` belong to the rule's metric family?
    static bool matches(const std::string& key, const std::string& metric) {
        if (key == metric) return true;
        return key.size() > metric.size() + 1 &&
               key.compare(0, metric.size(), metric) == 0 &&
               key[metric.size()] == '{';
    }

    static double hist_field(const HistogramSummary& h, HistField f) {
        switch (f) {
            case HistField::P50: return h.p50;
            case HistField::P90: return h.p90;
            case HistField::P99: return h.p99;
            case HistField::P999: return h.p999;
            case HistField::Max: return h.max;
            case HistField::Mean: return h.mean;
        }
        return 0.0;
    }

    /// Extracts the rule's observed value from `snap`. Returns false when
    /// no instrument of the family exists yet (treated as a calm tick).
    bool observe(State& st, const MetricsSnapshot& snap, double& value) {
        const Rule& r = st.rule;
        bool found = false;
        switch (r.kind) {
            case RuleKind::GaugeAbove:
            case RuleKind::GaugeBelow:
                for (const auto& [key, v] : snap.gauges)
                    if (matches(key, r.metric)) {
                        value = found ? (r.kind == RuleKind::GaugeAbove
                                             ? std::max(value, v)
                                             : std::min(value, v))
                                      : v;
                        found = true;
                    }
                return found;
            case RuleKind::CounterRateAbove: {
                double sum = 0.0;
                for (const auto& [key, v] : snap.counters)
                    if (matches(key, r.metric)) {
                        sum += static_cast<double>(v);
                        found = true;
                    }
                if (!found) return false;
                const bool had = st.has_last;
                const double prev = st.last_value;
                const std::int64_t prev_ts = st.last_ts_ms;
                st.last_value = sum;
                st.last_ts_ms = snap.ts_ms;
                st.has_last = true;
                if (!had || snap.ts_ms <= prev_ts) return false;
                value = (sum - prev) * 1e3 /
                        static_cast<double>(snap.ts_ms - prev_ts);
                return true;
            }
            case RuleKind::HistAbove:
                for (const auto& [key, h] : snap.histograms)
                    if (matches(key, r.metric)) {
                        const double v = hist_field(h, r.field);
                        value = found ? std::max(value, v) : v;
                        found = true;
                    }
                return found;
        }
        return false;
    }

    std::size_t evaluate_rule(State& st, const MetricsSnapshot& snap) {
        const Rule& r = st.rule;
        double value = 0.0;
        bool breached = false;
        if (observe(st, snap, value))
            breached = r.kind == RuleKind::GaugeBelow ? value < r.threshold
                                                      : value > r.threshold;
        std::size_t emitted = 0;
        if (breached) {
            ++st.breach_ticks;
            st.calm_ticks = 0;
            if (!st.firing && st.breach_ticks >= r.for_ticks) {
                st.firing = true;
                Event e;
                e.ts_ms = snap.ts_ms;
                e.severity = r.severity;
                e.rule = r.name;
                e.metric = r.metric;
                e.value = value;
                e.threshold = r.threshold;
                e.message = r.name + " fired: " + r.metric + " breached " +
                            std::to_string(r.threshold) + " for " +
                            std::to_string(st.breach_ticks) + " tick(s)";
                log_.append(std::move(e));
                ++emitted;
            }
        } else {
            ++st.calm_ticks;
            st.breach_ticks = 0;
            if (st.firing && st.calm_ticks >= r.clear_ticks) {
                st.firing = false;
                Event e;
                e.ts_ms = snap.ts_ms;
                e.severity = Severity::Info;
                e.rule = r.name;
                e.metric = r.metric;
                e.value = value;
                e.threshold = r.threshold;
                e.message = r.name + " cleared";
                log_.append(std::move(e));
                ++emitted;
            }
        }
        return emitted;
    }

    void loop() {
        std::unique_lock lock(mx_);
        while (!stop_) {
            lock.unlock();
            evaluate_now();
            lock.lock();
            cv_.wait_for(lock, cfg_.interval, [this] { return stop_; });
        }
    }

    Registry& reg_;
    EventLog& log_;
    Config cfg_;
    std::vector<State> states_;

    std::mutex mx_;
    std::condition_variable cv_;
    bool stop_ = false;
    std::thread thread_;
};

}  // namespace dsg::obs
