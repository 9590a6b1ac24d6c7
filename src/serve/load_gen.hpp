// Coordinated-omission-safe paced load generator for the serving tier.
//
// The classic closed-loop benchmark bug: issue a query, wait for the
// answer, issue the next. An overloaded server then slows the GENERATOR
// down, the arrival schedule silently re-anchors, and the measured
// latency distribution omits exactly the waiting the clients would have
// experienced (Tene's "coordinated omission"). This generator instead
// fixes the arrival schedule up front — arrival k is due at
// t0 + k/target_qps, period — and measures every query's latency FROM ITS
// SCHEDULED ARRIVAL: if submit() itself stalls, the stall lands in the
// measured latency of every query scheduled behind it, exactly as a
// client queue would experience it. tests/serve/test_load_gen.cpp proves
// the schedule doesn't slip under a deliberately slow executor.
//
// The report carries on-arrival p50/p99/p999 plus per-class SLO-violation
// counts (a shed or expired query is always a violation — the client got
// no answer within the SLO either way). bench_slo_serving.cpp emits these
// as DSG_BENCH_JSON; scripts/slo-gate.py gates CI on them.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <thread>
#include <utility>
#include <vector>

#include "serve/query_types.hpp"

namespace dsg::serve {

struct LoadGenConfig {
    double target_qps = 1000.0;  ///< fixed arrival rate (this generator)
    std::size_t total = 1000;    ///< arrivals to schedule
    double slo_ms = 10.0;        ///< on-arrival latency SLO
    /// Optional early-stop flag (checked between arrivals); the schedule of
    /// already-issued arrivals is unaffected.
    const std::atomic<bool>* stop = nullptr;
};

/// What one paced run measured. Latency percentiles are on-arrival
/// (scheduled arrival -> completion) over served queries; shed/expired
/// queries count as SLO violations but not toward the percentiles.
struct LoadGenReport {
    std::uint64_t issued = 0;     ///< arrivals actually submitted
    std::uint64_t served = 0;     ///< completed with an answer (or NotFound)
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t cache_hits = 0;
    double p50_ms = 0, p99_ms = 0, p999_ms = 0, max_ms = 0;
    std::uint64_t slo_violations = 0;  ///< sum of the per-class counts
    std::array<std::uint64_t, kQueryKindCount> violations_by_class{};
    double achieved_qps = 0;  ///< issued / wall-clock of the pacing loop
    /// Worst lateness of an actual submit behind its scheduled arrival —
    /// grows under an overloaded executor precisely BECAUSE the schedule
    /// does not re-anchor (≈0 would mean coordinated omission).
    double max_submit_lateness_ms = 0;
    double duration_ms = 0;

    [[nodiscard]] double violation_rate() const {
        return issued > 0 ? static_cast<double>(slo_violations) /
                                static_cast<double>(issued)
                          : 0.0;
    }
};

namespace detail {

inline double percentile_of(std::vector<double>& sorted_ms, double q) {
    if (sorted_ms.empty()) return 0.0;
    const auto idx = static_cast<std::size_t>(
        q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
    return sorted_ms[std::min(idx, sorted_ms.size() - 1)];
}

}  // namespace detail

/// The mixed query rotation: the k-th read at (row, col) is edge-exists,
/// degree, 2-hop or the triangle count by k mod 4.
inline Query mixed_query(std::uint64_t k, sparse::index_t row,
                         sparse::index_t col) {
    switch (k % 4) {
        case 0: return {QueryKind::EdgeExists, row, col, 1, ""};
        case 1: return {QueryKind::Degree, row, 0, 1, ""};
        case 2: return {QueryKind::KHop, row, 0, 2, ""};
        default: return {QueryKind::AnalyticsRead, 0, 0, 1, "triangles"};
    }
}

/// The paced client's k-th query over an n-vertex graph: the mixed rotation
/// at keys walked pseudo-randomly, so cache hits come from key reuse, not
/// a degenerate single key.
inline Query paced_query(std::uint64_t k, sparse::index_t n) {
    const std::uint64_t x = k * 6364136223846793005ull + 1442695040888963407ull;
    const auto un = static_cast<std::uint64_t>(n);
    return mixed_query(k, static_cast<sparse::index_t>((x >> 17) % un),
                       static_cast<sparse::index_t>((x >> 41) % un));
}

/// Runs one paced load against `ex` (anything with
/// submit(Query) -> std::future<QueryResult>; normally a QueryExecutor).
/// `make(k)` produces the k-th query. Blocks until every issued query
/// completed.
template <typename Executor, typename MakeQuery>
LoadGenReport run_paced(Executor& ex, const LoadGenConfig& cfg,
                        MakeQuery&& make) {
    using Clock = std::chrono::steady_clock;
    LoadGenReport rep;
    const double qps = cfg.target_qps > 0 ? cfg.target_qps : 1.0;
    const auto gap = std::chrono::nanoseconds(
        static_cast<std::int64_t>(1e9 / qps));

    struct InFlight {
        std::future<QueryResult> future;
        QueryKind kind;
        double overhang_ms;  ///< scheduled arrival -> actual submit entry
    };
    std::deque<InFlight> inflight;
    std::vector<double> latencies_ms;
    latencies_ms.reserve(cfg.total);

    auto account = [&](InFlight& f) {
        const QueryResult r = f.future.get();
        // On-arrival latency: the executor measures submit entry ->
        // completion; add the submit overhang so time spent stuck BEFORE
        // the executor (the coordinated-omission component) counts too.
        const double ms = f.overhang_ms + r.latency_us * 1e-3;
        bool violated = ms > cfg.slo_ms;
        switch (r.status) {
            case QueryStatus::Shed:
                ++rep.shed;
                violated = true;
                break;
            case QueryStatus::Expired:
                ++rep.expired;
                violated = true;
                break;
            default:
                ++rep.served;
                if (r.status == QueryStatus::Ok) ++rep.ok;
                if (r.cache_hit) ++rep.cache_hits;
                latencies_ms.push_back(ms);
                break;
        }
        if (violated) {
            ++rep.slo_violations;
            ++rep.violations_by_class[static_cast<std::size_t>(f.kind)];
        }
    };

    const auto t0 = Clock::now();
    for (std::size_t k = 0; k < cfg.total; ++k) {
        if (cfg.stop != nullptr &&
            cfg.stop->load(std::memory_order_relaxed))
            break;
        // The fixed schedule: arrival k is due at t0 + k*gap regardless of
        // how long any previous submit took. Never re-anchored.
        const auto scheduled = t0 + gap * static_cast<std::int64_t>(k);
        std::this_thread::sleep_until(scheduled);
        Query q = make(k);
        const QueryKind kind = q.kind;
        const double overhang_ms =
            std::max(0.0, std::chrono::duration<double, std::milli>(
                              Clock::now() - scheduled)
                              .count());
        rep.max_submit_lateness_ms =
            std::max(rep.max_submit_lateness_ms, overhang_ms);
        inflight.push_back({ex.submit(std::move(q)), kind, overhang_ms});
        ++rep.issued;
        // Opportunistic harvest keeps the in-flight window small without
        // ever blocking the pacing loop.
        while (!inflight.empty() &&
               inflight.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            account(inflight.front());
            inflight.pop_front();
        }
    }
    rep.duration_ms =
        std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
    for (InFlight& f : inflight) account(f);  // blocking tail harvest

    std::sort(latencies_ms.begin(), latencies_ms.end());
    rep.p50_ms = detail::percentile_of(latencies_ms, 0.50);
    rep.p99_ms = detail::percentile_of(latencies_ms, 0.99);
    rep.p999_ms = detail::percentile_of(latencies_ms, 0.999);
    rep.max_ms = latencies_ms.empty() ? 0.0 : latencies_ms.back();
    rep.achieved_qps = rep.duration_ms > 0
                           ? static_cast<double>(rep.issued) * 1e3 /
                                 rep.duration_ms
                           : 0.0;
    return rep;
}

}  // namespace dsg::serve
