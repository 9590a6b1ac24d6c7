#include "harness.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <unordered_map>

#include "graph/generators.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using dsg::par::Comm;
using dsg::par::Phase;
using dsg::par::Profiler;

namespace {

// A run never starts a round after this much wall time, so the process ends
// within three minutes whatever --seconds asks for.
constexpr double kWallLimitS = 120.0;
// Rounds measured at least, whatever --seconds asks for.
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMinTracedRounds = 2;

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string object(const std::map<std::string, double>& m) {
    std::string out = "{";
    for (const auto& [k, v] : m) {
        if (out.size() > 1) out += ", ";
        out += quote(k) + ": " + num(v);
    }
    return out + "}";
}

/// Lowers the process's resident-set high-water mark to its current RSS,
/// after handing freed heap back to the OS, so that a later read sees only
/// what was resident from now on. Where /proc/self/clear_refs cannot be
/// written the mark stays the process lifetime peak.
void reset_peak_rss() {
    malloc_trim(0);
    if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
        std::fputs("5", f);
        std::fclose(f);
    }
}

/// The resident-set high-water mark (VmHWM) in MiB; 0 if unreadable.
double peak_rss_mib() {
    double kib = 0;
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        while (std::fgets(line, sizeof line, f))
            if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
        std::fclose(f);
    }
    return kib / 1024.0;
}

const Clock::time_point g_start = Clock::now();

}  // namespace

double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

std::vector<Triple<double>> rmat_unique(int scale, std::size_t count,
                                        std::uint64_t seed, bool undirected) {
    const dsg::sparse::IndexPermutation perm(index_t{1} << scale, seed);
    std::vector<Triple<double>> out;
    for (std::uint64_t batch = 1; out.size() < count; ++batch) {
        // What is still missing, plus a quarter for duplicates and loops.
        auto more = dsg::graph::rmat_edges(scale, (count - out.size()) * 5 / 4 + 16,
                                           seed * 1000 + batch);
        for (auto& e : more) {
            e.row = perm(e.row);
            e.col = perm(e.col);
            if (undirected && e.row > e.col) std::swap(e.row, e.col);
            e.value = 1.0;
        }
        out.insert(out.end(), more.begin(), more.end());
        out = dsg::graph::simplify(std::move(out));
    }
    out.resize(count);
    return out;
}

double world_sum(Comm& world, double v) {
    return world.allreduce<double>(v, [](double a, double b) { return a + b; });
}

TraceTotals analyze_trace(const dsg::par::TraceDump& dump) {
    TraceTotals t;
    t.dropped = dump.dropped;
    t.spans = dump.spans.size();
    std::unordered_map<std::uint32_t, std::vector<const dsg::par::TraceSpan*>>
        by_thread;
    for (const auto& s : dump.spans)
        if (s.rank >= 0) by_thread[s.tid].push_back(&s);
    for (auto& [tid, spans] : by_thread) {
        // Scopes of one thread nest properly: order by start, outer first.
        std::sort(spans.begin(), spans.end(), [](auto* a, auto* b) {
            if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
            return a->dur_ns > b->dur_ns;
        });
        struct Open {
            const dsg::par::TraceSpan* span;
            std::uint64_t end;
            std::uint64_t child_ns;
        };
        std::vector<Open> stack;
        auto close = [&](const Open& o) {
            const double self_ms =
                static_cast<double>(o.span->dur_ns - std::min(o.child_ns,
                                                              o.span->dur_ns)) *
                1e-6;
            if (o.span->phase == Phase::Analytics) t.analytics_self_ms += self_ms;
            if (o.span->phase == Phase::StreamApply)
                t.stream_apply_ms += static_cast<double>(o.span->dur_ns) * 1e-6;
        };
        for (const auto* s : spans) {
            const std::uint64_t end = s->start_ns + s->dur_ns;
            while (!stack.empty() && stack.back().end <= s->start_ns) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty()) {
                stack.back().child_ns += s->dur_ns;
                if (stack.back().span->phase == Phase::StreamApply &&
                    s->phase == Phase::LocalAddition)
                    t.stream_apply_local_ms +=
                        static_cast<double>(s->dur_ns) * 1e-6;
            }
            stack.push_back({s, end, 0});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    return t;
}

Runner::Runner(Options opts) : opts_(std::move(opts)) {
    // Rings are sized when a thread first emits; rank threads live for the
    // whole run, so one ring per thread holds a traced round.
    if (opts_.trace) Profiler::set_trace_capacity(std::size_t{1} << 17);
}

Runner::Stage Runner::next_stage() const {
    if (done_.empty()) return Stage::Warmup;
    double measured_s = 0, traced_s = 0;
    std::size_t measured = 0, traced = 0;
    for (const Round& r : done_) {
        if (!r.error.empty()) return Stage::Done;
        if (r.warmup) continue;
        if (r.traced) {
            traced_s += r.timed_s;
            ++traced;
        } else {
            measured_s += r.timed_s;
            ++measured;
        }
    }
    if (std::chrono::duration<double>(Clock::now() - g_start).count() >
        kWallLimitS)
        return Stage::Done;
    const double budget = opts_.trace ? opts_.seconds / 2 : opts_.seconds;
    if (measured < (opts_.trace ? kMinTracedRounds : kMinRounds) ||
        measured_s < budget)
        return Stage::Measure;
    if (opts_.trace && (traced < kMinTracedRounds || traced_s < budget))
        return Stage::Traced;
    return Stage::Done;
}

bool Runner::begin_round(Comm& world) {
    world.barrier();
    if (world.rank() == 0) {
        stage_ = next_stage();
        cur_ = Round{};
        cur_.warmup = stage_ == Stage::Warmup;
        cur_.traced = stage_ == Stage::Traced;
    }
    world.barrier();
    return stage_ != Stage::Done;
}

void Runner::begin_setup(Comm& world) {
    world.barrier();
    if (world.rank() == 0) setup_t0_ = Clock::now();
}

void Runner::end_setup(Comm& world) {
    world.barrier();
    if (world.rank() == 0)
        cur_.setup_s = ms_between(setup_t0_, Clock::now()) * 1e-3;
}

void Runner::begin_timed(Comm& world) {
    world.barrier();
    if (world.rank() == 0) {
        comm0_ = world.stats().snapshot();
        if (cur_.traced) {
            Profiler::reset();
            Profiler::clear_trace();
            Profiler::set_enabled(true);
            Profiler::set_trace_enabled(true);
        }
    }
    world.barrier();
    if (world.rank() == 0) {
        reset_peak_rss();
        timed_t0_ = Clock::now();
    }
}

void Runner::end_timed(Comm& world) {
    world.barrier();
    if (world.rank() == 0) {
        cur_.timed_s = ms_between(timed_t0_, Clock::now()) * 1e-3;
        cur_.peak_rss_mib = peak_rss_mib();
        const auto c1 = world.stats().snapshot();
        auto& d = cur_.comm;
        d.p2p_messages = c1.p2p_messages - comm0_.p2p_messages;
        d.p2p_bytes = c1.p2p_bytes - comm0_.p2p_bytes;
        d.bcast_bytes = c1.bcast_bytes - comm0_.bcast_bytes;
        d.alltoall_bytes = c1.alltoall_bytes - comm0_.alltoall_bytes;
        d.reduce_bytes = c1.reduce_bytes - comm0_.reduce_bytes;
        d.gather_bytes = c1.gather_bytes - comm0_.gather_bytes;
        d.barriers = c1.barriers - comm0_.barriers;
        d.collectives = c1.collectives - comm0_.collectives;
        d.async_posted = c1.async_posted - comm0_.async_posted;
        d.async_completed = c1.async_completed - comm0_.async_completed;
        auto& c = cur_.counts;
        c["comm_bytes"] = static_cast<double>(d.total_bytes());
        c["alltoall_bytes"] = static_cast<double>(d.alltoall_bytes);
        c["bcast_bytes"] = static_cast<double>(d.bcast_bytes);
        c["reduce_bytes"] = static_cast<double>(d.reduce_bytes);
        c["gather_bytes"] = static_cast<double>(d.gather_bytes);
        c["p2p_bytes"] = static_cast<double>(d.p2p_bytes);
        c["collectives"] = static_cast<double>(d.collectives);
        if (cur_.traced) {
            Profiler::set_enabled(false);
            Profiler::set_trace_enabled(false);
            phase_ms_.clear();
            for (std::size_t p = 0; p < dsg::par::kPhaseCount; ++p)
                phase_ms_[static_cast<Phase>(p)] =
                    Profiler::total_seconds(static_cast<Phase>(p)) * 1e3;
            auto dump = Profiler::collect_trace();
            trace_ = analyze_trace(dump);
            if (!opts_.trace_out.empty()) {
                const std::string json = dsg::obs::to_chrome_trace(std::move(dump));
                if (std::FILE* f = std::fopen(opts_.trace_out.c_str(), "w")) {
                    std::fwrite(json.data(), 1, json.size(), f);
                    std::fclose(f);
                } else {
                    cur_.error = "cannot write trace file " + opts_.trace_out;
                }
            }
        }
    }
    world.barrier();
}

void record_phase_layers(Runner& run, double per) {
    if (!run.traced()) return;
    auto& layer = run.round().layer;
    const std::pair<const char*, Phase> phases[] = {
        {"core.send_recv_ms", Phase::SendRecv},
        {"core.local_mult_ms", Phase::LocalMult},
        {"core.scatter_ms", Phase::Scatter},
        {"core.reduce_scatter_ms", Phase::ReduceScatter},
        {"core.bcast_ms", Phase::Bcast},
        {"core.local_add_ms", Phase::LocalAddition},
        {"core.redist_sort_ms", Phase::RedistSort},
        {"core.redist_comm_ms", Phase::RedistComm},
        {"core.local_construct_ms", Phase::LocalConstruct},
    };
    for (const auto& [name, phase] : phases) layer[name] = run.phase_ms(phase) / per;
    const TraceTotals& t = run.trace_totals();
    if (t.stream_apply_ms > 0) {
        // Engine workloads: the epoch apply is A* construction plus the
        // local ADD/MERGE/MASK application (its LocalAddition children).
        layer["core.build_update_ms"] =
            (t.stream_apply_ms - t.stream_apply_local_ms) / per;
        layer["core.apply_ms"] = t.stream_apply_local_ms / per;
    }
    if (t.analytics_self_ms > 0)
        layer["analytics.unattributed_ms"] = t.analytics_self_ms / per;
    layer["tracing.spans"] = static_cast<double>(t.spans);
    layer["tracing.dropped_spans"] = static_cast<double>(t.dropped);
}

double Runner::phase_ms(Phase p) const {
    const auto it = phase_ms_.find(p);
    return it == phase_ms_.end() ? 0.0 : it->second;
}

void Runner::end_round(Comm& world) {
    world.barrier();
    if (world.rank() == 0) {
        std::fprintf(stderr,
                     "round %zu%s: setup %.3f s, %llu steps in %.3f s, "
                     "p50 %.3f p90 %.3f ms, peak rss %.1f MiB%s%s\n",
                     done_.size(),
                     cur_.warmup ? " (warm-up)" : cur_.traced ? " (traced)" : "",
                     cur_.setup_s, static_cast<unsigned long long>(cur_.steps),
                     cur_.timed_s, median(cur_.step_ms), quantile(cur_.step_ms, 0.9),
                     cur_.peak_rss_mib,
                     cur_.error.empty() ? "" : ", CHECK FAILED: ",
                     cur_.error.c_str());
        done_.push_back(std::move(cur_));
        cur_ = Round{};
    }
    world.barrier();
}

std::string Runner::summary_json() const {
    std::string error;
    std::uint64_t attempted = 0, failed = 0;
    for (const Round& r : done_) {
        attempted += r.attempted;
        failed += r.failed;
        if (error.empty() && !r.error.empty()) error = r.error;
    }
    // Exact-repeat self-check: every round replays the same seed.
    if (error.empty() && !done_.empty()) {
        for (const Round& r : done_) {
            for (const auto& [k, v] : done_.front().counts) {
                const auto it = r.counts.find(k);
                if (it == r.counts.end() || it->second != v) {
                    error = "count '" + k + "' drifted across rounds of one "
                            "seed (" + num(v) + " vs " +
                            (it == r.counts.end() ? "missing" : num(it->second)) +
                            ")";
                    break;
                }
            }
            if (!error.empty()) break;
        }
    }
    if (!error.empty()) failed = attempted;

    std::vector<const Round*> measured, traced;
    for (const Round& r : done_) {
        if (r.warmup) continue;
        (r.traced ? traced : measured).push_back(&r);
    }
    // The host's speed drifts by tens of percent from second to second, so
    // every figure is taken over all measured rounds of the run: a statistic
    // of a chosen subset (say the quietest rounds) repeats worse from run to
    // run than one of the whole run.
    auto pooled = [](const std::vector<const Round*>& rs) {
        std::vector<double> v;
        for (const Round* r : rs) v.insert(v.end(), r->step_ms.begin(), r->step_ms.end());
        return v;
    };
    // Rate as the median of per-round rates, so one slow round weighs no
    // more than one fast one.
    auto rate = [](const std::vector<const Round*>& rs) {
        std::vector<double> v;
        for (const Round* r : rs)
            if (r->timed_s > 0) v.push_back(static_cast<double>(r->ops) / r->timed_s);
        return median(v);
    };

    std::map<std::string, double> e2e, layer;
    {
        // Latency quantiles over the pooled steps, set-up time, rate and peak
        // memory as medians over rounds; bytes (exact) summed over rounds.
        const auto steps = pooled(measured);
        std::vector<double> setups, rss;
        double ops = 0, bytes = 0;
        for (const Round* r : measured) {
            setups.push_back(r->setup_s);
            rss.push_back(r->peak_rss_mib);
            ops += static_cast<double>(r->ops);
            bytes += static_cast<double>(r->comm.total_bytes());
        }
        e2e["setup_s"] = median(setups);
        e2e["update_ops_per_s"] = rate(measured);
        e2e["update_p50_ms"] = quantile(steps, 0.5);
        e2e["update_p90_ms"] = quantile(steps, 0.9);
        e2e["comm_bytes_per_update"] = ops > 0 ? bytes / ops : 0.0;
        e2e["peak_rss_mib"] = median(rss);
        layer["update_samples"] = static_cast<double>(steps.size());
        layer["update_rounds"] = static_cast<double>(measured.size());
    }
    {
        // Per-layer values: medians over the traced rounds (over the
        // measured rounds in an untraced run, for the outside timings).
        const auto& src = traced.empty() ? measured : traced;
        std::map<std::string, std::vector<double>> vals;
        for (const Round* r : src) {
            for (const auto& [k, v] : r->layer) vals[k].push_back(v);
            auto per = [&](const char* name, std::uint64_t v, std::uint64_t n) {
                vals[name].push_back(static_cast<double>(v) /
                                     static_cast<double>(std::max<std::uint64_t>(n, 1)));
            };
            const auto& c = r->comm;
            per("par.bytes_alltoall_per_update", c.alltoall_bytes, r->ops);
            per("par.bytes_bcast_per_update", c.bcast_bytes, r->ops);
            per("par.bytes_reduce_per_update", c.reduce_bytes, r->ops);
            per("par.bytes_gather_per_update", c.gather_bytes, r->ops);
            per("par.bytes_p2p_per_update", c.p2p_bytes, r->ops);
            per("par.collectives_per_step", c.collectives, r->steps);
        }
        for (const auto& [k, v] : vals) layer[k] = median(v);
        // Traced vs untraced update_p50_ms.
        const double base = quantile(pooled(measured), 0.5);
        const double with = quantile(pooled(traced), 0.5);
        layer["tracing.overhead_ratio"] = base > 0 && !traced.empty() ? with / base : 0.0;
    }

    std::string out = "{\"correct\": ";
    out += error.empty() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"error\": " + quote(error);
    out += ", \"e2e\": " + object(e2e);
    out += ", \"layer\": " + object(layer);
    return out + "}";
}

}  // namespace perfbench
