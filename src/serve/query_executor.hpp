// Concurrent query executor with admission control: the compute side of the
// serving subsystem (docs/ARCHITECTURE.md, "The query serving layer").
//
// Typed queries (edge-exists, degree, k-hop neighborhood, analytics reads)
// are evaluated against the SnapshotStore's immutable published snapshots —
// never against the live matrix — so query work and epoch application never
// contend on the engine's locks. Two entry points:
//
//  - execute(q): synchronous, cache-aware evaluation on the calling thread.
//    The inline path for callers that want the answer now and the path the
//    cache gate benchmarks (cached vs uncached cost, same thread).
//  - submit(q) -> future: the admission-controlled path. A bounded pending
//    queue sheds on overflow (QueryStatus::Shed, counted per class) instead
//    of queueing unboundedly; queries that waited past their deadline are
//    expired un-executed (the client has given up — computing the answer
//    would be pure waste). A dispatcher thread drains the queue in batches
//    and fans each batch out over the SHARED par::ThreadPool (the same pool
//    the engine applies epochs with; parallel_for serializes jobs, so
//    serving borrows the pool between epochs instead of oversubscribing
//    the host). With background = false nothing is spawned and the test
//    harness pumps drain() deterministically.
//
// Caching: results are keyed by (query fingerprint, snapshot version) in
// the ResultCache. A submit whose answer is cached under the CURRENT
// version completes inline — it never consumes queue capacity. Version
// advance invalidates for free (see result_cache.hpp).
//
// Request-scoped tracing: every entering query mints a TraceContext (a
// process-unique qid), and all spans its processing emits — queue
// residence (ServeAdmit, recorded at drain with the submit-time start),
// cache lookups (ServeCache) and evaluation (ServeQuery) — carry the
// qid/class/snapshot-version under their args. The ServeQuery span is
// additionally flow-linked (id = snapshot version + 1) to the ServePublish
// span that produced the snapshot it was answered from, and completed
// queries are offered to the configured FlightRecorder with their span
// breakdown. See docs/ARCHITECTURE.md, "Request tracing & the watchdog".
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "par/profiler.hpp"
#include "par/thread_pool.hpp"
#include "serve/flight_recorder.hpp"
#include "serve/query_types.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "sparse/types.hpp"

namespace dsg::serve {

/// Plain-value per-query-class accounting (copied out of atomics).
struct QueryClassStats {
    std::uint64_t submitted = 0;
    std::uint64_t ok = 0;
    std::uint64_t not_found = 0;
    std::uint64_t no_snapshot = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t cache_hits = 0;
    double total_us = 0;  ///< latency over completed (non-shed) queries
    double max_us = 0;

    [[nodiscard]] std::uint64_t completed() const {
        return ok + not_found + no_snapshot + expired;
    }
    [[nodiscard]] double mean_us() const {
        return completed() > 0 ? total_us / static_cast<double>(completed())
                               : 0.0;
    }
};

struct ExecutorConfig {
    /// Admission control: submits beyond this many pending queries shed.
    std::size_t pending_capacity = 1024;
    /// Queries not started within this much of submit() expire unrun.
    std::chrono::milliseconds deadline{100};
    /// Spawn the dispatcher thread. false = tests pump drain() manually.
    bool background = true;
    /// Shared pool for batch fan-out; nullptr evaluates on the
    /// dispatcher (or drain caller's) thread.
    par::ThreadPool* pool = nullptr;
    /// Result cache; nullptr disables caching entirely.
    ResultCache* cache = nullptr;
    /// Slow-query flight recorder; every completed (non-shed) query is
    /// offered when set. nullptr disables recording.
    FlightRecorder* recorder = nullptr;
};

template <typename T>
class QueryExecutor {
public:
    using Clock = std::chrono::steady_clock;
    using Config = ExecutorConfig;

    explicit QueryExecutor(const SnapshotStore<T>& store, Config cfg = {})
        : store_(&store), cfg_(cfg) {
        // Registry instruments, one family per query class (fetched once so
        // the completion path never touches the registry). The latency
        // histograms give the runtime p50/p99/p999 per class that
        // ROADMAP item 5(c) gates on.
        auto& reg = obs::registry();
        for (std::size_t k = 0; k < kQueryKindCount; ++k) {
            const obs::Labels cls = {
                {"class", query_kind_name(static_cast<QueryKind>(k))}};
            obs_latency_[k] = &reg.histogram("serve_query_ns", cls);
            obs_shed_[k] = &reg.counter("serve_query_shed", cls);
            obs_expired_[k] = &reg.counter("serve_query_expired", cls);
        }
        if (cfg_.background)
            dispatcher_ = std::thread([this] { dispatch_loop(); });
    }
    ~QueryExecutor() { stop(); }

    QueryExecutor(const QueryExecutor&) = delete;
    QueryExecutor& operator=(const QueryExecutor&) = delete;

    [[nodiscard]] const Config& config() const { return cfg_; }

    /// Synchronous cache-aware evaluation on the calling thread; bypasses
    /// admission control (inline callers self-limit by calling rate).
    QueryResult execute(const Query& q) {
        const auto t0 = Clock::now();
        const TraceContext ctx{next_query_id(), q.kind};
        auto& cls = stats_[static_cast<std::size_t>(q.kind)];
        cls.submitted.fetch_add(1, std::memory_order_relaxed);
        QueryTag tag(ctx);
        auto snap = store_->current();
        QueryResult r = evaluate(snap.get(), q, fingerprint(q));
        finish(cls, r, t0, ctx.qid, 0);
        return r;
    }

    /// Admission-controlled asynchronous evaluation. The returned future is
    /// always eventually fulfilled: with the answer, a cached answer
    /// (possibly inline), Shed on overflow/shutdown, or Expired past the
    /// deadline.
    std::future<QueryResult> submit(Query q) {
        const auto t0 = Clock::now();
        const TraceContext ctx{next_query_id(), q.kind};
        auto& cls = stats_[static_cast<std::size_t>(q.kind)];
        cls.submitted.fetch_add(1, std::memory_order_relaxed);
        std::promise<QueryResult> promise;
        auto future = promise.get_future();

        const std::uint64_t fp = fingerprint(q);
        if (cfg_.cache != nullptr) {
            if (const auto ver = store_->current_version()) {
                QueryTag tag(ctx);  // the cache-lookup span carries the qid
                if (const auto hit = cfg_.cache->lookup(*ver, fp)) {
                    QueryResult r{QueryStatus::Ok, *hit, *ver, true, 0};
                    finish(cls, r, t0, ctx.qid, 0);
                    promise.set_value(r);
                    return future;
                }
            }
        }
        {
            std::lock_guard lock(mx_);
            if (!stopping_ && pending_.size() < cfg_.pending_capacity) {
                pending_.push_back(
                    {std::move(q), fp, std::move(promise), t0, ctx.qid});
                cv_.notify_one();
                return future;
            }
        }
        cls.shed.fetch_add(1, std::memory_order_relaxed);
        obs_shed_[static_cast<std::size_t>(q.kind)]->add(1);
        promise.set_value({QueryStatus::Shed, 0, 0, false, 0, ctx.qid});
        return future;
    }

    /// Processes everything currently pending on the calling thread (the
    /// manual pump for background = false). Returns queries processed.
    std::size_t drain() {
        std::size_t done = 0;
        for (;;) {
            std::vector<Pending> batch = take_batch(false);
            if (batch.empty()) return done;
            process(batch);
            done += batch.size();
        }
    }

    /// Stops the dispatcher after it finishes the pending queue (idempotent;
    /// also run by the destructor). Subsequent submits shed.
    void stop() {
        {
            std::lock_guard lock(mx_);
            stopping_ = true;
            cv_.notify_all();
        }
        if (dispatcher_.joinable()) dispatcher_.join();
        // Without a dispatcher the pending tail is nobody else's to flush.
        if (!cfg_.background) drain();
    }

    [[nodiscard]] QueryClassStats stats(QueryKind kind) const {
        const auto& c = stats_[static_cast<std::size_t>(kind)];
        QueryClassStats out;
        out.submitted = c.submitted.load(std::memory_order_relaxed);
        out.ok = c.ok.load(std::memory_order_relaxed);
        out.not_found = c.not_found.load(std::memory_order_relaxed);
        out.no_snapshot = c.no_snapshot.load(std::memory_order_relaxed);
        out.shed = c.shed.load(std::memory_order_relaxed);
        out.expired = c.expired.load(std::memory_order_relaxed);
        out.cache_hits = c.cache_hits.load(std::memory_order_relaxed);
        out.total_us =
            static_cast<double>(c.total_ns.load(std::memory_order_relaxed)) *
            1e-3;
        out.max_us =
            static_cast<double>(c.max_ns.load(std::memory_order_relaxed)) *
            1e-3;
        return out;
    }
    /// Queries shed across all classes (admission-control rejections).
    [[nodiscard]] std::uint64_t shed_total() const {
        std::uint64_t total = 0;
        for (const auto& c : stats_)
            total += c.shed.load(std::memory_order_relaxed);
        return total;
    }
    [[nodiscard]] std::size_t pending() const {
        std::lock_guard lock(mx_);
        return pending_.size();
    }

private:
    /// Queries per dispatcher batch (one pool job per batch).
    static constexpr std::size_t kBatchMax = 64;

    struct Pending {
        Query query;
        std::uint64_t fp = 0;
        std::promise<QueryResult> promise;
        Clock::time_point enqueued;
        std::uint64_t qid = 0;  ///< TraceContext minted at submit()
    };

    /// RAII thread tag for one query's processing: every span emitted while
    /// alive (admission, cache lookup, evaluation) carries the request's
    /// qid/class under its args.
    struct QueryTag {
        explicit QueryTag(const TraceContext& ctx) {
            par::Profiler::set_thread_query(ctx.qid,
                                            static_cast<int>(ctx.kind));
        }
        ~QueryTag() { par::Profiler::set_thread_query(0, -1); }
        QueryTag(const QueryTag&) = delete;
        QueryTag& operator=(const QueryTag&) = delete;
    };

    /// RAII thread tag for the snapshot version a query is answered from.
    struct VersionTag {
        explicit VersionTag(std::uint64_t v) {
            par::Profiler::set_thread_snapshot_version(
                static_cast<std::int64_t>(v));
        }
        ~VersionTag() { par::Profiler::set_thread_snapshot_version(-1); }
        VersionTag(const VersionTag&) = delete;
        VersionTag& operator=(const VersionTag&) = delete;
    };

    struct ClassCounters {
        std::atomic<std::uint64_t> submitted{0}, ok{0}, not_found{0},
            no_snapshot{0}, shed{0}, expired{0}, cache_hits{0};
        std::atomic<std::uint64_t> total_ns{0}, max_ns{0};
    };

    /// Evaluates one query against `snap` (may be null), consulting and
    /// filling the cache. Thread-safe: called from pool workers.
    QueryResult evaluate(const Snapshot<T>* snap, const Query& q,
                         std::uint64_t fp) {
        if (snap == nullptr) return {QueryStatus::NoSnapshot, 0, 0, false, 0};
        QueryResult r;
        r.version = snap->version();
        VersionTag vtag(r.version);
        if (cfg_.cache != nullptr) {
            if (const auto hit = cfg_.cache->lookup(r.version, fp)) {
                r.value = *hit;
                r.cache_hit = true;
                return r;
            }
        }
        {
            par::Profiler::Scope scope(par::Phase::ServeQuery);
            // Flow id = version + 1 (0 means "no flow"): the renderer links
            // this span back to the publish span that produced the snapshot.
            scope.set_flow(r.version + 1, par::FlowDir::Finish);
            switch (q.kind) {
                case QueryKind::EdgeExists:
                    r.value = snap->edge_exists(q.row, q.col) ? 1.0 : 0.0;
                    break;
                case QueryKind::Degree:
                    r.value = static_cast<double>(snap->degree(q.row));
                    break;
                case QueryKind::KHop:
                    r.value = static_cast<double>(
                        snap->k_hop_count(q.row, q.hops));
                    break;
                case QueryKind::AnalyticsRead: {
                    const auto v = snap->analytics(q.metric);
                    if (!v) {
                        r.status = QueryStatus::NotFound;
                        return r;
                    }
                    r.value = *v;
                    break;
                }
            }
        }
        if (cfg_.cache != nullptr) cfg_.cache->insert(r.version, fp, r.value);
        return r;
    }

    /// Completion bookkeeping shared by every path that produced a result.
    /// `wait_ns` is the admission wait (queue residence) of the submit
    /// path; inline paths pass 0.
    void finish(ClassCounters& cls, QueryResult& r, Clock::time_point t0,
                std::uint64_t qid, std::uint64_t wait_ns) {
        const auto ns = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                Clock::now() - t0)
                .count());
        r.latency_us = static_cast<double>(ns) * 1e-3;
        r.qid = qid;
        const auto kind = static_cast<std::size_t>(&cls - stats_.data());
        switch (r.status) {
            case QueryStatus::Ok:
                cls.ok.fetch_add(1, std::memory_order_relaxed);
                if (r.cache_hit)
                    cls.cache_hits.fetch_add(1, std::memory_order_relaxed);
                break;
            case QueryStatus::NotFound:
                cls.not_found.fetch_add(1, std::memory_order_relaxed);
                break;
            case QueryStatus::NoSnapshot:
                cls.no_snapshot.fetch_add(1, std::memory_order_relaxed);
                break;
            case QueryStatus::Expired:
                cls.expired.fetch_add(1, std::memory_order_relaxed);
                obs_expired_[kind]->add(1);
                break;
            case QueryStatus::Shed:
                cls.shed.fetch_add(1, std::memory_order_relaxed);
                obs_shed_[kind]->add(1);
                return;  // shed latency is admission latency; not recorded
        }
        obs_latency_[kind]->record(ns);
        cls.total_ns.fetch_add(ns, std::memory_order_relaxed);
        std::uint64_t prev = cls.max_ns.load(std::memory_order_relaxed);
        while (prev < ns &&
               !cls.max_ns.compare_exchange_weak(prev, ns,
                                                 std::memory_order_relaxed)) {
        }
        if (cfg_.recorder != nullptr) {
            FlightRecorder::Entry e;
            e.qid = qid;
            e.kind = static_cast<QueryKind>(kind);
            e.status = r.status;
            e.cache_hit = r.cache_hit;
            e.snapshot_version = r.version;
            if (r.version > 0)
                if (const auto cur = store_->current_version())
                    e.snapshot_lag = static_cast<std::int64_t>(*cur) -
                                     static_cast<std::int64_t>(r.version);
            e.admission_wait_ns = std::min(wait_ns, ns);
            e.execute_ns = ns - e.admission_wait_ns;
            e.total_ns = ns;
            cfg_.recorder->record(e);
        }
    }

    /// Pops up to kBatchMax pending queries; with `wait` blocks until work
    /// arrives or stop() is called.
    std::vector<Pending> take_batch(bool wait) {
        std::unique_lock lock(mx_);
        if (wait)
            cv_.wait(lock, [&] { return !pending_.empty() || stopping_; });
        std::vector<Pending> batch;
        const std::size_t n = std::min(pending_.size(), kBatchMax);
        batch.reserve(n);
        for (std::size_t k = 0; k < n; ++k) {
            batch.push_back(std::move(pending_.front()));
            pending_.pop_front();
        }
        return batch;
    }

    void process(std::vector<Pending>& batch) {
        // One consistent snapshot per batch: every query of the batch is
        // answered at the same version.
        auto snap = store_->current();
        const auto now = Clock::now();
        auto run_one = [&](std::size_t k) {
            Pending& p = batch[k];
            auto& cls = stats_[static_cast<std::size_t>(p.query.kind)];
            const QueryTag tag(TraceContext{p.qid, p.query.kind});
            const auto wait_ns = static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    now - p.enqueued)
                    .count());
            // The admission span brackets queue residence: emitted here (the
            // wait is only known at drain) with the submit-time start.
            par::Profiler::emit_span(par::Phase::ServeAdmit, p.enqueued,
                                     wait_ns);
            QueryResult r;
            if (now - p.enqueued > cfg_.deadline) {
                r.status = QueryStatus::Expired;
            } else {
                r = evaluate(snap.get(), p.query, p.fp);
            }
            finish(cls, r, p.enqueued, p.qid, wait_ns);
            p.promise.set_value(r);
        };
        if (cfg_.pool != nullptr && batch.size() > 1) {
            cfg_.pool->parallel_for(
                batch.size(), [&](int, std::size_t begin, std::size_t end) {
                    for (std::size_t k = begin; k < end; ++k) run_one(k);
                });
        } else {
            for (std::size_t k = 0; k < batch.size(); ++k) run_one(k);
        }
    }

    void dispatch_loop() {
        for (;;) {
            std::vector<Pending> batch = take_batch(true);
            if (batch.empty()) {
                std::lock_guard lock(mx_);
                if (stopping_ && pending_.empty()) return;
                continue;
            }
            process(batch);
        }
    }

    const SnapshotStore<T>* store_;
    Config cfg_;

    mutable std::mutex mx_;
    std::condition_variable cv_;
    std::deque<Pending> pending_;
    bool stopping_ = false;

    std::array<ClassCounters, kQueryKindCount> stats_;
    // Registry instruments per query class (fetched once in the ctor).
    std::array<obs::Histogram*, kQueryKindCount> obs_latency_{};
    std::array<obs::Counter*, kQueryKindCount> obs_shed_{};
    std::array<obs::Counter*, kQueryKindCount> obs_expired_{};
    std::thread dispatcher_;
};

}  // namespace dsg::serve
