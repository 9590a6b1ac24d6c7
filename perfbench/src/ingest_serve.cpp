// Workload ingest-serve: the stream → persist → serve pipeline under
// concurrent reads. An R-MAT stream of ADD/MERGE/MASK ops (window kept
// stationary: every epoch each rank ADDs kAdd new edges, MERGEs kMerge live
// ones and MASKs its kAdd oldest) runs through EpochEngine with a
// DurabilityManager (WAL + checkpoints) and SnapshotStore publication, all
// at their default cadences, and a ResultCache; no maintainer is attached.
// Ingest is a closed loop: each rank pushes its own epoch's ops, then pumps, so epoch
// contents are deterministic. Beside it an open-loop client thread issues
// edge-exists, degree and 2-hop k-hop queries with zipf-skewed keys at kQps
// through QueryExecutor::execute, each timed from its due time. The
// workload runs no SpGEMM: it is the control for kernel changes.
//
// Load shape: one 1x3 grid, 3 rank threads, plus 1 query-client thread.
// Check: the final matrix equals a sequential replay of the op stream, and a
// fixed query set answered on the final snapshot equals brute force on the
// replayed graph.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <optional>
#include <random>
#include <stop_token>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/update_ops.hpp"
#include "harness.hpp"
#include "persist/durability.hpp"
#include "serve/query_executor.hpp"
#include "serve/result_cache.hpp"
#include "serve/snapshot_store.hpp"
#include "sparse/coo.hpp"
#include "stream/epoch_engine.hpp"

namespace perfbench {

using namespace dsg;

namespace {

using SR = sparse::PlusTimes<double>;
using Engine = stream::EpochEngine<SR>;

constexpr int kRows = 1, kCols = 3, kRanks = kRows * kCols;
constexpr int kScale = 16;                      // 65536 vertices
constexpr std::size_t kWindow = 3 << 16;        // live entries
constexpr std::size_t kAdd = 8192;              // ADDs (= MASKs) per rank per epoch
constexpr std::size_t kMerge = 4096;            // MERGEs per rank per epoch
constexpr std::size_t kCycle = 2 * kWindow / 3; // distinct entries per rank
constexpr std::size_t kEpochs = 128;            // epochs per round (publish and
                                                // checkpoint cadences divide it)
constexpr double kQps = 2000;                   // open-loop query rate
constexpr std::size_t kQueries = 1 << 14;       // query list (cycled)
constexpr std::size_t kCheckQueries = 512;      // answered on the final snapshot
constexpr auto kSpin = std::chrono::microseconds(100);
static_assert(kCycle >= kWindow / kRanks + kAdd, "an entry being ADDed must not be live");

std::uint64_t key_of(index_t i, index_t j) {
    return static_cast<std::uint64_t>(i) << 32 | static_cast<std::uint64_t>(j);
}

/// The generated inputs of one seed, shared by all ranks (read-only once
/// built).
struct Inputs {
    std::vector<std::vector<Triple<double>>> seq;  // per rank: its kCycle entries
    std::vector<serve::Query> queries;
};

/// The sequential replay of the op stream and brute-force answers to the
/// check queries. Every round replays the same seed, so it is built once.
struct Reference {
    std::unordered_map<std::uint64_t, double> matrix;
    std::vector<double> answers;  // for queries[0, kCheckQueries)
};

/// One rank's x-th op of epoch e, in push order. Each rank cycles through
/// its kCycle distinct entries: at epoch e its live window is positions
/// [e*kAdd, e*kAdd + w) mod kCycle, so an entry MASKed now is ADDed again
/// later. ADD and MERGE values are small integers, so the replay's sums are
/// exact in any combine order.
stream::StreamOp<double> op_at(const std::vector<Triple<double>>& seq,
                               std::size_t e, std::size_t x) {
    // Layout per epoch: kAdd ADDs of entries outside the window, kMerge
    // MERGEs of live entries, kAdd MASKs of the oldest ones.
    const std::size_t w = kWindow / kRanks;
    auto at = [&](std::size_t pos) { return seq[pos % kCycle]; };
    if (x < kAdd) {
        Triple<double> t = at(w + e * kAdd + x);
        t.value = static_cast<double>(1 + (e + x) % 4);
        return {stream::OpKind::Add, t};
    }
    x -= kAdd;
    if (x < kMerge) {
        // Live before and after this epoch: past this epoch's MASKs and
        // older than its ADDs; distinct within the epoch.
        const std::size_t span = w - kAdd;
        Triple<double> t = at((e + 1) * kAdd + (x * 97 + e * 31) % span);
        t.value = static_cast<double>(5 + x % 4);
        return {stream::OpKind::Merge, t};
    }
    x -= kMerge;
    return {stream::OpKind::Mask, at(e * kAdd + x)};
}

Inputs make_inputs(std::uint64_t seed) {
    Inputs in;
    const auto all = rmat_unique(kScale, kCycle * kRanks, seed, /*undirected=*/false);
    in.seq.resize(kRanks);
    for (std::size_t k = 0; k < all.size(); ++k) in.seq[k % kRanks].push_back(all[k]);
    // Queries rotate edge-exists / degree / 2-hop over zipf(1.1)-ranked
    // keys: vertices through a seeded permutation, edges through a fixed
    // stride over the ranks' entries (some live, some not at any time).
    const index_t n = index_t{1} << kScale;
    std::vector<double> cdf(static_cast<std::size_t>(n));
    double acc = 0;
    for (std::size_t r = 0; r < cdf.size(); ++r)
        cdf[r] = acc += 1.0 / std::pow(static_cast<double>(r + 1), 1.1);
    std::mt19937_64 rng(seed * 31 + 7);
    std::uniform_real_distribution<double> uni(0.0, acc);
    auto zipf = [&] {
        return static_cast<std::size_t>(
            std::lower_bound(cdf.begin(), cdf.end(), uni(rng)) - cdf.begin());
    };
    const sparse::IndexPermutation vertex(n, seed * 17 + 3);
    for (std::size_t k = 0; k < kQueries; ++k) {
        const std::size_t r = zipf();
        switch (k % 3) {
            case 0: {
                const auto& s = in.seq[r % kRanks];
                const auto& t = s[(r / kRanks * 7919) % s.size()];
                in.queries.push_back({serve::QueryKind::EdgeExists, t.row, t.col, 1, ""});
                break;
            }
            case 1:
                in.queries.push_back({serve::QueryKind::Degree,
                                      vertex(static_cast<index_t>(r)), 0, 1, ""});
                break;
            default:
                in.queries.push_back({serve::QueryKind::KHop,
                                      vertex(static_cast<index_t>(r)), 0, 2, ""});
        }
    }
    return in;
}

/// Sequential replay with the engine's per-epoch order (every rank's ADDs,
/// then MERGEs, then MASKs) and brute-force answers to the check queries.
Reference replay(const Inputs& in) {
    Reference ref;
    auto& m = ref.matrix;
    for (const auto& s : in.seq)
        for (std::size_t k = 0; k < kWindow / kRanks; ++k) m[key_of(s[k].row, s[k].col)] = 1.0;
    const std::size_t per_epoch = 2 * kAdd + kMerge;
    for (std::size_t e = 0; e < kEpochs; ++e)
        for (const stream::OpKind kind :
             {stream::OpKind::Add, stream::OpKind::Merge, stream::OpKind::Mask})
            for (const auto& s : in.seq)
                for (std::size_t x = 0; x < per_epoch; ++x) {
                    const auto op = op_at(s, e, x);
                    if (op.kind != kind) continue;
                    const auto key = key_of(op.tuple.row, op.tuple.col);
                    if (kind == stream::OpKind::Add) m[key] += op.tuple.value;
                    else if (kind == stream::OpKind::Merge) m[key] = op.tuple.value;
                    else m.erase(key);
                }
    std::unordered_map<index_t, std::vector<index_t>> adj;
    for (const auto& [key, v] : m)
        adj[static_cast<index_t>(key >> 32)].push_back(static_cast<index_t>(key & 0xffffffffu));
    for (std::size_t k = 0; k < kCheckQueries; ++k) {
        const auto& q = in.queries[k];
        double a = 0;
        if (q.kind == serve::QueryKind::EdgeExists) {
            a = m.count(key_of(q.row, q.col)) ? 1.0 : 0.0;
        } else if (q.kind == serve::QueryKind::Degree) {
            a = adj.count(q.row) ? static_cast<double>(adj[q.row].size()) : 0.0;
        } else {
            std::unordered_set<index_t> seen{q.row};
            std::vector<index_t> frontier{q.row}, next;
            for (int h = 0; h < q.hops; ++h) {
                next.clear();
                for (const index_t u : frontier)
                    if (const auto it = adj.find(u); it != adj.end())
                        for (const index_t v : it->second)
                            if (seen.insert(v).second) next.push_back(v);
                frontier.swap(next);
            }
            a = static_cast<double>(seen.size() - 1);
        }
        ref.answers.push_back(a);
    }
    return ref;
}

/// What the client thread measured in one round.
struct ClientLog {
    std::vector<double> on_arrival_us, lateness_ms;
    std::vector<double> service_us[3];  // by QueryKind (EdgeExists, Degree, KHop)
    std::uint64_t issued = 0, failed = 0;
};

/// Open-loop client: query k is due at start + k / kQps. The client sleeps
/// until shortly before each due time and spins the rest of the way, so OS
/// timer slack stays out of the latency; latency runs from the due time.
void run_client(serve::QueryExecutor<double>& ex, const std::vector<serve::Query>& qs,
                const std::stop_token& stop, ClientLog& log) {
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / kQps));
    const auto start = Clock::now();
    for (std::uint64_t k = 0;; ++k) {
        const auto due = start + interval * static_cast<std::int64_t>(k);
        if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due && !stop.stop_requested()) {
        }
        if (stop.stop_requested()) return;
        const auto sent = Clock::now();
        const auto& q = qs[k % qs.size()];
        const auto r = ex.execute(q);
        const auto done = Clock::now();
        ++log.issued;
        if (r.status != serve::QueryStatus::Ok) ++log.failed;
        log.lateness_ms.push_back(ms_between(due, sent));
        log.on_arrival_us.push_back(ms_between(due, done) * 1e3);
        log.service_us[static_cast<std::size_t>(q.kind)].push_back(ms_between(sent, done) * 1e3);
    }
}

}  // namespace

void ingest_serve(Runner& run) {
    const index_t n = index_t{1} << kScale;
    const std::filesystem::path wal_dir =
        std::filesystem::path(run.options().scratch) / "ingest-serve-wal";
    Inputs in;
    std::optional<Reference> ref;
    // Shared serving objects, one per round (rank 0 creates and resets them
    // between barriers).
    std::optional<serve::ResultCache> cache;
    std::optional<serve::SnapshotStore<double>> store;
    std::optional<serve::QueryExecutor<double>> ex;

    par::run_world(kRanks, [&](par::Comm& comm) {
        core::ProcessGrid grid(comm, kRows, kCols);
        const int rank = comm.rank();
        const std::size_t per_epoch = 2 * kAdd + kMerge;
        while (run.begin_round(comm)) {
            run.begin_setup(comm);
            if (rank == 0) {
                ex.reset();
                store.reset();
                cache.reset();
                in = make_inputs(run.options().seed);
                cache.emplace();
                store.emplace();
                store->set_cache(&*cache);
            }
            comm.barrier();
            const auto& seq = in.seq[static_cast<std::size_t>(rank)];
            auto A = core::build_dynamic_matrix<SR>(
                grid, n, n,
                std::vector<Triple<double>>(
                    seq.begin(), seq.begin() + static_cast<std::ptrdiff_t>(kWindow / kRanks)));
            stream::EngineConfig cfg;
            cfg.epoch_batch = per_epoch;  // exactly one epoch's ops
            cfg.queue_capacity = 2 * per_epoch;
            cfg.epoch_deadline = std::chrono::milliseconds(10'000);
            cfg.overlap_persist = false;
            Engine engine(A, cfg);
            persist::PersistConfig pcfg;
            pcfg.dir = wal_dir;
            persist::DurabilityManager<SR> durable(engine, A, pcfg,
                                                   persist::DurabilityManager<SR>::Start::Fresh);
            store->attach(engine, A);
            if (rank == 0) {
                serve::ExecutorConfig ecfg;
                ecfg.background = false;
                ecfg.cache = &*cache;
                ex.emplace(*store, ecfg);
            }
            run.end_setup(comm);

            double push_ms = 0;
            std::uint64_t rejected = 0;
            ClientLog log;
            std::jthread client;  // stopped and joined on every exit path
            run.begin_timed(comm);
            if (rank == 0)
                client = std::jthread(
                    [&](std::stop_token st) { run_client(*ex, in.queries, st, log); });
            for (std::size_t e = 0; e < kEpochs; ++e) {
                const auto t0 = Clock::now();
                for (std::size_t x = 0; x < per_epoch; ++x)
                    rejected += !engine.queue().push(op_at(seq, e, x));
                push_ms += ms_between(t0, Clock::now());
                engine.pump();
                if (rank == 0) run.round().step_ms.push_back(ms_between(t0, Clock::now()));
            }
            if (rank == 0) {
                client.request_stop();
                client.join();
            }
            run.end_timed(comm);

            const double per = static_cast<double>(kRanks * kEpochs);
            const auto& es = engine.stats();
            const auto& ps = durable.stats();
            const double push = world_sum(comm, push_ms) / per;
            const double drain = world_sum(comm, es.drain_ms) / per;
            const double apply = world_sum(comm, es.apply_ms) / per;
            const double publish = world_sum(comm, es.publish_ms) / per;
            const double log_ms = world_sum(comm, ps.log_ms);
            const double logged = world_sum(comm, static_cast<double>(ps.epochs_logged));
            const double wal_bytes = world_sum(comm, static_cast<double>(ps.bytes_logged));
            const double fsyncs = world_sum(comm, static_cast<double>(ps.fsyncs));
            const double ckpt_ms = world_sum(comm, ps.checkpoint_ms);
            const double ckpts = world_sum(comm, static_cast<double>(ps.checkpoints));
            const double failed_push = world_sum(comm, static_cast<double>(rejected));
            const auto cs = cache->stats();  // before the check queries below

            // Check (untimed): final matrix against the sequential replay.
            if (rank == 0 && !ref) ref = replay(in);
            comm.barrier();
            double bad = 0, owned = 0;
            A.local().for_each([&](index_t i, index_t j, double v) {
                const auto it = ref->matrix.find(key_of(A.shape().global_row(i),
                                                      A.shape().global_col(j)));
                if (it == ref->matrix.end() || it->second != v) ++bad;
            });
            for (const auto& [key, v] : ref->matrix)
                if (A.shape().owner_rank(static_cast<index_t>(key >> 32),
                                         static_cast<index_t>(key & 0xffffffffu)) == rank)
                    ++owned;
            if (owned != static_cast<double>(A.local().nnz())) ++bad;
            bad = world_sum(comm, bad);

            if (rank == 0) {
                Round& rd = run.round();
                rd.ops = kEpochs * per_epoch * kRanks;
                rd.steps = kEpochs;
                // The fixed query set on the final snapshot against brute force.
                std::uint64_t wrong = 0;
                const auto snap = store->current();
                if (snap == nullptr || snap->version() != kEpochs) {
                    rd.error = "final snapshot is not at the final version";
                } else {
                    for (std::size_t k = 0; k < kCheckQueries; ++k) {
                        const auto r = ex->execute(in.queries[k]);
                        if (r.status != serve::QueryStatus::Ok || r.value != ref->answers[k])
                            ++wrong;
                    }
                }
                if (bad != 0)
                    rd.error = std::to_string(static_cast<long long>(bad)) +
                               " matrix blocks/entries differ from the replay";
                else if (wrong != 0)
                    rd.error = std::to_string(wrong) + " check queries differ from brute force";
                rd.attempted = rd.ops + log.issued + kCheckQueries;
                rd.failed = static_cast<std::uint64_t>(failed_push) + log.failed + wrong;

                auto& L = rd.layer;
                L["stream.push_ms"] = push;
                L["stream.drain_ms"] = drain;
                L["stream.apply_ms"] = apply;
                L["serve.publish_ms"] = publish;
                L["persist.log_ms_per_epoch"] = logged > 0 ? log_ms / logged : 0.0;
                L["persist.checkpoint_ms"] = ckpts > 0 ? ckpt_ms / ckpts : 0.0;
                L["persist.wal_bytes_per_epoch"] = wal_bytes / kEpochs;
                L["persist.fsyncs"] = fsyncs;
                L["serve.query_p50_us"] = quantile(log.on_arrival_us, 0.5);
                L["serve.query_p90_us"] = quantile(log.on_arrival_us, 0.9);
                L["serve.query_p99_us"] = quantile(log.on_arrival_us, 0.99);
                L["serve.query_samples"] = static_cast<double>(log.issued);
                L["serve.client_lateness_ms"] = quantile(log.lateness_ms, 0.99);
                const char* classes[] = {"edge-exists", "degree", "k-hop"};
                for (std::size_t c = 0; c < 3; ++c) {
                    L[std::string("serve.query_service_p50_us.") + classes[c]] =
                        quantile(log.service_us[c], 0.5);
                    L[std::string("serve.query_service_p99_us.") + classes[c]] =
                        quantile(log.service_us[c], 0.99);
                }
                L["serve.cache_hit_ratio"] =
                    cs.hits + cs.misses > 0
                        ? static_cast<double>(cs.hits) / static_cast<double>(cs.hits + cs.misses)
                        : 0.0;
                L["graph.c_nnz"] = static_cast<double>(ref->matrix.size());
                record_phase_layers(run, per);
                auto& C = rd.counts;
                C["wal_bytes"] = wal_bytes;
                C["fsyncs"] = fsyncs;
                C["c_nnz"] = static_cast<double>(ref->matrix.size());
            }
            run.end_round(comm);
        }
        if (rank == 0) {
            ex.reset();
            store.reset();
            cache.reset();
        }
    });
    std::filesystem::remove_all(wal_dir);
}

}  // namespace perfbench
