// Shared machinery of the perfbench program: run options, the round loop,
// timed-region bracketing, comm-volume deltas, trace self-time analysis and
// the result record.
//
// A run is one process and one par::World. Every rank thread loops over
// rounds; each round sets its workload up from the seed (timed as setup),
// runs a fixed number of update steps (the timed region), then checks the
// result (untimed). Identical seeds give identical rounds, so every count a
// round records must repeat exactly across rounds and runs. Round 0 is a
// warm-up whose timings are discarded. Untraced rounds give the end-to-end
// metrics; with --trace 1 a second set of rounds runs with the profiler's
// phase timing and span rings switched on and gives the per-layer metrics.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "par/comm.hpp"
#include "par/profiler.hpp"
#include "sparse/coo.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using dsg::sparse::index_t;
using dsg::sparse::Triple;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string scratch = ".";    ///< directory for WAL/checkpoint files
    std::string trace_out;        ///< Chrome trace path (traced runs)
};

/// q-quantile (0 <= q <= 1) by linear interpolation; 0 for an empty set.
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);

/// What one round reports. Written by rank 0 only; per-rank values are
/// summed over the world before they land here.
struct Round {
    bool warmup = false;
    bool traced = false;
    double setup_s = 0;
    double timed_s = 0;
    /// Peak resident set of the timed region. Memory freed before it (input
    /// generation scratch) or allocated after it (the check) does not count.
    double peak_rss_mib = 0;
    std::uint64_t ops = 0;    ///< update tuples offered in the timed region
    std::uint64_t steps = 0;  ///< update steps (epochs) in the timed region
    std::vector<double> step_ms;
    dsg::par::CommStats::Snapshot comm{};  ///< timed-region delta
    /// Per-layer values of this round (already normalized per step/op).
    std::map<std::string, double> layer;
    /// Values that must repeat exactly across rounds of one seed.
    std::map<std::string, double> counts;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string error;  ///< non-empty: the correctness check failed
};

/// Span self-time totals of one traced round, in ms summed over rank
/// threads. A span's self time is its duration minus its direct children.
struct TraceTotals {
    double analytics_self_ms = 0;      ///< Analytics spans' self time
    double stream_apply_ms = 0;        ///< StreamApply spans (whole)
    double stream_apply_local_ms = 0;  ///< LocalAddition children of them
    std::uint64_t spans = 0;
    std::uint64_t dropped = 0;
};
TraceTotals analyze_trace(const dsg::par::TraceDump& dump);

/// Drives the round loop. One instance is shared by all rank threads; the
/// collective methods must be called by every rank in the same order.
class Runner {
public:
    explicit Runner(Options opts);

    [[nodiscard]] const Options& options() const { return opts_; }

    /// Collective. Starts the next round (false: the run is over) and
    /// decides whether it is a warm-up, measured or traced round.
    bool begin_round(dsg::par::Comm& world);
    /// Collective brackets of the set-up and the timed region. end_timed
    /// fills the round's time, comm delta (also as exact-repeat counts) and,
    /// traced, the phase totals and trace.
    void begin_setup(dsg::par::Comm& world);
    void end_setup(dsg::par::Comm& world);
    void begin_timed(dsg::par::Comm& world);
    void end_timed(dsg::par::Comm& world);
    /// Collective. Closes the round: rank 0 keeps it for the summary.
    void end_round(dsg::par::Comm& world);

    /// The round in progress; only rank 0 may write it.
    [[nodiscard]] Round& round() { return cur_; }
    [[nodiscard]] bool traced() const { return cur_.traced; }
    /// Profiler phase total of the last timed region, in ms (traced only).
    [[nodiscard]] double phase_ms(dsg::par::Phase p) const;
    [[nodiscard]] const TraceTotals& trace_totals() const { return trace_; }

    /// Renders the run's summary record (one JSON object).
    [[nodiscard]] std::string summary_json() const;

private:
    enum class Stage { Warmup, Measure, Traced, Done };
    Stage next_stage() const;

    Options opts_;
    Stage stage_ = Stage::Warmup;
    Round cur_;
    std::vector<Round> done_;
    Clock::time_point setup_t0_, timed_t0_;
    dsg::par::CommStats::Snapshot comm0_{};
    std::map<dsg::par::Phase, double> phase_ms_;
    TraceTotals trace_;
};

/// `count` distinct entries, in generation order, of R-MAT batches over
/// 2^scale vertices with ids permuted by `seed`, passed through
/// graph::simplify (no self loops, no repeated coordinates). Undirected:
/// entries are canonical (min, max) pairs. Every value is 1.
std::vector<Triple<double>> rmat_unique(int scale, std::size_t count,
                                        std::uint64_t seed, bool undirected);

/// Sums a per-rank double over the world (collective).
double world_sum(dsg::par::Comm& world, double v);

/// Collective: the bytes the collective call fn() moves across rank
/// boundaries, summed over the world.
template <typename Fn>
double bytes_moved(dsg::par::Comm& world, Fn&& fn) {
    world.barrier();
    const auto before = world.stats().snapshot().total_bytes();
    world.barrier();
    fn();
    world.barrier();
    const auto after = world.stats().snapshot().total_bytes();
    world.barrier();
    return static_cast<double>(after - before);
}

/// Rank 0, traced rounds: records the profiler's kernel-phase totals and the
/// trace-derived splits of the last timed region as per-layer values,
/// divided by `per` (rank count x steps, giving ms per rank per step).
void record_phase_layers(Runner& run, double per);

// The workloads (one function each; each runs its own world).
void live_triangles(Runner& run);
void minplus_general(Runner& run);
void ingest_serve(Runner& run);

}  // namespace perfbench
