// Per-phase wall-clock accounting used to regenerate the paper's breakdown
// figures (Fig. 7: insertion phases; Fig. 12: dynamic SpGEMM phases), plus
// an opt-in epoch-tagged trace ring for timeline export.
//
// Library code brackets its phases with Profiler::Scope; accounting is
// per-thread (each rank is a thread) and aggregated on demand. Disabled by
// default so the hot paths pay a single relaxed atomic load.
//
// With tracing enabled (set_trace_enabled), every Scope additionally emits
// a timestamped span (phase, rank, epoch, thread) into a bounded per-thread
// ring buffer; the ring wraps, keeping the most recent spans and counting
// the overwritten ones. obs/trace.hpp renders a collect_trace() dump as
// Chrome trace-event JSON loadable in Perfetto. The rank and epoch tags are
// plain thread-locals: World::run stamps the rank on every rank thread, the
// stream engine stamps the epoch being applied.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

namespace dsg::par {

/// Phases instrumented across the library. The first five correspond to the
/// bars of the paper's Fig. 7, the next five to Fig. 12; the two Stream
/// phases bracket the streaming ingestion engine (src/stream/), Analytics
/// covers the epoch-subscribed maintainers (src/analytics/), the Persist
/// phases the durability layer (src/persist/), and the Serve phases the
/// query-serving subsystem (src/serve/).
enum class Phase : int {
    RedistSort = 0,     ///< counting/comparison sort by destination rank
    RedistComm,         ///< alltoallv exchanges of update tuples
    MemManagement,      ///< allocation/growth of local structures
    LocalConstruct,     ///< building local static layouts (CSR/DCSR)
    LocalAddition,      ///< applying updates to local dynamic matrices
    SendRecv,           ///< initial transpose send/receive (Algorithm 1/2)
    Bcast,              ///< row/column block broadcasts
    LocalMult,          ///< local Gustavson multiplications
    Scatter,            ///< distributing reduction inputs
    ReduceScatter,      ///< sparse reduce-scatter of partial results
    StreamDrain,        ///< waiting on / draining the per-rank update queue
    StreamApply,        ///< epoch application (A* build + ADD/MERGE/MASK)
    Analytics,          ///< epoch-hook maintainer updates (src/analytics/)
    PersistLog,         ///< write-ahead op-log appends + fsyncs (src/persist/)
    PersistCheckpoint,  ///< epoch-consistent snapshot + manifest commit
    PersistRecover,     ///< checkpoint load + log-tail replay on restart
    ServePublish,       ///< snapshot tile freeze + seal/publish (src/serve/)
    ServeQuery,         ///< query evaluation on published snapshots
    ServeCache,         ///< result-cache lookups, inserts and invalidation
    ServeAdmit,         ///< queue residence of an admitted query (submit→drain)
    Other,
    kCount
};

inline constexpr std::size_t kPhaseCount = static_cast<std::size_t>(Phase::kCount);

/// Phase labels, indexed by Phase (matches the legends of Fig. 7 / Fig. 12).
/// The array length is pinned to kPhaseCount, so adding an enumerator
/// without a label is a compile error rather than garbage in traces —
/// tests/par/test_profiler.cpp additionally proves every entry is distinct
/// and non-empty.
inline constexpr std::array<std::string_view, kPhaseCount> kPhaseNames = {
    "Redist. sort",     // RedistSort
    "Redist. comm.",    // RedistComm
    "Mem. management",  // MemManagement
    "Local construct.", // LocalConstruct
    "Local addition",   // LocalAddition
    "Send/Recv",        // SendRecv
    "Bcast",            // Bcast
    "Local Mult.",      // LocalMult
    "Scatter",          // Scatter
    "Reduce Scatter",   // ReduceScatter
    "Stream drain",     // StreamDrain
    "Stream apply",     // StreamApply
    "Analytics maint.", // Analytics
    "Persist log",      // PersistLog
    "Persist ckpt.",    // PersistCheckpoint
    "Persist recover",  // PersistRecover
    "Serve publish",    // ServePublish
    "Serve query",      // ServeQuery
    "Serve cache",      // ServeCache
    "Serve admit",      // ServeAdmit
    "Other",            // Other
};
static_assert(kPhaseNames.size() == kPhaseCount,
              "every Phase enumerator needs a label in kPhaseNames");

/// Human-readable phase label (out-of-range values render as "?").
[[nodiscard]] constexpr std::string_view phase_name(Phase phase) {
    const auto idx = static_cast<std::size_t>(phase);
    return idx < kPhaseCount ? kPhaseNames[idx] : std::string_view("?");
}

/// Direction of a Chrome-trace flow binding attached to a span. A Start
/// span is a flow producer (rendered as a `ph:"s"` event), a Finish span a
/// consumer (`ph:"f"`); spans sharing a flow id are drawn connected by
/// Perfetto. The serving layer uses `snapshot version + 1` as the flow id,
/// so every query span points back at the publish span that produced the
/// snapshot it was answered from.
enum class FlowDir : std::uint8_t { None = 0, Start, Finish };

/// One completed Scope bracket, as recorded in a trace ring.
struct TraceSpan {
    Phase phase = Phase::Other;
    std::uint64_t start_ns = 0;  ///< steady-clock ns (same base process-wide)
    std::uint64_t dur_ns = 0;
    std::int64_t epoch = -1;  ///< engine version being applied, -1 = none
    int rank = -1;            ///< -1 = non-rank thread (producers, pools)
    std::uint32_t tid = 0;    ///< small process-local thread id

    // Request-scoped tags (set via Profiler::set_thread_query /
    // set_thread_snapshot_version by the serving layer; zero/-1 = unset).
    std::uint64_t qid = 0;        ///< query id minted at submit(), 0 = none
    int qclass = -1;              ///< query-class index, -1 = none
    std::int64_t snapshot_version = -1;  ///< snapshot answering, -1 = none
    std::uint64_t flow_id = 0;    ///< flow-event binding id, 0 = none
    FlowDir flow = FlowDir::None;
};

/// Merged result of collect_trace(): spans from every thread's ring plus
/// the number of spans lost to ring wraparound.
struct TraceDump {
    std::vector<TraceSpan> spans;
    std::uint64_t dropped = 0;
};

class Profiler {
public:
    /// Globally enables/disables phase timing (off by default).
    static void set_enabled(bool enabled);
    [[nodiscard]] static bool enabled();

    /// Zeroes the accumulated totals of every thread.
    static void reset();

    /// Sum of the time spent in `phase` across all threads, in seconds.
    [[nodiscard]] static double total_seconds(Phase phase);

    // -- tracing -------------------------------------------------------------

    /// Globally enables/disables span capture (off by default, independent
    /// of the timing switch).
    static void set_trace_enabled(bool enabled);
    [[nodiscard]] static bool trace_enabled();

    /// Ring capacity (spans per thread) for rings created AFTER the call;
    /// existing rings keep their size. Default 8192.
    static void set_trace_capacity(std::size_t spans);

    /// Tags every span subsequently emitted by the calling thread.
    /// World::run stamps the rank; the epoch engine stamps the epoch.
    static void set_thread_rank(int rank);
    static void set_thread_epoch(std::int64_t epoch);

    /// Request-scoped tags: the query executor stamps the query id/class
    /// around each query's processing (clear with (0, -1)), and both sides
    /// of the serving layer stamp the snapshot version involved (clear with
    /// -1). Like rank/epoch these are plain thread-locals copied into every
    /// span the thread emits while set.
    static void set_thread_query(std::uint64_t qid, int qclass);
    static void set_thread_snapshot_version(std::int64_t version);

    /// Emits one span directly (bypassing Scope) with the thread's current
    /// tags — used for brackets whose start time predates the emitting call,
    /// e.g. a query's queue residence recorded at drain with the submit-time
    /// timestamp. No-op while tracing is off.
    static void emit_span(Phase phase, std::chrono::steady_clock::time_point start,
                          std::uint64_t dur_ns);

    /// Spans from all rings (completed threads' rings included), sorted by
    /// start time. Safe concurrently with emitters.
    [[nodiscard]] static TraceDump collect_trace();

    /// Empties every ring and the dropped count.
    static void clear_trace();

    /// RAII bracket adding the scope's elapsed time to `phase` on the current
    /// thread, and emitting a trace span when tracing is on. No-op while
    /// both switches are off.
    class Scope {
    public:
        explicit Scope(Phase phase);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

        /// Attaches a flow binding to the span this scope will emit.
        /// obs::to_chrome_trace renders matched Start/Finish pairs as
        /// `ph:"s"`/`ph:"f"` flow events anchored to the two spans.
        void set_flow(std::uint64_t id, FlowDir dir);

    private:
        Phase phase_;
        bool timing_;
        bool tracing_;
        std::chrono::steady_clock::time_point start_;
        std::uint64_t flow_id_ = 0;
        FlowDir flow_ = FlowDir::None;
    };
};

}  // namespace dsg::par
