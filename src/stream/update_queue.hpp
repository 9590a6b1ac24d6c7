// Bounded multi-producer update queue: the entry point of the streaming
// ingestion engine (docs/ARCHITECTURE.md, "The streaming engine").
//
// Each rank owns one UpdateQueue. Any number of producer threads push
// StreamOps (an ADD/MERGE/MASK opcode plus an (i, j, x) tuple in global
// coordinates); the rank's epoch engine is the single consumer, draining
// everything buffered at each epoch boundary. The ring is bounded: push()
// blocks while the queue is full (backpressure — producers cannot outrun
// the apply path by more than one ring), try_push() refuses instead.
//
// Shutdown follows the producer-token protocol: producers register with
// register_producer() and announce completion with producer_done(); when the
// last registered producer finishes (or close() is called explicitly) the
// queue closes. Register every producer before the first one can finish —
// typically on the launching thread, before spawning — so the count cannot
// touch zero (closing the queue) while producers are still starting up. A
// closed queue rejects pushes but keeps serving drains until empty, so no
// accepted op is ever lost. The queue knows the shape of the matrix its ops
// are for and refuses ops outside it on the producer's thread, before they
// can reach a collective. Like par::ThreadPool, all synchronization is a
// single mutex plus condition variables — simple, TSan-clean, and plenty
// for ops that are ~1 cache line each.
#pragma once

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sparse/types.hpp"

namespace dsg::stream {

/// The three update operations of Section IV-A, as stream opcodes.
enum class OpKind : std::uint8_t {
    Add,    ///< A <- A (+) (i, j, x) with the semiring addition
    Merge,  ///< overwrite/insert the value at (i, j)
    Mask,   ///< delete (i, j) if present (x is ignored)
};

/// One streamed update in global coordinates.
template <typename T>
struct StreamOp {
    OpKind kind;
    sparse::Triple<T> tuple;

    friend bool operator==(const StreamOp&, const StreamOp&) = default;
};

template <typename T>
class UpdateQueue {
public:
    /// A queue for ops on an nrows x ncols matrix.
    UpdateQueue(std::size_t capacity, sparse::index_t nrows,
                sparse::index_t ncols)
        : buf_(capacity == 0 ? 1 : capacity), nrows_(nrows), ncols_(ncols) {}

    UpdateQueue(const UpdateQueue&) = delete;
    UpdateQueue& operator=(const UpdateQueue&) = delete;

    [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

    /// Optional registry instruments (see docs/ARCHITECTURE.md, "The
    /// observability layer"): depth tracks the buffered-op count, blocked_ns
    /// accumulates producer time spent inside a full-ring push(). References
    /// are fetched once by the owner (the engine or example) so the hot path
    /// never touches the registry.
    struct Instruments {
        obs::Gauge* depth = nullptr;
        obs::Counter* blocked_ns = nullptr;
    };
    void set_instruments(Instruments ins) {
        std::lock_guard lock(mx_);
        ins_ = ins;
    }

    // -- producer side -------------------------------------------------------

    /// Announces a producer thread; pair with producer_done().
    void register_producer() {
        std::lock_guard lock(mx_);
        assert(!closed_);
        ++producers_;
    }

    /// Announces that one registered producer has finished. When the last
    /// one finishes, the queue closes.
    void producer_done() {
        std::lock_guard lock(mx_);
        assert(producers_ > 0);
        if (--producers_ == 0 && !closed_) close_locked();
    }

    /// Blocks while the queue is full; returns false (dropping the op) if
    /// the queue is or becomes closed. Throws std::out_of_range, buffering
    /// nothing, for an op outside the matrix.
    bool push(const StreamOp<T>& op) {
        check_in_matrix(op);
        std::unique_lock lock(mx_);
        if (count_ == buf_.size() && !closed_) {
            // Measure backpressure only when the push actually parks, so
            // the uncontended fast path stays instrument-free.
            const auto t0 = std::chrono::steady_clock::now();
            not_full_.wait(lock,
                           [&] { return count_ < buf_.size() || closed_; });
            if (ins_.blocked_ns != nullptr)
                ins_.blocked_ns->add(static_cast<std::uint64_t>(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count()));
        }
        if (closed_) return false;
        push_locked(op);
        return true;
    }

    /// Non-blocking push; returns false when full or closed. Throws like
    /// push() for an op outside the matrix.
    bool try_push(const StreamOp<T>& op) {
        check_in_matrix(op);
        std::lock_guard lock(mx_);
        if (closed_ || count_ == buf_.size()) return false;
        push_locked(op);
        return true;
    }

    /// Closes the queue explicitly (idempotent): pending pushes fail, buffered
    /// ops remain drainable. Normally reached via producer_done() instead.
    void close() {
        std::lock_guard lock(mx_);
        close_locked();
    }

    // -- consumer side (single thread: the rank's epoch engine) --------------

    /// Blocks until at least min_ops are buffered, the queue is closed, or
    /// the deadline elapses — the epoch trigger. Returns the buffered count.
    /// min_ops is clamped to the capacity (it could never be reached
    /// otherwise and every epoch would stall for the full deadline).
    std::size_t wait_ready(std::size_t min_ops,
                           std::chrono::nanoseconds deadline) {
        std::unique_lock lock(mx_);
        wait_min_ = std::min(min_ops, buf_.size());
        not_empty_.wait_for(lock, deadline,
                            [&] { return count_ >= wait_min_ || closed_; });
        wait_min_ = 1;
        return count_;
    }

    /// Appends everything buffered to out in FIFO order and frees the ring.
    /// Returns the number of ops drained.
    std::size_t drain(std::vector<StreamOp<T>>& out) {
        std::lock_guard lock(mx_);
        const std::size_t n = count_;
        out.reserve(out.size() + n);
        for (std::size_t k = 0; k < n; ++k)
            out.push_back(buf_[(head_ + k) % buf_.size()]);
        head_ = 0;
        count_ = 0;
        if (ins_.depth != nullptr) ins_.depth->set(0);
        not_full_.notify_all();
        return n;
    }

    // -- introspection -------------------------------------------------------

    [[nodiscard]] std::size_t size() const {
        std::lock_guard lock(mx_);
        return count_;
    }
    [[nodiscard]] bool closed() const {
        std::lock_guard lock(mx_);
        return closed_;
    }
    /// True once no further op can ever be drained (closed and empty).
    [[nodiscard]] bool exhausted() const {
        std::lock_guard lock(mx_);
        return closed_ && count_ == 0;
    }
    /// Total ops ever accepted (monotone; drained + buffered).
    [[nodiscard]] std::uint64_t accepted() const {
        std::lock_guard lock(mx_);
        return accepted_;
    }

private:
    void check_in_matrix(const StreamOp<T>& op) const {
        const auto& t = op.tuple;
        if (t.row >= 0 && t.row < nrows_ && t.col >= 0 && t.col < ncols_)
            return;
        throw std::out_of_range("UpdateQueue: op at (" +
                                std::to_string(t.row) + ", " +
                                std::to_string(t.col) +
                                ") lies outside the matrix");
    }
    void push_locked(const StreamOp<T>& op) {
        buf_[(head_ + count_) % buf_.size()] = op;
        ++count_;
        ++accepted_;
        if (ins_.depth != nullptr)
            ins_.depth->set(static_cast<std::int64_t>(count_));
        // Wake the (single) consumer only once its trigger threshold is
        // reached — below it the wakeup would fail the wait predicate and
        // go straight back to sleep, syscalling on every push for nothing.
        // The deadline path needs no notification (wait_for times out).
        if (count_ >= wait_min_) not_empty_.notify_one();
    }
    void close_locked() {
        closed_ = true;
        not_full_.notify_all();
        not_empty_.notify_all();
    }

    mutable std::mutex mx_;
    std::condition_variable not_full_;
    std::condition_variable not_empty_;
    std::vector<StreamOp<T>> buf_;
    const sparse::index_t nrows_, ncols_;  // the matrix ops must fall in
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::size_t wait_min_ = 1;  // the parked consumer's trigger threshold
    std::uint64_t accepted_ = 0;
    int producers_ = 0;
    bool closed_ = false;
    Instruments ins_;
};

}  // namespace dsg::stream
