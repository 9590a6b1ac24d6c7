#include "par/comm.hpp"

#include <algorithm>
#include <cassert>
#include <thread>

#include "par/profiler.hpp"

namespace dsg::par {

CommStats::Snapshot CommStats::snapshot() const {
    return Snapshot{
        p2p_messages.load(), p2p_bytes.load(),   bcast_bytes.load(),
        alltoall_bytes.load(), reduce_bytes.load(), gather_bytes.load(),
        barriers.load(),     collectives.load(),  async_posted.load(),
        async_completed.load(),
    };
}

void CommStats::reset() {
    p2p_messages = 0;
    p2p_bytes = 0;
    bcast_bytes = 0;
    alltoall_bytes = 0;
    reduce_bytes = 0;
    gather_bytes = 0;
    barriers = 0;
    collectives = 0;
    async_posted = 0;
    async_completed = 0;
}

namespace detail {

// Shared abort channel: one per world, shared by all communicators split from
// it, so a failure on any rank wakes sleepers in every (sub-)communicator.
struct AbortHub {
    std::atomic<bool> flag{false};
    std::mutex mx;
    std::vector<std::weak_ptr<CommGroup>> groups;

    void register_group(const std::shared_ptr<CommGroup>& g) {
        std::lock_guard lk(mx);
        groups.push_back(g);
    }
};

// Shared state of one communicator: mailboxes, barrier, collective slots.
class CommGroup : public std::enable_shared_from_this<CommGroup> {
public:
    CommGroup(int size, CommStats* stats, std::shared_ptr<AbortHub> hub)
        : size_(size),
          stats_(stats),
          hub_(std::move(hub)),
          slots_(size, nullptr),
          seqs_(size, 0),
          mail_(static_cast<std::size_t>(size)) {
        for (auto& m : mail_) m = std::make_unique<Mailbox>();
    }

    [[nodiscard]] int size() const { return size_; }
    [[nodiscard]] CommStats& stats() { return *stats_; }

    void check_abort() const {
        if (hub_->flag.load(std::memory_order_acquire)) throw AbortedError();
    }

    void abort() {
        hub_->flag.store(true, std::memory_order_release);
        std::lock_guard lk(hub_->mx);
        for (auto& wg : hub_->groups) {
            if (auto g = wg.lock()) g->wake_all();
        }
    }

    void wake_all() {
        {
            std::lock_guard lk(bar_mx_);
            bar_cv_.notify_all();
        }
        for (auto& m : mail_) {
            std::lock_guard lk(m->mx);
            m->cv.notify_all();
        }
    }

    // Abortable sense-reversing barrier.
    void barrier_wait() {
        check_abort();
        std::unique_lock lk(bar_mx_);
        const bool my_sense = bar_sense_;
        if (++bar_count_ == size_) {
            bar_count_ = 0;
            bar_sense_ = !bar_sense_;
            bar_cv_.notify_all();
        } else {
            bar_cv_.wait(lk, [&] {
                return bar_sense_ != my_sense ||
                       hub_->flag.load(std::memory_order_acquire);
            });
        }
        lk.unlock();
        check_abort();
    }

    // -- point-to-point ------------------------------------------------------

    static std::uint64_t key_of(int src, int tag) {
        return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
                << 32) |
               static_cast<std::uint32_t>(tag);
    }

    void deliver(int src, int dst, int tag, Buffer msg) {
        auto& box = *mail_[static_cast<std::size_t>(dst)];
        {
            std::lock_guard lk(box.mx);
            box.queues[key_of(src, tag)].push_back(std::move(msg));
        }
        box.cv.notify_all();
    }

    Buffer take(int self, int src, int tag) {
        auto& box = *mail_[static_cast<std::size_t>(self)];
        const auto key = key_of(src, tag);
        std::unique_lock lk(box.mx);
        box.cv.wait(lk, [&] {
            auto it = box.queues.find(key);
            return (it != box.queues.end() && !it->second.empty()) ||
                   hub_->flag.load(std::memory_order_acquire);
        });
        check_abort();
        auto it = box.queues.find(key);
        Buffer msg = std::move(it->second.front());
        it->second.pop_front();
        if (it->second.empty()) box.queues.erase(it);
        return msg;
    }

    // -- collective plumbing --------------------------------------------------

    /// Per-rank collective sequence number; in lockstep across ranks because
    /// collectives are invoked in the same order on every rank.
    std::uint32_t next_seq(int rank) {
        return seqs_[static_cast<std::size_t>(rank)]++;
    }

    /// Internal tag for the seq-th collective.
    static int coll_tag(std::uint32_t seq) {
        return kUserTagLimit + static_cast<int>(seq % (1u << 10));
    }

    /// Internal tag for the seq-th async post. Disjoint from coll_tag's range
    /// and wide enough that outstanding posts never collide (a post/wait pair
    /// would need 2^20 younger siblings in flight to wrap).
    static int async_tag(std::uint32_t seq) {
        return kUserTagLimit + (1 << 10) + static_cast<int>(seq % (1u << 20));
    }

    /// Publish-and-exchange slot area; protocol: write slot, barrier, read
    /// peers' slots, barrier.
    const void*& slot(int rank) { return slots_[static_cast<std::size_t>(rank)]; }

    Comm do_split(int self, int color, int key, std::uint32_t seq);

private:
    struct Mailbox {
        std::mutex mx;
        std::condition_variable cv;
        std::map<std::uint64_t, std::deque<Buffer>> queues;
    };

    struct SplitState {
        struct Entry {
            int color, key, rank;
        };
        std::vector<Entry> entries;
        // old world rank -> (group, new rank)
        std::map<int, std::pair<std::shared_ptr<CommGroup>, int>> assignment;
    };

    int size_;
    CommStats* stats_;
    std::shared_ptr<AbortHub> hub_;

    std::mutex bar_mx_;
    std::condition_variable bar_cv_;
    int bar_count_ = 0;
    bool bar_sense_ = false;

    std::vector<const void*> slots_;
    std::vector<std::uint32_t> seqs_;
    std::vector<std::unique_ptr<Mailbox>> mail_;

    std::mutex split_mx_;
    std::map<std::uint64_t, SplitState> splits_;
};

Comm CommGroup::do_split(int self, int color, int key, std::uint32_t seq) {
    {
        std::lock_guard lk(split_mx_);
        splits_[seq].entries.push_back({color, key, self});
    }
    barrier_wait();
    if (self == 0) {
        std::lock_guard lk(split_mx_);
        auto& st = splits_[seq];
        std::stable_sort(st.entries.begin(), st.entries.end(),
                         [](const auto& a, const auto& b) {
                             return std::tie(a.color, a.key, a.rank) <
                                    std::tie(b.color, b.key, b.rank);
                         });
        for (std::size_t i = 0; i < st.entries.size();) {
            std::size_t j = i;
            while (j < st.entries.size() &&
                   st.entries[j].color == st.entries[i].color)
                ++j;
            auto group = std::make_shared<CommGroup>(static_cast<int>(j - i),
                                                     stats_, hub_);
            hub_->register_group(group);
            for (std::size_t k = i; k < j; ++k)
                st.assignment[st.entries[k].rank] = {group,
                                                     static_cast<int>(k - i)};
            i = j;
        }
    }
    barrier_wait();
    std::shared_ptr<CommGroup> group;
    int new_rank = -1;
    {
        std::lock_guard lk(split_mx_);
        auto& [g, r] = splits_[seq].assignment.at(self);
        group = g;
        new_rank = r;
    }
    barrier_wait();
    if (self == 0) {
        std::lock_guard lk(split_mx_);
        splits_.erase(seq);
    }
    return Comm(std::move(group), new_rank);
}

}  // namespace detail

// -- Comm ---------------------------------------------------------------------

int Comm::size() const { return group_->size(); }

CommStats& Comm::stats() const { return group_->stats(); }

void Comm::send(int dst, int tag, Buffer msg) {
    assert(tag >= 0 && tag < kUserTagLimit);
    group_->check_abort();
    if (dst != rank_) {
        group_->stats().p2p_messages.fetch_add(1, std::memory_order_relaxed);
        group_->stats().p2p_bytes.fetch_add(msg.size(),
                                            std::memory_order_relaxed);
    }
    group_->deliver(rank_, dst, tag, std::move(msg));
}

Buffer Comm::recv(int src, int tag) { return group_->take(rank_, src, tag); }

Buffer Comm::sendrecv(int peer, int tag, Buffer msg) {
    if (peer == rank_) return msg;
    send(peer, tag, std::move(msg));
    return recv(peer, tag);
}

void Comm::barrier() {
    group_->stats().barriers.fetch_add(1, std::memory_order_relaxed);
    group_->barrier_wait();
}

// -- non-blocking collectives -------------------------------------------------
//
// Both posts push the payload straight into peer mailboxes (deliver never
// blocks), so a post completes locally regardless of where the peers are;
// wait() then drains the mailbox with the same (source, tag) matching as
// point-to-point traffic. The per-rank lockstep sequence number guarantees
// the n-th post on every rank carries the same tag, whatever else is in
// flight. The blocking bcast and alltoallv are a post followed by its wait,
// so each of the two collectives has one transport.

Comm::PendingBcast Comm::ibcast(int root, Buffer msg) {
    auto& g = *group_;
    g.stats().collectives.fetch_add(1, std::memory_order_relaxed);
    g.stats().async_posted.fetch_add(1, std::memory_order_relaxed);
    const int tag = detail::CommGroup::async_tag(g.next_seq(rank_));
    g.check_abort();
    if (rank_ == root) {
        for (int dst = 0; dst < g.size(); ++dst) {
            if (dst == root) continue;
            g.deliver(rank_, dst, tag, msg);
        }
    }
    return PendingBcast(group_, rank_, root, tag, std::move(msg));
}

Buffer Comm::PendingBcast::wait() {
    auto& g = *group_;
    Buffer out;
    if (rank_ == root_) {
        g.check_abort();
        out = std::move(own_);
    } else {
        out = g.take(rank_, root_, tag_);
        g.stats().bcast_bytes.fetch_add(out.size(), std::memory_order_relaxed);
    }
    g.stats().async_completed.fetch_add(1, std::memory_order_relaxed);
    return out;
}

Comm::PendingAlltoallv Comm::ialltoallv(std::vector<Buffer> send) {
    auto& g = *group_;
    const int p = g.size();
    if (static_cast<int>(send.size()) != p)
        throw std::invalid_argument("ialltoallv: send.size() != comm size");
    g.stats().collectives.fetch_add(1, std::memory_order_relaxed);
    g.stats().async_posted.fetch_add(1, std::memory_order_relaxed);
    const int tag = detail::CommGroup::async_tag(g.next_seq(rank_));
    g.check_abort();
    for (int dst = 0; dst < p; ++dst) {
        if (dst == rank_) continue;
        g.deliver(rank_, dst, tag,
                  std::move(send[static_cast<std::size_t>(dst)]));
    }
    return PendingAlltoallv(group_, rank_, tag,
                            std::move(send[static_cast<std::size_t>(rank_)]));
}

std::vector<Buffer> Comm::PendingAlltoallv::wait() {
    auto& g = *group_;
    std::vector<Buffer> out(static_cast<std::size_t>(g.size()));
    std::uint64_t bytes = 0;
    for (int s = 0; s < g.size(); ++s) {
        if (s == rank_) continue;
        out[static_cast<std::size_t>(s)] = g.take(rank_, s, tag_);
        bytes += out[static_cast<std::size_t>(s)].size();
    }
    g.stats().alltoall_bytes.fetch_add(bytes, std::memory_order_relaxed);
    out[static_cast<std::size_t>(rank_)] = std::move(own_);
    g.stats().async_completed.fetch_add(1, std::memory_order_relaxed);
    return out;
}

Buffer Comm::bcast(int root, Buffer msg) {
    return ibcast(root, std::move(msg)).wait();
}

std::vector<Buffer> Comm::alltoallv(std::vector<Buffer> send) {
    return ialltoallv(std::move(send)).wait();
}

std::vector<Buffer> Comm::gather(int root, Buffer msg) {
    auto& g = *group_;
    const int p = g.size();
    g.stats().collectives.fetch_add(1, std::memory_order_relaxed);
    (void)g.next_seq(rank_);
    g.slot(rank_) = &msg;
    g.barrier_wait();
    std::vector<Buffer> out;
    if (rank_ == root) {
        out.resize(static_cast<std::size_t>(p));
        std::uint64_t bytes = 0;
        for (int s = 0; s < p; ++s) {
            if (s == rank_) continue;
            out[static_cast<std::size_t>(s)] =
                *static_cast<const Buffer*>(g.slot(s));
            bytes += out[static_cast<std::size_t>(s)].size();
        }
        g.stats().gather_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    g.barrier_wait();
    if (rank_ == root) out[static_cast<std::size_t>(rank_)] = std::move(msg);
    return out;
}

std::vector<Buffer> Comm::allgather(Buffer msg) {
    auto& g = *group_;
    const int p = g.size();
    g.stats().collectives.fetch_add(1, std::memory_order_relaxed);
    (void)g.next_seq(rank_);
    g.slot(rank_) = &msg;
    g.barrier_wait();
    std::vector<Buffer> out(static_cast<std::size_t>(p));
    std::uint64_t bytes = 0;
    for (int s = 0; s < p; ++s) {
        if (s == rank_) continue;
        out[static_cast<std::size_t>(s)] = *static_cast<const Buffer*>(g.slot(s));
        bytes += out[static_cast<std::size_t>(s)].size();
    }
    g.stats().gather_bytes.fetch_add(bytes, std::memory_order_relaxed);
    g.barrier_wait();
    out[static_cast<std::size_t>(rank_)] = std::move(msg);
    return out;
}

Buffer Comm::reduce_merge(int root, Buffer mine,
                          const std::function<Buffer(Buffer, Buffer)>& merge) {
    auto& g = *group_;
    const int p = g.size();
    g.stats().collectives.fetch_add(1, std::memory_order_relaxed);
    const auto seq = g.next_seq(rank_);
    const int tag = detail::CommGroup::coll_tag(seq);
    const int rel = (rank_ - root + p) % p;
    Buffer acc = std::move(mine);
    for (int step = 1; step < p; step <<= 1) {
        if (rel & step) {
            const int dst = ((rel - step) + root) % p;
            g.stats().p2p_messages.fetch_add(1, std::memory_order_relaxed);
            g.stats().reduce_bytes.fetch_add(acc.size(),
                                             std::memory_order_relaxed);
            g.deliver(rank_, dst, tag, std::move(acc));
            return {};
        }
        if (rel + step < p) {
            const int src = ((rel + step) + root) % p;
            Buffer other = g.take(rank_, src, tag);
            acc = merge(std::move(acc), std::move(other));
        }
    }
    return acc;
}

void Comm::allreduce_or(std::vector<std::uint64_t>& words) {
    Buffer msg(words.size() * sizeof(std::uint64_t));
    std::memcpy(msg.data(), words.data(), msg.size());
    auto all = allgather(std::move(msg));
    for (int s = 0; s < size(); ++s) {
        if (s == rank_) continue;
        const auto& buf = all[static_cast<std::size_t>(s)];
        if (buf.size() != words.size() * sizeof(std::uint64_t))
            throw std::invalid_argument("allreduce_or: size mismatch");
        const auto* other =
            reinterpret_cast<const std::uint64_t*>(buf.data());
        for (std::size_t i = 0; i < words.size(); ++i) words[i] |= other[i];
    }
}

Comm Comm::split(int color, int key) {
    auto& g = *group_;
    g.stats().collectives.fetch_add(1, std::memory_order_relaxed);
    const auto seq = g.next_seq(rank_);
    return g.do_split(rank_, color, key, seq);
}

// -- World ----------------------------------------------------------------------

void World::run(int p, const std::function<void(Comm&)>& fn) {
    if (p <= 0) throw std::invalid_argument("World::run: p must be positive");
    auto hub = std::make_shared<detail::AbortHub>();
    auto stats = std::make_unique<CommStats>();
    auto group = std::make_shared<detail::CommGroup>(p, stats.get(), hub);
    hub->register_group(group);

    std::mutex err_mx;
    std::exception_ptr first_error;
    auto body = [&](int rank) {
        Comm comm(group, rank);
        // Tag trace spans emitted by this thread with its rank. p == 1 runs
        // on the caller's thread, so clear the tag again on exit.
        Profiler::set_thread_rank(rank);
        try {
            fn(comm);
        } catch (const AbortedError&) {
            // Collateral of another rank's failure; that rank reports.
        } catch (...) {
            {
                std::lock_guard lk(err_mx);
                if (!first_error) first_error = std::current_exception();
            }
            group->abort();
        }
        Profiler::set_thread_rank(-1);
    };

    if (p == 1) {
        body(0);
    } else {
        std::vector<std::thread> threads;
        threads.reserve(static_cast<std::size_t>(p));
        for (int r = 0; r < p; ++r) threads.emplace_back(body, r);
        for (auto& t : threads) t.join();
    }
    if (first_error) std::rethrow_exception(first_error);
}

}  // namespace dsg::par
