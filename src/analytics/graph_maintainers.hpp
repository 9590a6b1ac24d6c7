// Adapters porting the dynamic graph-algorithm classes of
// src/graph/algorithms.hpp onto the analytics Maintainer interface, so a
// stream of raw ADD/MERGE/MASK ops keeps their derived values live:
//
//  - LiveTriangleMaintainer   — DynamicTriangleCounter over the undirected
//    simple graph induced by the stream (ADD inserts an edge, MASK removes
//    it); robust to duplicate ADDs, re-ADDs of live edges, MASKs of absent
//    edges, and insert-then-delete of the same edge within one epoch;
//  - LiveDistanceMaintainer   — DynamicMultiSourceProduct over (min,+):
//    ADDs are algebraic weight decreases / edge insertions;
//  - LiveContractionMaintainer — DynamicContraction: every ADD contributes
//    its weight to the (cluster(i), cluster(j)) cell.
//
// Each adapter maintains its OWN distributed matrices (the graph classes
// own their state); the engine's matrix is the raw op log's image, the
// maintainers are derived views of the same op stream. Ops a maintainer
// cannot fold (MERGEs everywhere; MASKs for the non-ring (min,+) product
// and the insertion-only contraction) are counted, not silently dropped —
// ops_skipped() makes the divergence observable.
//
// All on_epoch bodies are collective on every rank of every applied epoch,
// including ranks whose delta is empty (each maintainer issues a fixed
// sequence of collective rounds per epoch).
#pragma once

#include <atomic>
#include <cassert>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "analytics/maintainer.hpp"
#include "core/redistribute.hpp"
#include "graph/algorithms.hpp"

namespace dsg::analytics {

namespace detail {

/// Canonical pair key for dedup maps; indices fit 32 bits (the adjacency
/// dimension n bounds both coordinates, and streamed graphs here are far
/// below 2^32 vertices).
inline std::uint64_t pair_key(sparse::index_t i, sparse::index_t j) {
    assert(i >= 0 && j >= 0 && i < (sparse::index_t{1} << 32) &&
           j < (sparse::index_t{1} << 32));
    return (static_cast<std::uint64_t>(i) << 32) |
           static_cast<std::uint64_t>(j);
}
inline sparse::index_t key_row(std::uint64_t key) {
    return static_cast<sparse::index_t>(key >> 32);
}
inline sparse::index_t key_col(std::uint64_t key) {
    return static_cast<sparse::index_t>(key & 0xffffffffu);
}

}  // namespace detail

/// Live triangle count of the undirected simple graph induced by the
/// ADD/MASK stream. Per epoch:
///   1. local normalization over canonical pairs {min(i,j), max(i,j)}:
///      self-loops are dropped; a pair MASKed anywhere in the epoch nets to
///      a delete candidate (the engine applies ADDs before MASKs, so a MASK
///      wins over same-epoch ADDs of the same coordinate), otherwise to one
///      insert candidate regardless of duplicate count;
///   2. a collective membership round: candidates travel to the rank owning
///      the pair's canonical direction in the maintained adjacency (value
///      +1 = insert, -1 = delete share one redistribution); the owner
///      dedupes candidates arriving from different ranks (mask wins again)
///      and filters against current membership — inserts of live edges and
///      deletes of absent edges dissolve here, which is what upholds
///      DynamicTriangleCounter's "new edges only" / "existing edges only"
///      preconditions under arbitrary streams;
///   3. the surviving edges, both directions each, form one signed batch
///      (+1 insert, -1 delete) for DynamicTriangleCounter::update, and the
///      refreshed count is published.
/// MERGEs have no structural meaning for an unweighted graph and are
/// counted into ops_skipped().
class LiveTriangleMaintainer final : public Maintainer<double> {
public:
    LiveTriangleMaintainer(core::ProcessGrid& grid, sparse::index_t n,
                           par::ThreadPool* pool = nullptr)
        : counter_(grid, n, pool) {}

    [[nodiscard]] const char* name() const override { return "triangles"; }

    /// Seeds the graph from arbitrary edge tuples (collective): the batch
    /// runs through the same normalization + membership path as an epoch of
    /// ADDs, so duplicates and either-direction tuples are fine.
    void seed(std::vector<sparse::Triple<double>> edges) {
        stream::EpochDelta<double> delta;
        delta.adds = std::move(edges);
        on_epoch(delta);
    }

    void on_epoch(const stream::EpochDelta<double>& delta) override {
        skipped_ += delta.merges.size();

        // 1. Local per-epoch normalization (mask wins over add).
        std::unordered_map<std::uint64_t, bool> net;  // pair -> saw a MASK
        net.reserve(delta.adds.size() + delta.masks.size());
        auto fold = [&](const std::vector<sparse::Triple<double>>& ops,
                        bool is_mask) {
            for (const auto& t : ops) {
                if (t.row == t.col) {
                    ++skipped_;  // self-loops: not edges of a simple graph
                    continue;
                }
                const auto key = detail::pair_key(std::min(t.row, t.col),
                                                  std::max(t.row, t.col));
                auto [it, inserted] = net.try_emplace(key, is_mask);
                if (!inserted && is_mask) it->second = true;
            }
        };
        fold(delta.adds, false);
        fold(delta.masks, true);

        std::vector<sparse::Triple<double>> candidates;
        candidates.reserve(net.size());
        for (const auto& [key, masked] : net)
            candidates.push_back(
                {detail::key_row(key), detail::key_col(key),
                 masked ? -1.0 : 1.0});

        // 2. Collective membership resolution at the pair's owner rank.
        const auto& shape = counter_.adjacency().shape();
        auto mine = core::redistribute_tuples(shape.grid(), shape,
                                              std::move(candidates));
        std::unordered_map<std::uint64_t, bool> owner_net;
        owner_net.reserve(mine.size());
        for (const auto& t : mine) {
            auto [it, inserted] =
                owner_net.try_emplace(detail::pair_key(t.row, t.col),
                                      t.value < 0.0);
            if (!inserted && t.value < 0.0) it->second = true;
        }
        std::vector<sparse::Triple<double>> edges;
        edges.reserve(2 * owner_net.size());
        for (const auto& [key, masked] : owner_net) {
            const sparse::index_t i = detail::key_row(key);
            const sparse::index_t j = detail::key_col(key);
            const bool present =
                counter_.adjacency().local().find(shape.local_row(i),
                                                  shape.local_col(j)) !=
                nullptr;
            // Inserts of live edges and deletes of absent ones dissolve.
            if (masked != present) continue;
            const double sign = masked ? -1.0 : 1.0;
            edges.push_back({i, j, sign});
            edges.push_back({j, i, sign});
        }

        // 3. The collective update runs every epoch (possibly with an
        //    empty batch) so ranks stay in lockstep.
        counter_.update(std::move(edges));
        publish();
    }

    [[nodiscard]] double snapshot() const override {
        return count_.load(std::memory_order_acquire);
    }

    /// MERGE ops and self-loops this rank could not fold into the graph.
    [[nodiscard]] std::uint64_t ops_skipped() const { return skipped_; }
    [[nodiscard]] const graph::DynamicTriangleCounter& counter() const {
        return counter_;
    }

    void save_state(par::Buffer& out) const override {
        par::BufferWriter w(out);
        w.write<std::uint64_t>(skipped_);
        w.write<double>(count_.load(std::memory_order_acquire));
        counter_.save(out);
    }
    void load_state(par::BufferReader& in) override {
        skipped_ = in.read<std::uint64_t>();
        count_.store(in.read<double>(), std::memory_order_release);
        counter_.load(in);
    }

private:
    // Collective: one scalar all-reduce of the counter's incrementally kept
    // share, so publishing costs no scan. The distance and contraction
    // maintainers instead rescan their local derived state on publish.
    void publish() {
        count_.store(counter_.count(), std::memory_order_release);
    }

    graph::DynamicTriangleCounter counter_;
    std::atomic<double> count_{0.0};
    std::uint64_t skipped_ = 0;
};

/// Live multi-source one-hop (min,+) product D = S·A: every ADD is folded
/// as an algebraic update (edge insertion or weight decrease — duplicates
/// and re-ADDs are harmless because min is idempotent, and a higher re-ADD
/// weight simply loses the min). The published scalar is the sum of all
/// finite distance entries; reached_pairs() counts them. MERGEs and MASKs
/// can increase values, which (min,+) cannot express algebraically
/// (Algorithm 2 territory) — they are counted into ops_skipped().
class LiveDistanceMaintainer final : public Maintainer<double> {
public:
    LiveDistanceMaintainer(core::ProcessGrid& grid, sparse::index_t n,
                           const std::vector<sparse::index_t>& sources,
                           par::ThreadPool* pool = nullptr)
        : product_(grid, n, sources, pool) {}

    [[nodiscard]] const char* name() const override { return "distance-sum"; }

    /// Seeds the graph (collective); edge values are (min,+) weights.
    void seed(std::vector<sparse::Triple<double>> edges) {
        product_.initialize(std::move(edges));
        publish();
    }

    void on_epoch(const stream::EpochDelta<double>& delta) override {
        skipped_ += delta.merges.size() + delta.masks.size();
        product_.apply_decreases(delta.adds);  // collective
        publish();
    }

    [[nodiscard]] double snapshot() const override {
        return sum_.load(std::memory_order_acquire);
    }

    /// Number of (source, vertex) pairs currently reached in one hop.
    [[nodiscard]] std::uint64_t reached_pairs() const {
        return reached_.load(std::memory_order_acquire);
    }
    /// MERGE/MASK ops the (min,+) algebra cannot fold.
    [[nodiscard]] std::uint64_t ops_skipped() const { return skipped_; }
    [[nodiscard]] const graph::DynamicMultiSourceProduct& product() const {
        return product_;
    }

    void save_state(par::Buffer& out) const override {
        par::BufferWriter w(out);
        w.write<std::uint64_t>(skipped_);
        w.write<double>(sum_.load(std::memory_order_acquire));
        w.write<std::uint64_t>(reached_.load(std::memory_order_acquire));
        product_.save(out);
    }
    void load_state(par::BufferReader& in) override {
        skipped_ = in.read<std::uint64_t>();
        sum_.store(in.read<double>(), std::memory_order_release);
        reached_.store(in.read<std::uint64_t>(), std::memory_order_release);
        product_.load(in);
    }

private:
    void publish() {  // collective: struct all-reduce over a local rescan
        struct Agg {
            double sum;
            std::uint64_t reached;
        };
        Agg local{0.0, 0};
        product_.distances().local().for_each(
            [&](sparse::index_t, sparse::index_t, double v) {
                local.sum += v;
                ++local.reached;
            });
        const Agg g =
            product_.distances().shape().grid().world().allreduce(
                local, [](Agg a, Agg b) {
                    return Agg{a.sum + b.sum, a.reached + b.reached};
                });
        sum_.store(g.sum, std::memory_order_release);
        reached_.store(g.reached, std::memory_order_release);
    }

    graph::DynamicMultiSourceProduct product_;
    std::atomic<double> sum_{0.0};
    std::atomic<std::uint64_t> reached_{0};
    std::uint64_t skipped_ = 0;
};

/// Live cluster contraction C = Sᵀ A S: every ADD contributes its weight to
/// the (cluster(row), cluster(col)) cell, so duplicate coordinates are
/// well-defined (weights accumulate). The published scalar is the total
/// contracted weight (sum over all cells). DynamicContraction is
/// insertion-only, so MERGEs and MASKs are counted into ops_skipped().
class LiveContractionMaintainer final : public Maintainer<double> {
public:
    LiveContractionMaintainer(core::ProcessGrid& grid, sparse::index_t n,
                              sparse::index_t clusters,
                              const std::vector<sparse::index_t>& assignment,
                              par::ThreadPool* pool = nullptr)
        : contraction_(grid, n, clusters, assignment, pool) {}

    [[nodiscard]] const char* name() const override {
        return "contraction-weight";
    }

    /// Seeds the graph (collective); same semantics as an epoch of ADDs.
    void seed(std::vector<sparse::Triple<double>> edges) {
        contraction_.insert_edges(std::move(edges));
        publish();
    }

    void on_epoch(const stream::EpochDelta<double>& delta) override {
        skipped_ += delta.merges.size() + delta.masks.size();
        contraction_.insert_edges(delta.adds);  // collective
        publish();
    }

    [[nodiscard]] double snapshot() const override {
        return weight_.load(std::memory_order_acquire);
    }

    /// MERGE/MASK ops the insertion-only contraction cannot fold.
    [[nodiscard]] std::uint64_t ops_skipped() const { return skipped_; }
    [[nodiscard]] const graph::DynamicContraction& contraction() const {
        return contraction_;
    }

    void save_state(par::Buffer& out) const override {
        par::BufferWriter w(out);
        w.write<std::uint64_t>(skipped_);
        w.write<double>(weight_.load(std::memory_order_acquire));
        contraction_.save(out);
    }
    void load_state(par::BufferReader& in) override {
        skipped_ = in.read<std::uint64_t>();
        weight_.store(in.read<double>(), std::memory_order_release);
        contraction_.load(in);
    }

private:
    void publish() {  // collective: scalar all-reduce over a local rescan
        double local = 0.0;
        contraction_.contracted().local().for_each(
            [&](sparse::index_t, sparse::index_t, double v) { local += v; });
        const double total =
            contraction_.contracted().shape().grid().world().allreduce<double>(
                local, [](double a, double b) { return a + b; });
        weight_.store(total, std::memory_order_release);
    }

    graph::DynamicContraction contraction_;
    std::atomic<double> weight_{0.0};
    std::uint64_t skipped_ = 0;
};

}  // namespace dsg::analytics
