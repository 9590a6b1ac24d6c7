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
// maintainers are derived views of the same op stream. They start from the
// epoch's owner-side blocks (EpochDelta::owned_*), which the engine has
// already routed, so no maintainer routes the epoch's ops again. Ops a
// maintainer cannot fold (MERGEs everywhere; MASKs for the non-ring (min,+)
// product and the insertion-only contraction) are counted, not silently
// dropped — ops_skipped() makes the divergence observable.
//
// All on_epoch bodies are collective on every rank of every applied epoch,
// including ranks whose delta is empty (each maintainer issues a fixed
// sequence of collective rounds per epoch). Each throws
// std::invalid_argument, before any collective, when the delta's blocks are
// not cut like its matrices.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "analytics/maintainer.hpp"
#include "core/update_ops.hpp"
#include "graph/algorithms.hpp"
#include "par/profiler.hpp"
#include "sparse/dcsr_ops.hpp"

namespace dsg::analytics {

/// Live triangle count of the undirected simple graph induced by the
/// ADD/MASK stream. Per epoch, starting from the owner-side ADD and MASK
/// blocks:
///   1. each rank sends the mirror (j, i) of every op (i, j) it owns to the
///      owner of (j, i), in one world all-to-all, so both owners of a pair
///      hold all of the pair's ops; self-loops are dropped;
///   2. each owner folds a coordinate's ops into one, a MASK winning over
///      ADDs (the engine applies ADDs before MASKs), and drops the ops its
///      own entry of A already satisfies: inserts of live edges and deletes
///      of absent edges dissolve here, which is what upholds
///      DynamicTriangleCounter's "new edges only" / "existing edges only"
///      preconditions under arbitrary streams. A is symmetric, so the two
///      owners of a pair decide alike, and what is left is this rank's
///      block of the epoch's signed A* (+1 insert, -1 delete);
///   3. DynamicTriangleCounter::update runs on that A*, and the refreshed
///      count is published.
/// MERGEs have no structural meaning for an unweighted graph and are
/// counted into ops_skipped(), as are self-loops.
class LiveTriangleMaintainer final : public Maintainer<double> {
public:
    LiveTriangleMaintainer(core::ProcessGrid& grid, sparse::index_t n,
                           par::ThreadPool* pool = nullptr)
        : counter_(grid, n, pool) {}

    [[nodiscard]] const char* name() const override { return "triangles"; }

    /// Seeds the graph from arbitrary edge tuples (collective): the batch
    /// is routed to its owners and runs through the same path as an epoch
    /// of ADDs, so duplicates and either-direction tuples are fine.
    void seed(std::vector<sparse::Triple<double>> edges) {
        const core::DistShape& shape = counter_.adjacency().shape();
        stream::EpochDelta<double> delta;
        delta.owned_adds = core::build_update_matrix(
            shape.grid(), shape.nrows(), shape.ncols(), edges);
        delta.owned_masks =
            core::DistDcsr<double>(shape.grid(), shape.nrows(), shape.ncols());
        delta.adds = std::move(edges);
        on_epoch(delta);
    }

    void on_epoch(const stream::EpochDelta<double>& delta) override {
        // The collective update runs every epoch (possibly with an empty
        // A*) so ranks stay in lockstep.
        counter_.update(signed_update(delta.owned_adds, delta.owned_masks));
        skipped_ += delta.merges.size();
        for (const auto* ops : {&delta.adds, &delta.masks})
            for (const auto& t : *ops)
                if (t.row == t.col) ++skipped_;  // not edges of a simple graph
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
    /// Steps 1 and 2 of the class comment: this rank's block of the epoch's
    /// signed A*, from its owner-side ADD and MASK blocks. Collective (one
    /// world all-to-all).
    core::DistDcsr<double> signed_update(const core::DistDcsr<double>& adds,
                                         const core::DistDcsr<double>& masks) const {
        using sparse::index_t;
        using sparse::Triple;
        const auto& a = counter_.adjacency();
        const core::DistShape& shape = a.shape();
        graph::detail::require_shape(adds.shape(), shape);
        graph::detail::require_shape(masks.shape(), shape);
        par::Comm& world = shape.grid().world();

        // Value +1 is an ADD, -1 a MASK. `ops` holds this rank's ops in
        // local coordinates; mirrors[d] those of its mirrors owned by d,
        // which travel as a zero-length buffer when there are none.
        std::vector<Triple<double>> ops;
        std::vector<par::Buffer> send(static_cast<std::size_t>(world.size()));
        {
            par::Profiler::Scope scope(par::Phase::LocalConstruct);
            std::vector<std::vector<Triple<double>>> mirrors(send.size());
            auto take = [&](const core::Dcsr<double>& block, double sign) {
                block.for_each([&](index_t li, index_t lj, double) {
                    const index_t i = shape.global_row(li);
                    const index_t j = shape.global_col(lj);
                    if (i == j) return;
                    ops.push_back({li, lj, sign});
                    mirrors[static_cast<std::size_t>(shape.owner_rank(j, i))]
                        .push_back({j, i, sign});
                });
            };
            take(adds.local(), 1.0);
            take(masks.local(), -1.0);
            for (std::size_t d = 0; d < send.size(); ++d)
                if (!mirrors[d].empty())
                    par::BufferWriter(send[d]).write_vector(mirrors[d]);
        }
        std::vector<par::Buffer> recv;
        {
            par::Profiler::Scope scope(par::Phase::RedistComm);
            recv = world.alltoallv(std::move(send));
        }

        par::Profiler::Scope scope(par::Phase::LocalConstruct);
        for (const auto& buf : recv) {
            if (buf.empty()) continue;
            par::BufferReader r(buf);
            for (const auto& t : r.read_vector<Triple<double>>())
                ops.push_back({shape.local_row(t.row), shape.local_col(t.col),
                               t.value});
        }
        // Fold each coordinate's ops, MASK winning (min over +-1) ...
        const index_t rows = shape.local_rows();
        const index_t cols = shape.local_cols();
        sparse::counting_sort(ops, static_cast<std::size_t>(rows),
                              [](const Triple<double>& t) {
                                  return static_cast<std::size_t>(t.row);
                              });
        const auto grouped = core::Dcsr<double>::from_row_grouped(rows, cols, ops);
        const core::Dcsr<double>* pieces[] = {&grouped};
        const auto folded = sparse::dcsr_merge<double>(
            pieces, rows, cols, [](double x, double y) { return std::min(x, y); });
        // ... and keep what changes A: a delete of a live edge or an insert
        // of an absent one.
        ops.clear();
        folded.for_each([&](index_t i, index_t j, double v) {
            if ((v < 0.0) == (a.local().find(i, j) != nullptr))
                ops.push_back({i, j, v});
        });
        core::DistDcsr<double> astar(shape.grid(), shape.nrows(), shape.ncols());
        astar.local() = core::Dcsr<double>::from_row_grouped(rows, cols, ops);
        return astar;
    }

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
        product_.apply_decreases(delta.owned_adds);  // collective
        skipped_ += delta.merges.size() + delta.masks.size();
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
        contraction_.insert_edges(delta.owned_adds);  // collective
        skipped_ += delta.merges.size() + delta.masks.size();
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
