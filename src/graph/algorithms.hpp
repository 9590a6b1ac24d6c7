// Algebraic graph algorithms on top of the distributed SpGEMM stack — the
// application classes the paper's introduction motivates, each in a static
// and a dynamic (incrementally maintained) variant:
//
//  - triangle_count / DynamicTriangleCounter — exact triangle counting via
//    masked SUMMA, maintained as the canonical half of C = A·A under signed
//    batches that mix edge insertions and deletions (deletions are
//    algebraic in the (+,*) ring), one symmetric Algorithm 1 term each;
//  - khop_distances / DynamicMultiSourceProduct — multi-source (min,+)
//    shortest distances; the dynamic class maintains the one-hop product
//    D = S·A under algebraic updates (insertions / weight decreases);
//  - DynamicContraction — cluster contraction C = Sᵀ·A·S maintained under
//    batch edge insertions via the transposed variant of Algorithm 1.
//
// The free helper source_selector is the small algebra the classes share.
// For continuously maintaining these values against a live op stream, see
// the adapters in src/analytics/graph_maintainers.hpp.
#pragma once

#include <stdexcept>
#include <vector>

#include "core/dynamic_spgemm.hpp"
#include "core/ewise.hpp"
#include "core/summa.hpp"
#include "core/update_ops.hpp"
#include "par/buffer.hpp"
#include "sparse/semiring.hpp"

namespace dsg::graph {

using core::DistDynamicMatrix;
using core::ProcessGrid;

namespace detail {

/// Replaces a distributed matrix's local block with a tile deserialized
/// from a checkpoint blob (src/persist/), validating the block shape. The
/// distribution itself is not serialized — the caller reconstructs the
/// object on the same grid, which recovery verifies against the manifest.
inline void restore_local_block(DistDynamicMatrix<double>& m,
                                par::BufferReader& r) {
    auto tile = sparse::DynamicMatrix<double>::deserialize(r);
    if (tile.nrows() != m.local().nrows() || tile.ncols() != m.local().ncols())
        throw std::runtime_error(
            "restore_local_block: tile shape disagrees with this rank's "
            "block (was the checkpoint taken on a different grid?)");
    m.local() = tile;
}

}  // namespace detail

/// Exact triangle count of an undirected simple graph given as a 0/1
/// adjacency matrix (both edge directions present, no self loops):
/// sum((A*A) .* A) = 6 * triangles. Uses masked SUMMA, so only the entries
/// under the mask are ever formed. Collective.
inline double triangle_count(const DistDynamicMatrix<double>& A,
                             par::ThreadPool* pool = nullptr) {
    sparse::PairSet mask(A.shape().local_cols(), A.local().nnz());
    A.local().for_each(
        [&](sparse::index_t i, sparse::index_t j, double) { mask.insert(i, j); });
    core::SummaOptions opts;
    opts.local_mask = &mask;
    opts.pool = pool;
    auto C = core::summa_multiply<sparse::PlusTimes<double>>(A, A, opts);
    double local = 0.0;
    C.local().for_each(
        [&](sparse::index_t, sparse::index_t, double v) { local += v; });
    const double total = A.shape().grid().world().allreduce<double>(
        local, [](double a, double b) { return a + b; });
    return total / 6.0;
}

/// Maintains A and C = A*A under batches of edge insertions and removals,
/// supporting an O(batch)-communication triangle count after every batch.
///
/// A batch is one signed update matrix A* = A' - A: in the (+,*) ring a
/// removal is the algebraic update a* = -1 (Section V: "A* can simply be
/// computed as A' - A in rings"), so inserts and removals travel together.
/// A and A* are symmetric, so C is too, and it is kept as its canonical half
/// (core::is_canonical: one orientation of each unordered pair, no
/// diagonal, which the count never reads). With W = (A + A*/2) A*, the
/// distributive expansion of A'A' gives C' - C = W + W^T exactly, so one
/// Algorithm 1 term per batch maintains C (core::dynamic_spgemm_symmetric):
/// A <- A + A*/2, the term with that A as the stored operand, then
/// A <- A + A*/2 again. Values stay multiples of 1/2, which a double holds
/// exactly, and every entry of A or C that cancels to zero is erased, so
/// neither matrix stores a zero.
///
/// The count is kept incrementally: each rank holds its share of
/// <C, A> = sum(C .* A) = 6 * triangles over the full symmetric C, and
/// moves it by 6 * (change in triangles) = (s_before + s_after)/2 + 2t.
/// Here s = <C, A*> is read before and after the term, two lookups into C
/// per canonical entry of the rank's block of A*, and t is the term's own
/// share of <W, A + A*/2>. No step of a batch scans all of A or C.
class DynamicTriangleCounter {
public:
    DynamicTriangleCounter(ProcessGrid& grid, sparse::index_t n,
                           par::ThreadPool* pool = nullptr)
        : a_(grid, n, n), c_(grid, n, n), pool_(pool) {}

    /// Seeds the graph (collective): update() with an all-insert batch. Edge
    /// tuples must contain both directions of each undirected edge, value
    /// 1.0.
    void initialize(std::vector<sparse::Triple<double>> edges) {
        update(std::move(edges));
    }

    /// Applies one batch of signed edge updates, both directions of each
    /// undirected edge: value +1 inserts an edge not yet in the graph, -1
    /// removes one that is. C entries whose last two-hop path went away are
    /// erased by Algorithm 1 as it absorbs, so the work outside the one
    /// term is O(nnz(A*)). Collective.
    void update(std::vector<sparse::Triple<double>> edges) {
        ProcessGrid& grid = a_.shape().grid();
        const auto n = a_.shape().nrows();
        auto astar = core::build_update_matrix(grid, n, n, std::move(edges));
        core::DynamicSpgemmOptions opts;
        opts.pool = pool_;
        share_ += 0.5 * c_dot(astar.local());  // s_before / 2
        add_half(astar);                        // the stored operand A + A*/2
        share_ += 2.0 * core::dynamic_spgemm_symmetric<SR>(c_, a_, astar, opts);
        add_half(astar);                        // A' = A + A*
        share_ += 0.5 * c_dot(astar.local());  // s_after / 2
    }

    /// Current triangle count: the ranks' shares of sum(C .* A), divided by
    /// 6. Collective (one scalar all-reduce; no other work).
    [[nodiscard]] double count() const {
        const double total = a_.shape().grid().world().allreduce<double>(
            share_, [](double x, double y) { return x + y; });
        return total / 6.0;
    }

    [[nodiscard]] const DistDynamicMatrix<double>& adjacency() const {
        return a_;
    }
    /// The canonical half of C = A·A: entry (u, v) of A·A is stored at
    /// (u, v) when core::is_canonical(u, v), and at (v, u) otherwise; the
    /// diagonal is not kept.
    [[nodiscard]] const DistDynamicMatrix<double>& square() const { return c_; }

    /// Rank-local checkpoint of A and the canonical half of C = A·A
    /// (src/persist/); pair with load() on an identically constructed
    /// counter on the same grid. The count share is not stored: load()
    /// rescans it from A and C. A checkpoint whose C holds a diagonal or
    /// non-canonical entry (the full C an older build kept) is rejected
    /// with std::runtime_error.
    void save(par::Buffer& out) const {
        a_.local().serialize(out);
        c_.local().serialize(out);
    }
    void load(par::BufferReader& in) {
        detail::restore_local_block(a_, in);
        detail::restore_local_block(c_, in);
        const core::DistShape& cs = c_.shape();
        c_.local().for_each([&](sparse::index_t i, sparse::index_t j, double) {
            if (!core::is_canonical(cs.global_row(i), cs.global_col(j)))
                throw std::runtime_error(
                    "DynamicTriangleCounter::load: C holds a diagonal or "
                    "non-canonical entry (was the checkpoint taken by a "
                    "build that kept all of C?)");
        });
        share_ = c_dot(a_.local());
    }

private:
    using SR = sparse::PlusTimes<double>;

    /// A <- A + A*/2, erasing the entries that cancel. Local.
    void add_half(const core::DistDcsr<double>& astar) {
        par::Profiler::Scope scope(par::Phase::LocalAddition);
        astar.local().for_each([&](sparse::index_t i, sparse::index_t j,
                                   double v) {
            a_.local().add_or_erase(i, j, 0.5 * v, SR::add, SR::zero());
        });
    }

    /// <C, M> over this rank's block for a symmetric M in C's distribution
    /// (A or A*): twice the sum of C .* M over M's canonical entries, one
    /// lookup into C each.
    template <typename Block>
    double c_dot(const Block& m) const {
        const core::DistShape& cs = c_.shape();
        double sum = 0.0;
        m.for_each([&](sparse::index_t i, sparse::index_t j, double v) {
            if (!core::is_canonical(cs.global_row(i), cs.global_col(j))) return;
            if (const double* c = c_.local().find(i, j)) sum += *c * v;
        });
        return 2.0 * sum;
    }

    DistDynamicMatrix<double> a_;
    DistDynamicMatrix<double> c_;  // canonical half of A·A
    double share_ = 0.0;  // this rank's part of sum(C .* A) = 6 * triangles
    par::ThreadPool* pool_;
};

/// Builds the source-selector matrix S (|sources| x n) over (min,+): row s
/// has a single entry one() = 0 at column sources[s]. Collective.
inline DistDynamicMatrix<double> source_selector(
    ProcessGrid& grid, sparse::index_t n,
    const std::vector<sparse::index_t>& sources) {
    DistDynamicMatrix<double> S(grid, static_cast<sparse::index_t>(sources.size()),
                                n);
    std::vector<sparse::Triple<double>> entries;
    if (grid.world().rank() == 0) {
        for (std::size_t s = 0; s < sources.size(); ++s)
            entries.push_back({static_cast<sparse::index_t>(s), sources[s],
                               sparse::MinPlus<double>::one()});
    }
    auto update = core::build_update_matrix(grid, S.shape().nrows(), n,
                                            std::move(entries));
    core::add_update<sparse::MinPlus<double>>(S, update);
    return S;
}

/// Multi-source shortest distances within at most `hops` hops over (min,+):
/// D = min(S A, S A^2, ..., S A^hops). Entry (s, v) is the length of the
/// shortest s -> v path using <= hops edges (absent = unreachable; a source
/// reaches itself only via an actual cycle, matching the algebraic product).
/// Collective.
inline DistDynamicMatrix<double> khop_distances(
    const DistDynamicMatrix<double>& A, DistDynamicMatrix<double>& S, int hops,
    par::ThreadPool* pool = nullptr) {
    core::SummaOptions opts;
    opts.pool = pool;
    auto D = core::summa_multiply<sparse::MinPlus<double>>(S, A, opts);
    auto frontier = D;  // S A^h
    for (int h = 2; h <= hops; ++h) {
        frontier =
            core::summa_multiply<sparse::MinPlus<double>>(frontier, A, opts);
        core::ewise_add(D, frontier,
                        [](double a, double b) { return std::min(a, b); });
    }
    return D;
}

/// Maintains the one-hop product D = S A over (min,+) under *algebraic*
/// updates of A (new edges or weight decreases): D' = D min S A*, one
/// Algorithm 1 call for the term of a right update (S never changes).
class DynamicMultiSourceProduct {
public:
    DynamicMultiSourceProduct(ProcessGrid& grid, sparse::index_t n,
                              const std::vector<sparse::index_t>& sources,
                              par::ThreadPool* pool = nullptr)
        : s_(source_selector(grid, n, sources)),
          a_(grid, n, n),
          d_(grid, static_cast<sparse::index_t>(sources.size()), n),
          pool_(pool) {}

    /// Seeds the graph (collective); edge values are (min,+) weights.
    void initialize(std::vector<sparse::Triple<double>> edges) {
        auto update = core::build_update_matrix(a_.shape().grid(),
                                                a_.shape().nrows(),
                                                a_.shape().ncols(),
                                                std::move(edges));
        core::add_update<sparse::MinPlus<double>>(a_, update, pool_);
        core::SummaOptions opts;
        opts.pool = pool_;
        d_ = core::summa_multiply<sparse::MinPlus<double>>(s_, a_, opts);
    }

    /// Algebraic batch: inserts edges / lowers weights; D is maintained with
    /// one dynamic SpGEMM round over the hypersparse A*. Collective.
    void apply_decreases(std::vector<sparse::Triple<double>> edges) {
        ProcessGrid& grid = a_.shape().grid();
        const auto n = a_.shape().nrows();
        auto astar = core::build_update_matrix(grid, n, n, std::move(edges));
        core::DynamicSpgemmOptions opts;
        opts.pool = pool_;
        // D' = D min (S A*): the term of a right update; S is unchanged.
        core::add_update<sparse::MinPlus<double>>(a_, astar, pool_);
        core::dynamic_spgemm_algebraic<sparse::MinPlus<double>>(d_, s_, astar,
                                                                opts);
    }

    [[nodiscard]] const DistDynamicMatrix<double>& distances() const {
        return d_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& adjacency() const {
        return a_;
    }
    [[nodiscard]] DistDynamicMatrix<double>& selector() { return s_; }

    /// Rank-local checkpoint of S, A, and D = S·A (src/persist/).
    void save(par::Buffer& out) const {
        s_.local().serialize(out);
        a_.local().serialize(out);
        d_.local().serialize(out);
    }
    void load(par::BufferReader& in) {
        detail::restore_local_block(s_, in);
        detail::restore_local_block(a_, in);
        detail::restore_local_block(d_, in);
    }

private:
    DistDynamicMatrix<double> s_;
    DistDynamicMatrix<double> a_;
    DistDynamicMatrix<double> d_;
    par::ThreadPool* pool_;
};

/// Maintains a graph contraction C = S^T A S under edge insertions — the
/// second application the paper's introduction motivates. S is the n x s
/// cluster-assignment selector (one 1 per row); entry C(a, b) accumulates
/// the total weight of edges from cluster a to cluster b.
///
/// Both stages stay dynamic, one term of Eq. 1 each: T = A S follows A*
/// through the left-update term of Algorithm 1 (which also emits T* = A* S),
/// and C = S^T T follows T* through the right-update term S^T T* of the
/// transposed variant (Section V-C), whose entries go straight to their
/// owners. Per batch, only hypersparse matrices cross rank boundaries.
class DynamicContraction {
public:
    /// assignment[v] = cluster of vertex v (in [0, clusters)); identical on
    /// every rank. Collective.
    DynamicContraction(ProcessGrid& grid, sparse::index_t n,
                       sparse::index_t clusters,
                       const std::vector<sparse::index_t>& assignment,
                       par::ThreadPool* pool = nullptr)
        : a_(grid, n, n),
          s_(grid, n, clusters),
          t_(grid, n, clusters),
          c_(grid, clusters, clusters),
          pool_(pool) {
        std::vector<sparse::Triple<double>> entries;
        if (grid.world().rank() == 0) {
            entries.reserve(assignment.size());
            for (std::size_t v = 0; v < assignment.size(); ++v)
                entries.push_back({static_cast<sparse::index_t>(v),
                                   assignment[v], 1.0});
        }
        auto update = core::build_update_matrix(grid, n, clusters,
                                                std::move(entries));
        core::add_update<sparse::PlusTimes<double>>(s_, update, pool_);
    }

    /// Inserts weighted edges into A and updates T = A S and C = S^T A S
    /// dynamically. Collective.
    void insert_edges(std::vector<sparse::Triple<double>> edges) {
        ProcessGrid& grid = a_.shape().grid();
        const auto n = a_.shape().nrows();
        const auto s = s_.shape().ncols();
        auto astar = core::build_update_matrix(grid, n, n, std::move(edges));
        core::DynamicSpgemmOptions opts;
        opts.pool = pool_;

        // Stage 1: T += A* S, capturing T* = A* S for the next stage.
        DistDynamicMatrix<double> tstar_dyn(grid, n, s);
        core::dynamic_spgemm_algebraic<sparse::PlusTimes<double>>(
            t_, astar, s_, opts, &tstar_dyn);
        core::add_update<sparse::PlusTimes<double>>(a_, astar, pool_);

        // Stage 2: C += S^T T* (transposed-left dynamic SpGEMM).
        core::DistDcsr<double> tstar(grid, n, s);
        tstar.local() = tstar_dyn.local().to_dcsr();
        core::dynamic_spgemm_algebraic_transA<sparse::PlusTimes<double>>(
            c_, s_, tstar, opts);
    }

    [[nodiscard]] const DistDynamicMatrix<double>& contracted() const {
        return c_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& adjacency() const {
        return a_;
    }
    [[nodiscard]] const DistDynamicMatrix<double>& selector() const {
        return s_;
    }

    /// Rank-local checkpoint of A, S, T = A·S, C = SᵀAS (src/persist/).
    void save(par::Buffer& out) const {
        a_.local().serialize(out);
        s_.local().serialize(out);
        t_.local().serialize(out);
        c_.local().serialize(out);
    }
    void load(par::BufferReader& in) {
        detail::restore_local_block(a_, in);
        detail::restore_local_block(s_, in);
        detail::restore_local_block(t_, in);
        detail::restore_local_block(c_, in);
    }

private:
    DistDynamicMatrix<double> a_;
    DistDynamicMatrix<double> s_;
    DistDynamicMatrix<double> t_;  // A S
    DistDynamicMatrix<double> c_;  // S^T A S
    par::ThreadPool* pool_;
};

}  // namespace dsg::graph
