// Dynamic distributed SpGEMM for algebraic updates — Algorithm 1 of the
// paper and its transposed variants (Section V-C) — plus the COMPUTEPATTERN
// variant that Algorithm 2 builds on.
//
// Given C = AB and hypersparse update matrices A*, B* with A' = A + A*,
// B' = B + B* (semiring addition), distributivity gives
//     C' = C + C*,   C* = A* B' + A B*.                            (Eq. 1)
//
// The two terms are independent, and every call computes exactly one: the
// term of a left update (C += A* B') or of a right update (C += A B*). A
// two-sided update is two calls; a one-sided update pays nothing for the
// other side. (No rank could skip an empty term on its own: knowing that an
// update is empty on every rank would take another collective.)
//
// Instead of SUMMA (which would broadcast blocks of the *large* operands),
// a term moves only its hypersparse update and pays for that with a
// non-local aggregation of the partial results, in four steps
// (detail::one_term):
//
//  1. Slab. On a rows x cols grid the inner dimension K carries two
//     partitions, K^r over grid rows and K^c over grid cols. Rank (i, j)
//     assembles the update restricted to the inner block of its stored
//     operand, e.g. the slab A*[:, K^r_i] for A* B'. Where the update's own
//     inner index is split over the other grid dimension (both untransposed
//     terms), one alltoallv re-slabs it first; one allgather then assembles
//     the slab. On a square grid this is the paper's transpose send/receive
//     plus its per-round broadcasts.
//  2. Multiply. The slab is cut along C's partition of its outer index (C's
//     row blocks for A* B', column blocks for A B*), and each slice times
//     the stored block is one partial. An empty slice multiplies nothing.
//  3. Route: the sparse reduce-scatter (Sec. VI-A). Every partial entry
//     goes straight to the rank that owns its output coordinate, in one
//     alltoallv. Where the stored block's other index follows C's own
//     partition (A* B', A B*, A*^T B' and A B*^T), a partial is exactly one
//     owner's block and travels whole, down the process column or along
//     the process row. The partials of A^T B* and A* B'^T have rows or
//     columns on the stored operand's partition instead, which a
//     rectangular grid does not align with C's; their entries are split by
//     owner and sent over the world communicator. A symmetric product
//     (dynamic_spgemm_symmetric) keeps one orientation of each unordered
//     pair: an entry (u, v) goes to the owner of its canonical coordinate,
//     (u, v) itself if is_canonical(u, v) and (v, u) otherwise, over the
//     world communicator, and the diagonal is dropped. Each payload is a
//     sequence of DCSR pieces (one, or for a symmetric product up to two:
//     the entries kept in place, then the transposed ones), or a
//     zero-length buffer.
//  4. Absorb. The owner adds its own pieces and each incoming one into its
//     block of C in rank order, so the sums formed in C do not depend on
//     which message arrived first.
//
// Absorb rule (every variant, and the optional C* output): an entry whose
// sum equals SR::zero() is erased on the spot, and a zero() partial value
// creates no entry (DynamicMatrix::add_or_erase). C therefore never stores
// a structural zero, and the cancellations of a ring deletion (a* = -a,
// Sec. V) cost O(nnz(C*)) rather than a prune over all of C.
//
// Communication volume is O((nnz(A*) + nnz(B*) + nnz(C*)) / sqrt(p)) versus
// SUMMA's O((nnz(A) + nnz(B')) / sqrt(p)).
#pragma once

#include <cassert>
#include <utility>
#include <vector>

#include "core/dist_matrix.hpp"
#include "core/redistribute.hpp"
#include "par/profiler.hpp"
#include "sparse/dcsr_ops.hpp"
#include "sparse/local_spgemm.hpp"
#include "sparse/transposed_spgemm.hpp"

namespace dsg::core {

struct DynamicSpgemmOptions {
    par::ThreadPool* pool = nullptr;
};

/// Whether (u, v) is the coordinate a symmetric product stores for its
/// unordered pair: u != v, and u < v exactly when u + v is even. Unlike the
/// upper triangle, this checkerboard leaves every block of a grid about half
/// of its entries, so no rank absorbs for two.
inline bool is_canonical(index_t u, index_t v) {
    return u != v && (u < v) == ((u + v) % 2 == 0);
}

namespace detail {

/// Buckets triples by key into `buckets` packed wire buffers (the tuples are
/// reordered in place by the counting sort).
template <typename T, typename Key>
std::vector<par::Buffer> bucket_triples(std::vector<Triple<T>>& ts,
                                        int buckets, Key&& key) {
    auto offsets = sparse::counting_sort(
        ts, static_cast<std::size_t>(buckets), std::forward<Key>(key));
    std::vector<par::Buffer> send(static_cast<std::size_t>(buckets));
    for (int d = 0; d < buckets; ++d)
        send[static_cast<std::size_t>(d)] = pack_triples(
            ts.data() + offsets[static_cast<std::size_t>(d)],
            offsets[static_cast<std::size_t>(d) + 1] -
                offsets[static_cast<std::size_t>(d)]);
    return send;
}

/// Allgathers this rank's triples over `comm` and concatenates (coordinates
/// stay as passed in; callers localize afterwards).
template <typename T>
std::vector<Triple<T>> allgather_triples(par::Comm& comm,
                                         std::vector<Triple<T>> mine) {
    par::Buffer buf = pack_triples(mine.data(), mine.size());
    auto all = comm.allgather(std::move(buf));
    std::vector<Triple<T>> out;
    for (int s = 0; s < comm.size(); ++s) {
        if (s == comm.rank()) continue;
        unpack_triples(all[static_cast<std::size_t>(s)], out);
    }
    out.insert(out.end(), mine.begin(), mine.end());
    return out;
}

/// Step 1: the slab of an update block `local` (of a matrix with shape us)
/// on this rank's inner block: inner index local to K^r_i if k_row, else to
/// K^c_j; outer index global. The update's inner index is its row index if
/// inner_row (the slab is then inner x outer), else its column index.
template <typename T>
Dcsr<T> update_slab(const DistShape& us, const Dcsr<T>& local, bool inner_row,
                    bool k_row) {
    ProcessGrid& grid = us.grid();
    const index_t K = inner_row ? us.nrows() : us.ncols();
    const index_t outer = inner_row ? us.ncols() : us.nrows();
    const BlockPartition kp =
        k_row ? grid.row_partition(K) : grid.col_partition(K);
    const int kb = k_row ? grid.grid_row() : grid.grid_col();
    auto inner = [&](const Triple<T>& t) { return inner_row ? t.row : t.col; };

    std::vector<Triple<T>> ts;
    ts.reserve(local.nnz());
    local.for_each([&](index_t u, index_t v, const T& x) {
        ts.push_back({us.global_row(u), us.global_col(v), x});
    });
    // The inner index is split over the other grid dimension: re-slab it
    // onto kp along the communicator whose ranks are the inner blocks.
    if (inner_row != k_row) {
        par::Comm& kcomm = k_row ? grid.col_comm() : grid.row_comm();
        auto send = bucket_triples(ts, kcomm.size(), [&](const Triple<T>& t) {
            return kp.owner(inner(t));
        });
        ts.clear();
        for (const auto& buf : kcomm.alltoallv(std::move(send)))
            unpack_triples(buf, ts);
    }
    ts = allgather_triples(k_row ? grid.row_comm() : grid.col_comm(),
                           std::move(ts));
    for (auto& t : ts) (inner_row ? t.row : t.col) -= kp.offset(kb);
    return inner_row ? sparse::dcsr_from_unique_triples(kp.size(kb), outer,
                                                        std::move(ts))
                     : sparse::dcsr_from_unique_triples(outer, kp.size(kb),
                                                        std::move(ts));
}

/// The layout of one term of Eq. 1: whether the update is the left operand
/// (A* B') or the right one (A B*), and which operands are stored
/// transposed (Section V-C): A as inner x n (A^T B), B as m x inner (A B^T).
/// sym: the output keeps only the canonical half of the term plus its
/// transpose (right update, nothing transposed).
struct Term {
    bool left;
    bool a_t = false;
    bool b_t = false;
    bool sym = false;
};

/// Computes one term of Eq. 1 into the output of shape `out` in the four
/// steps of the header. U is the term's update. mult(slice, d) multiplies
/// slab slice d by this rank's stored block and returns the partial
/// (Dcsr<V>): its outer index local to C's block d, its other index local
/// to the stored block. absorb(piece) adds one piece, in C's local
/// coordinates, into this rank's output block. Collective.
template <typename V, typename T, typename Mult, typename Absorb>
void one_term(const DistShape& out, const DistDcsr<T>& U, Term term,
              Mult&& mult, Absorb&& absorb) {
    using par::Phase;
    using par::Profiler;
    ProcessGrid& grid = out.grid();
    // inner_row: the update's inner index is its row index (else its
    // column). k_row: the stored operand's inner block is K^r_i (else K^c_j).
    assert(!term.sym || (!term.left && !term.a_t && !term.b_t));
    const bool inner_row = term.left ? term.a_t : !term.b_t;
    const bool k_row = term.left ? !term.b_t : term.a_t;
    // The stored block's other index follows C's own block: one partial is
    // one owner's block. Otherwise route each entry by C's partition cp.
    const bool whole = !term.sym && term.left == k_row;
    const BlockPartition& sp =
        term.left ? out.row_partition() : out.col_partition();
    const BlockPartition& cp =
        term.left ? out.col_partition() : out.row_partition();
    const BlockPartition fp = k_row ? grid.col_partition(cp.n())
                                    : grid.row_partition(cp.n());
    const index_t free_offset =
        fp.offset(k_row ? grid.grid_col() : grid.grid_row());
    par::Comm& comm = !whole     ? grid.world()
                      : term.left ? grid.col_comm()
                                  : grid.row_comm();

    Dcsr<T> slab;
    {
        Profiler::Scope scope(Phase::SendRecv);
        slab = update_slab(U.shape(), U.local(), inner_row, k_row);
    }

    std::vector<par::Buffer> send(static_cast<std::size_t>(comm.size()));
    std::vector<Dcsr<V>> own;
    auto keep_or_send = [&](int dest, Dcsr<V> piece) {
        if (piece.nnz() == 0) return;
        if (dest == comm.rank()) {
            own.push_back(std::move(piece));
        } else {
            auto& buf = send[static_cast<std::size_t>(dest)];
            buf.reserve(buf.size() + piece.wire_size());
            piece.serialize(buf);
        }
    };
    // sym: the transposed entries of every partial, per destination rank, in
    // the destination's local coordinates.
    std::vector<std::vector<Triple<V>>> flipped(
        term.sym ? static_cast<std::size_t>(comm.size()) : 0);
    for (int d = 0; d < sp.blocks(); ++d) {
        Dcsr<V> part;
        {
            Profiler::Scope scope(Phase::LocalMult);
            const Dcsr<T> slice =
                inner_row
                    ? sparse::dcsr_col_block(slab, sp.offset(d),
                                             sp.offset(d + 1))
                    : sparse::dcsr_row_block(slab, sp.offset(d),
                                             sp.offset(d + 1));
            if (slice.empty()) continue;
            part = mult(slice, d);
        }
        Profiler::Scope scope(Phase::Scatter);
        if (whole) {
            keep_or_send(d, std::move(part));
            continue;
        }
        if (term.sym) {
            // Rows of the partial lie in C's row block i (partition cp),
            // columns in column block d (partition sp). Canonical entries
            // stay in block (i, d) and are built in place; every other
            // off-diagonal entry (u, v) goes to the owner of (v, u).
            const index_t r0 = cp.offset(grid.grid_row());
            const index_t c0 = sp.offset(d);
            Dcsr<V> kept(part.nrows(), part.ncols());
            for (std::size_t r = 0; r < part.row_count(); ++r) {
                const index_t u = part.row_id(r);
                const index_t gu = r0 + u;
                const int b = sp.owner(gu);  // (v, u)'s column block
                const auto cols = part.row_cols(r);
                const auto vals = part.row_values(r);
                bool begun = false;
                for (std::size_t k = 0; k < cols.size(); ++k) {
                    const index_t gv = c0 + cols[k];
                    if (is_canonical(gu, gv)) {
                        if (!begun) kept.begin_row(u);
                        begun = true;
                        kept.push_entry(cols[k], vals[k]);
                    } else if (gu != gv) {
                        const int a = cp.owner(gv);
                        flipped[static_cast<std::size_t>(grid.rank_of(a, b))]
                            .push_back({gv - cp.offset(a), gu - sp.offset(b),
                                        vals[k]});
                    }
                }
            }
            keep_or_send(grid.rank_of(grid.grid_row(), d), std::move(kept));
            continue;
        }
        // Split by the block q of C that owns each entry's other index; rows
        // reach each piece in ascending order, so it is built in place.
        std::vector<Dcsr<V>> pieces;
        for (int q = 0; q < cp.blocks(); ++q)
            pieces.emplace_back(term.left ? part.nrows() : cp.size(q),
                                term.left ? cp.size(q) : part.ncols());
        std::vector<index_t> last(pieces.size(), -1);
        part.for_each([&](index_t u, index_t v, const V& x) {
            index_t& f = term.left ? v : u;
            const index_t g = free_offset + f;
            const auto q = static_cast<std::size_t>(cp.owner(g));
            f = g - cp.offset(static_cast<int>(q));
            if (last[q] != u) {
                pieces[q].begin_row(u);
                last[q] = u;
            }
            pieces[q].push_entry(v, x);
        });
        for (int q = 0; q < cp.blocks(); ++q)
            keep_or_send(term.left ? grid.rank_of(d, q) : grid.rank_of(q, d),
                         std::move(pieces[static_cast<std::size_t>(q)]));
    }
    if (term.sym) {
        Profiler::Scope scope(Phase::Scatter);
        // Group each destination's transposed entries by row (a stable
        // counting sort, so columns stay ascending within a row).
        for (int q = 0; q < comm.size(); ++q) {
            auto& ts = flipped[static_cast<std::size_t>(q)];
            if (ts.empty()) continue;
            const index_t rows = cp.size(q / grid.cols());
            sparse::counting_sort(ts, static_cast<std::size_t>(rows),
                                  [](const Triple<V>& t) {
                                      return static_cast<std::size_t>(t.row);
                                  });
            keep_or_send(q, Dcsr<V>::from_row_grouped(
                                rows, sp.size(q % grid.cols()), ts));
        }
    }

    Profiler::Scope scope(Phase::ReduceScatter);
    const std::vector<par::Buffer> recv = comm.alltoallv(std::move(send));
    for (int s = 0; s < comm.size(); ++s) {
        if (s == comm.rank()) {
            for (const auto& piece : own) absorb(piece);
            continue;
        }
        par::BufferReader r(recv[static_cast<std::size_t>(s)]);
        while (!r.exhausted()) absorb(Dcsr<V>::deserialize(r));
    }
}

inline sparse::SpgemmOptions local_options(const DynamicSpgemmOptions& opts,
                                           index_t inner_offset = 0) {
    sparse::SpgemmOptions sopts;
    sopts.pool = opts.pool;
    sopts.inner_offset = inner_offset;
    return sopts;
}

/// The absorb of the algebraic variants: adds a piece into C (and into the
/// optional C* output) under the absorb rule of the header.
template <sparse::Semiring SR, typename T>
auto absorb_into(DistDynamicMatrix<T>& C,
                 DistDynamicMatrix<T>* cstar_out = nullptr) {
    return [&C, cstar_out](const Dcsr<T>& piece) {
        par::Profiler::Scope scope(par::Phase::LocalAddition);
        piece.for_each([&](index_t u, index_t v, const T& x) {
            C.local().add_or_erase(u, v, x, SR::add, SR::zero());
            if (cstar_out != nullptr)
                cstar_out->local().add_or_erase(u, v, x, SR::add, SR::zero());
        });
    };
}

}  // namespace detail

/// Algorithm 1, the term of a left update: C <- C + A* B' over SR, where
/// Bprime is the right operand *after* its own update, if any. The optional
/// cstar_out collects the term itself (distributed), e.g. to feed the next
/// stage of a chained product (graph contraction). Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic(DistDynamicMatrix<T>& C,
                              const DistDcsr<T>& Astar,
                              const DistDynamicMatrix<T>& Bprime,
                              const DynamicSpgemmOptions& opts = {},
                              DistDynamicMatrix<T>* cstar_out = nullptr) {
    const DistShape& cs = C.shape();
    detail::one_term<T>(
        cs, Astar, {.left = true},
        // A*[N^r_a, K^r_i] · B'_{i,j}
        [&](const Dcsr<T>& slice, int a) {
            return sparse::spgemm<SR>(cs.block_rows(a), cs.local_cols(),
                                      sparse::as_left(slice),
                                      sparse::as_right(Bprime.local()),
                                      detail::local_options(opts));
        },
        detail::absorb_into<SR>(C, cstar_out));
}

/// Algorithm 1, the term of a right update: C <- C + A B* over SR, where A
/// is the left operand *before* its own update, if any. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic(DistDynamicMatrix<T>& C,
                              const DistDynamicMatrix<T>& A,
                              const DistDcsr<T>& Bstar,
                              const DynamicSpgemmOptions& opts = {}) {
    const DistShape& cs = C.shape();
    detail::one_term<T>(
        cs, Bstar, {.left = false},
        // A_{i,j} · B*[K^c_j, M^c_b]
        [&](const Dcsr<T>& slice, int b) {
            return sparse::spgemm<SR>(cs.local_rows(), cs.block_cols(b),
                                      sparse::as_left(A.local()),
                                      sparse::as_right(slice),
                                      detail::local_options(opts));
        },
        detail::absorb_into<SR>(C));
}

/// Algorithm 1 for a symmetric product, where C holds only the canonical
/// half of a symmetric n x n matrix (is_canonical; no diagonal): adds the
/// canonical half of W + W^T, W = S U*, to it in one term of the
/// right-update layout. S and U* must be symmetric n x n. Every W entry
/// (u, v) off the diagonal is absorbed at its pair's canonical coordinate
/// x. Returns this rank's share of sum(W(u, v) * S(x)) over those entries:
/// summed over the ranks, the off-diagonal part of <W, S>. With A and A*
/// symmetric and S = A + A*/2, C' - C = W + W^T for C = A^2 (Eq. 1), which
/// is how graph::DynamicTriangleCounter pays for one term per update.
/// Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
T dynamic_spgemm_symmetric(DistDynamicMatrix<T>& C,
                           const DistDynamicMatrix<T>& S,
                           const DistDcsr<T>& Ustar,
                           const DynamicSpgemmOptions& opts = {}) {
    const DistShape& cs = C.shape();
    T share = SR::zero();
    // S's row u scattered densely while row u of a piece is absorbed: one
    // array read per entry instead of a lookup into S.
    std::vector<T> srow(static_cast<std::size_t>(cs.local_cols()), SR::zero());
    detail::one_term<T>(
        cs, Ustar, {.left = false, .sym = true},
        // S_{i,j} · U*[K^c_j, N^c_b]
        [&](const Dcsr<T>& slice, int b) {
            return sparse::spgemm<SR>(cs.local_rows(), cs.block_cols(b),
                                      sparse::as_left(S.local()),
                                      sparse::as_right(slice),
                                      detail::local_options(opts));
        },
        [&](const Dcsr<T>& piece) {
            par::Profiler::Scope scope(par::Phase::LocalAddition);
            for (std::size_t r = 0; r < piece.row_count(); ++r) {
                const index_t u = piece.row_id(r);
                const auto cols = piece.row_cols(r);
                const auto vals = piece.row_values(r);
                for (const auto& e : S.local().row(u))
                    srow[static_cast<std::size_t>(e.col)] = e.value;
                for (std::size_t k = 0; k < cols.size(); ++k) {
                    C.local().add_or_erase(u, cols[k], vals[k], SR::add,
                                           SR::zero());
                    share = SR::add(
                        share,
                        SR::mul(vals[k], srow[static_cast<std::size_t>(cols[k])]));
                }
                for (const auto& e : S.local().row(u))
                    srow[static_cast<std::size_t>(e.col)] = SR::zero();
            }
        });
    return share;
}

/// Algorithm 1 with a transposed left operand (Section V-C), the term of a
/// left update: C <- C + A*^T B', where A* is (inner x n) and C is n x m.
/// A* already sits on the inner row partition, so its slab A*[K^r_i, :]
/// needs no re-slab, and each slice is transposed locally (O(nnz)).
/// Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic_transA(DistDynamicMatrix<T>& C,
                                     const DistDcsr<T>& Astar,
                                     const DistDynamicMatrix<T>& Bprime,
                                     const DynamicSpgemmOptions& opts = {}) {
    const DistShape& cs = C.shape();
    detail::one_term<T>(
        cs, Astar, {.left = true, .a_t = true},
        // (A*[K^r_i, N^r_a])^T · B'_{i,j}
        [&](const Dcsr<T>& slice, int a) {
            return sparse::spgemm<SR>(
                cs.block_rows(a), cs.local_cols(),
                sparse::as_left(sparse::dcsr_transpose(slice)),
                sparse::as_right(Bprime.local()), detail::local_options(opts));
        },
        detail::absorb_into<SR>(C));
}

/// Algorithm 1 with a transposed left operand, the term of a right update:
/// C <- C + A^T B*, where A is (inner x n). The stored block is multiplied
/// transposed in place (spgemm_transposed_left). Its partial's rows follow
/// A's column partition, so each entry is routed to its owner. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic_transA(DistDynamicMatrix<T>& C,
                                     const DistDynamicMatrix<T>& A,
                                     const DistDcsr<T>& Bstar,
                                     // spgemm_transposed_left has no pool
                                     const DynamicSpgemmOptions& = {}) {
    const DistShape& cs = C.shape();
    detail::one_term<T>(
        cs, Bstar, {.left = false, .a_t = true},
        // (A_{i,j})^T · B*[K^r_i, M^c_b]
        [&](const Dcsr<T>& slice, int b) {
            return sparse::spgemm_transposed_left<SR>(
                A.shape().local_cols(), cs.block_cols(b), A.local(), slice);
        },
        detail::absorb_into<SR>(C));
}

/// Algorithm 1 with a transposed right operand (Section V-C), the term of a
/// left update: C <- C + A* B'^T, where A* is (n x inner) and B' is
/// (m x inner). A* already sits on the inner column partition, so one
/// allgather down each process column assembles its slab. The multiply
/// keeps both operands streamable: A*_a (B'_{i,j})^T = (B'_{i,j} (A*_a)^T)^T.
/// Its partial's columns follow B's row partition, so each entry is routed
/// to its owner. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic_transB(DistDynamicMatrix<T>& C,
                                     const DistDcsr<T>& Astar,
                                     const DistDynamicMatrix<T>& Bprime,
                                     const DynamicSpgemmOptions& opts = {}) {
    const DistShape& cs = C.shape();
    detail::one_term<T>(
        cs, Astar, {.left = true, .b_t = true},
        // (B'_{i,j} (A*[N^r_a, K^c_j])^T)^T
        [&](const Dcsr<T>& slice, int a) {
            return sparse::dcsr_transpose(sparse::spgemm<SR>(
                Bprime.shape().local_rows(), cs.block_rows(a),
                sparse::as_left(Bprime.local()),
                sparse::as_right(sparse::dcsr_transpose(slice)),
                detail::local_options(opts)));
        },
        detail::absorb_into<SR>(C));
}

/// Algorithm 1 with a transposed right operand, the term of a right update:
/// C <- C + A B*^T, where B* is (m x inner): the stored A block times the
/// locally transposed slab slice. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic_transB(DistDynamicMatrix<T>& C,
                                     const DistDynamicMatrix<T>& A,
                                     const DistDcsr<T>& Bstar,
                                     const DynamicSpgemmOptions& opts = {}) {
    const DistShape& cs = C.shape();
    detail::one_term<T>(
        cs, Bstar, {.left = false, .b_t = true},
        // A_{i,j} · (B*[M^c_b, K^c_j])^T
        [&](const Dcsr<T>& slice, int b) {
            return sparse::spgemm<SR>(
                cs.local_rows(), cs.block_cols(b), sparse::as_left(A.local()),
                sparse::as_right(sparse::dcsr_transpose(slice)),
                detail::local_options(opts));
        },
        detail::absorb_into<SR>(C));
}

namespace detail {

/// ORs the COMPUTEPATTERN bits of one term of Eq. 1 into cstar: of A* B'
/// (U = A*, S = B') if left, else of A B* (S = A, U = B*).
template <typename T>
void pattern_term(DistDynamicMatrix<std::uint64_t>& cstar, bool left,
                  const DistDcsr<T>& U, const DistDynamicMatrix<T>& S,
                  const DynamicSpgemmOptions& opts) {
    const DistShape& cs = cstar.shape();
    ProcessGrid& grid = cs.grid();
    // Global inner index of local column 0 of the left operand: the A* slab
    // slice lives in inner row block K^r_i, A_{i,j} in column block K^c_j.
    const index_t K = left ? U.shape().ncols() : S.shape().ncols();
    const sparse::SpgemmOptions sopts = local_options(
        opts, left ? grid.row_partition(K).offset(grid.grid_row())
                   : grid.col_partition(K).offset(grid.grid_col()));
    one_term<std::uint64_t>(
        cs, U, {.left = left},
        [&](const Dcsr<T>& slice, int d) {
            return left ? sparse::spgemm_pattern(
                              cs.block_rows(d), cs.local_cols(),
                              sparse::as_left(slice),
                              sparse::as_right(S.local()), sopts)
                        : sparse::spgemm_pattern(
                              cs.local_rows(), cs.block_cols(d),
                              sparse::as_left(S.local()),
                              sparse::as_right(slice), sopts);
        },
        [&](const Dcsr<std::uint64_t>& piece) {
            par::Profiler::Scope scope(par::Phase::LocalAddition);
            piece.for_each([&](index_t u, index_t v, std::uint64_t bits) {
                cstar.local().insert_or_add(
                    u, v, bits,
                    [](std::uint64_t a, std::uint64_t b) { return a | b; });
            });
        });
}

}  // namespace detail

/// COMPUTEPATTERN (Section V-B) for the term of a left update: the sparsity
/// structure of C* = A* B', with each entry carrying the F* Bloom bitfield
/// (bit (k mod 64) set iff inner index k contributes). Numerical values of
/// the operands are ignored. Returns the distributed pattern matrix.
/// Collective.
template <typename T>
DistDynamicMatrix<std::uint64_t> compute_pattern(
    const DistDcsr<T>& Astar, const DistDynamicMatrix<T>& Bprime,
    const DynamicSpgemmOptions& opts = {}) {
    DistDynamicMatrix<std::uint64_t> cstar(
        Bprime.shape().grid(), Astar.shape().nrows(), Bprime.shape().ncols());
    detail::pattern_term(cstar, true, Astar, Bprime, opts);
    return cstar;
}

/// COMPUTEPATTERN for the term of a right update: C* = A B*. Collective.
template <typename T>
DistDynamicMatrix<std::uint64_t> compute_pattern(
    const DistDynamicMatrix<T>& A, const DistDcsr<T>& Bstar,
    const DynamicSpgemmOptions& opts = {}) {
    DistDynamicMatrix<std::uint64_t> cstar(A.shape().grid(), A.shape().nrows(),
                                           Bstar.shape().ncols());
    detail::pattern_term(cstar, false, Bstar, A, opts);
    return cstar;
}

/// COMPUTEPATTERN for both terms, C* = A* B' + A B*: the two one-term
/// patterns ORed into one matrix. Collective.
template <typename T>
DistDynamicMatrix<std::uint64_t> compute_pattern(
    const DistDynamicMatrix<T>& A, const DistDcsr<T>& Astar,
    const DistDynamicMatrix<T>& Bprime, const DistDcsr<T>& Bstar,
    const DynamicSpgemmOptions& opts = {}) {
    DistDynamicMatrix<std::uint64_t> cstar(A.shape().grid(), A.shape().nrows(),
                                           Bprime.shape().ncols());
    detail::pattern_term(cstar, true, Astar, Bprime, opts);
    detail::pattern_term(cstar, false, Bstar, A, opts);
    return cstar;
}

}  // namespace dsg::core
