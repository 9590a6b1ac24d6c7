// Dynamic distributed SpGEMM for algebraic updates — Algorithm 1 of the
// paper — plus the COMPUTEPATTERN variant that Algorithm 2 builds on.
//
// Given C = AB and hypersparse update matrices A*, B* with A' = A + A*,
// B' = B + B* (semiring addition), distributivity gives
//     C' = C + C*,   C* = A* B' + A B*.                            (Eq. 1)
//
// Instead of SUMMA (which would broadcast blocks of the *large* operands A
// and B'), the algorithm moves only the hypersparse A* and B* and pays for
// that with a non-local aggregation of the partial results. On a rows x cols
// grid the inner dimension K carries two partitions (K^r over grid rows from
// B's distribution, K^c over grid cols from A's), so the blocks of A* and B*
// are first *re-slabbed* to the partition of the operand they multiply:
//
//   - A* is exchanged into column slabs A*[:, K^r_i] (an alltoallv down each
//     process column followed by an allgather along the process row);
//   - B* into row slabs B*[K^c_j, :] (alltoallv along rows, allgather down
//     columns).
//   On a square grid this degenerates to the paper's single transpose
//   send/receive plus the per-round broadcasts (same bytes, same O(nnz/
//   sqrt(p)) per-rank volume).
//
//   X partials (one per grid row a):   rank (i,j) multiplies the N^r_a row
//     slice of its A* slab with B'_{i,j}; partial a belongs to rank (a,j).
//   Y partials (one per grid col b):   A_{i,j} times the M^c_b column slice
//     of the B* slab; partial b belongs to rank (i,b).
//
// The sparse reduce-scatter (Sec. VI-A) is direct: each rank sends every
// partial straight to its owner, all X partials in one all-to-all down the
// process column (in flight while the Y partials are computed) and all Y
// partials in one along the process row. The owner adds its own and each
// incoming partial into C with the semiring addition, so each partial
// crosses rank boundaries once.
//
// Absorb rule (all three variants, and the optional C* output): an entry
// whose sum equals SR::zero() is erased on the spot, and a zero() partial
// value creates no entry (DynamicMatrix::add_or_erase). C therefore never
// stores a structural zero, and the cancellations of a ring deletion
// (a* = -a, Sec. V) cost O(nnz(C*)) rather than a prune over all of C.
//
// Communication volume is O((nnz(A*) + nnz(B*) + nnz(C*)) / sqrt(p)) versus
// SUMMA's O((nnz(A) + nnz(B')) / sqrt(p)).
#pragma once

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

/// The communication skeleton shared by the algebraic algorithm and
/// COMPUTEPATTERN. MultX(a_slice, a) receives the N^r_a x K^r_i slice of the
/// A* slab; MultY(b_slice, b) the K^c_j x M^c_b slice of the B* slab; both
/// produce local partial products (Dcsr<V>). Absorb adds one partial into
/// this rank's output block with the semiring addition; it is called for
/// the rank's own and for every non-empty incoming X and Y partial.
template <typename T, typename V, typename MultX, typename MultY,
          typename Absorb>
void algebraic_rounds(ProcessGrid& grid, const DistDcsr<T>& Astar,
                      const DistDcsr<T>& Bstar, MultX&& mult_x,
                      MultY&& mult_y, Absorb&& absorb) {
    using par::Phase;
    using par::Profiler;
    const int rows = grid.rows();
    const int cols = grid.cols();
    const int i = grid.grid_row();
    const int j = grid.grid_col();
    const index_t n = Astar.shape().nrows();
    const index_t K = Astar.shape().ncols();
    const index_t m = Bstar.shape().ncols();
    const BlockPartition nr = grid.row_partition(n);
    const BlockPartition mc = grid.col_partition(m);
    const BlockPartition kr = grid.row_partition(K);
    const BlockPartition kc = grid.col_partition(K);

    // ---- Slab exchange (replaces the square grid's transpose exchange).
    Dcsr<T> aslab;  // A*[:, K^r_i] — global rows, K^r_i-local cols
    Dcsr<T> bslab;  // B*[K^c_j, :] — K^c_j-local rows, global cols
    {
        Profiler::Scope scope(Phase::SendRecv);
        std::vector<Triple<T>> atrip;
        atrip.reserve(Astar.local().nnz());
        Astar.local().for_each([&](index_t u, index_t v, const T& x) {
            atrip.push_back({u + nr.offset(i), v + kc.offset(j), x});
        });
        std::vector<Triple<T>> btrip;
        btrip.reserve(Bstar.local().nnz());
        Bstar.local().for_each([&](index_t u, index_t v, const T& x) {
            btrip.push_back({u + kr.offset(i), v + mc.offset(j), x});
        });
        auto asend = bucket_triples(
            atrip, rows, [&](const Triple<T>& t) { return kr.owner(t.col); });
        auto bsend = bucket_triples(
            btrip, cols, [&](const Triple<T>& t) { return kc.owner(t.row); });
        // Both exchanges in flight at once: they overlap each other.
        auto pa = grid.col_comm().ialltoallv(std::move(asend));
        auto pb = grid.row_comm().ialltoallv(std::move(bsend));
        const std::vector<par::Buffer> arecv = pa.wait();
        const std::vector<par::Buffer> brecv = pb.wait();
        atrip.clear();
        for (const auto& buf : arecv) unpack_triples(buf, atrip);
        btrip.clear();
        for (const auto& buf : brecv) unpack_triples(buf, btrip);
        atrip = allgather_triples(grid.row_comm(), std::move(atrip));
        btrip = allgather_triples(grid.col_comm(), std::move(btrip));
        for (auto& t : atrip) t.col -= kr.offset(i);
        for (auto& t : btrip) t.row -= kc.offset(j);
        aslab = sparse::dcsr_from_unique_triples(n, kr.size(i),
                                                 std::move(atrip));
        bslab = sparse::dcsr_from_unique_triples(kc.size(j), m,
                                                 std::move(btrip));
    }

    // Computes the partial of every output block d of comm (grid row d for
    // X, grid column d for Y), keeps this rank's own and posts the others to
    // their owners in one all-to-all. An empty partial travels as a
    // zero-length buffer.
    using Posted = std::pair<Dcsr<V>, par::Comm::PendingAlltoallv>;
    auto post_partials = [](par::Comm& comm, auto&& partial) -> Posted {
        std::vector<par::Buffer> send(static_cast<std::size_t>(comm.size()));
        Dcsr<V> own;
        for (int d = 0; d < comm.size(); ++d) {
            Dcsr<V> part;
            {
                Profiler::Scope scope(Phase::LocalMult);
                part = partial(d);
            }
            if (d == comm.rank()) {
                own = std::move(part);
            } else if (part.nnz() > 0) {
                Profiler::Scope scope(Phase::Scatter);
                send[static_cast<std::size_t>(d)] = part.serialize();
            }
        }
        Profiler::Scope scope(Phase::ReduceScatter);
        return {std::move(own), comm.ialltoallv(std::move(send))};
    };
    // Absorbs the own partial and every incoming one in rank order, so the
    // sums formed in C do not depend on which message arrived first.
    auto absorb_partials = [&](const par::Comm& comm, Posted posted) {
        Profiler::Scope scope(Phase::ReduceScatter);
        const std::vector<par::Buffer> recv = posted.second.wait();
        for (int s = 0; s < comm.size(); ++s) {
            const auto& buf = recv[static_cast<std::size_t>(s)];
            if (s == comm.rank())
                absorb(posted.first);
            else if (!buf.empty())
                absorb(Dcsr<V>::deserialize(buf));
        }
    };

    // X partials go down the process column while the Y partials are
    // computed.
    Posted x = post_partials(grid.col_comm(), [&](int a) {
        return mult_x(
            sparse::dcsr_row_block(aslab, nr.offset(a), nr.offset(a + 1)), a);
    });
    Posted y = post_partials(grid.row_comm(), [&](int b) {
        return mult_y(
            sparse::dcsr_col_block(bslab, mc.offset(b), mc.offset(b + 1)), b);
    });
    absorb_partials(grid.col_comm(), std::move(x));
    absorb_partials(grid.row_comm(), std::move(y));
}

/// Scatters a reduced partial block whose rows or columns follow the "wrong"
/// partition to the owners of the output blocks. `pieces[d]` must hold the
/// triples for destination d in the destination's local coordinates; every
/// piece is sent (empty included) so receivers match deterministically.
template <typename T>
void send_pieces(ProcessGrid& grid,
                 std::vector<std::vector<Triple<T>>>& pieces, int tag,
                 const std::function<int(int)>& dest_rank) {
    for (std::size_t d = 0; d < pieces.size(); ++d)
        grid.world().send(dest_rank(static_cast<int>(d)), tag,
                          pack_triples(pieces[d].data(), pieces[d].size()));
}

}  // namespace detail

/// Algorithm 1: C <- C + A* B' + A B* over SR. A is the matrix *before* the
/// update, Bprime the one *after*; Astar/Bstar are the hypersparse update
/// matrices (semiring addition semantics). Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic(DistDynamicMatrix<T>& C,
                              const DistDynamicMatrix<T>& A,
                              const DistDcsr<T>& Astar,
                              const DistDynamicMatrix<T>& Bprime,
                              const DistDcsr<T>& Bstar,
                              const DynamicSpgemmOptions& opts = {},
                              DistDynamicMatrix<T>* cstar_out = nullptr) {
    ProcessGrid& grid = C.shape().grid();
    const auto& rp = C.shape().row_partition();
    const auto& cp = C.shape().col_partition();
    sparse::SpgemmOptions sopts;
    sopts.pool = opts.pool;

    auto absorb = [&](const Dcsr<T>& reduced) {
        par::Profiler::Scope scope(par::Phase::LocalAddition);
        reduced.for_each([&](index_t u, index_t v, const T& x) {
            C.local().add_or_erase(u, v, x, SR::add, SR::zero());
            // Optionally collect C* itself (distributed), e.g. to feed the
            // next stage of a chained product (graph contraction).
            if (cstar_out != nullptr)
                cstar_out->local().add_or_erase(u, v, x, SR::add, SR::zero());
        });
    };
    detail::algebraic_rounds<T, T>(
        grid, Astar, Bstar,
        // X_{a,j} partial: A*[N^r_a, K^r_i] · B'_{i,j}
        [&](const Dcsr<T>& a_slice, int a) {
            return sparse::spgemm<SR>(rp.size(a), C.shape().local_cols(),
                                      sparse::as_left(a_slice),
                                      sparse::as_right(Bprime.local()), sopts);
        },
        // Y_{i,b} partial: A_{i,j} · B*[K^c_j, M^c_b]
        [&](const Dcsr<T>& b_slice, int b) {
            return sparse::spgemm<SR>(C.shape().local_rows(), cp.size(b),
                                      sparse::as_left(A.local()),
                                      sparse::as_right(b_slice), sopts);
        },
        absorb);
}

/// Algorithm 1 with a transposed left operand (Section V-C):
/// C <- C + A*^T B' + A^T B*, where A and A* are (inner x n) and C is n x m.
///
/// Differences from the untransposed flow, exactly as the paper describes:
///  - no re-slab of A* is needed: its blocks already sit on the inner-row
///    partition, so one allgather along each process row assembles the full
///    row slab A*[K^r_i, :], and the X partial transposes a hypersparse
///    column slice locally (O(nnz));
///  - B* is likewise assembled along *rows* (slab B*[K^r_i, :]);
///  - the Y-term partial (A_{i,j})^T B* has rows on A's *column* partition
///    (a c-way split), which on a rectangular grid does not coincide with
///    C's r-way row partition: after the reduction the root re-splits the
///    block by C's row owners and forwards each piece with one
///    point-to-point message (the transposed-rank message of the square
///    grid, generalized).
/// Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic_transA(DistDynamicMatrix<T>& C,
                                     const DistDynamicMatrix<T>& A,
                                     const DistDcsr<T>& Astar,
                                     const DistDynamicMatrix<T>& Bprime,
                                     const DistDcsr<T>& Bstar,
                                     const DynamicSpgemmOptions& opts = {}) {
    using par::Phase;
    using par::Profiler;
    constexpr int kTagY = 105;
    ProcessGrid& grid = C.shape().grid();
    const int rows = grid.rows();
    const int cols = grid.cols();
    const int i = grid.grid_row();
    const int j = grid.grid_col();
    const index_t n = C.shape().nrows();
    const index_t m = C.shape().ncols();
    // C rows are partitioned r-ways (nrp); A's columns c-ways (ncp).
    const auto& nrp = C.shape().row_partition();
    const auto& mcp = C.shape().col_partition();
    const BlockPartition ncp = grid.col_partition(n);
    const BlockPartition kr = grid.row_partition(Astar.shape().nrows());
    sparse::SpgemmOptions sopts;
    sopts.pool = opts.pool;

    auto add = [](const T& a, const T& b) { return SR::add(a, b); };
    auto merge_buffers = [&](par::Buffer a, par::Buffer b) {
        auto ma = Dcsr<T>::deserialize(a);
        auto mb = Dcsr<T>::deserialize(b);
        return sparse::dcsr_add(ma, mb, add).serialize();
    };
    auto absorb = [&](const Dcsr<T>& reduced) {
        Profiler::Scope scope(Phase::LocalAddition);
        reduced.for_each([&](index_t u, index_t v, const T& x) {
            C.local().add_or_erase(u, v, x, SR::add, SR::zero());
        });
    };
    auto absorb_triples = [&](const std::vector<Triple<T>>& ts) {
        Profiler::Scope scope(Phase::LocalAddition);
        for (const auto& t : ts)
            C.local().add_or_erase(t.row, t.col, t.value, SR::add,
                                   SR::zero());
    };

    // Row slabs: A*[K^r_i, :] (n global cols) and B*[K^r_i, :] (m global
    // cols), assembled from the per-column blocks of this process row.
    auto gather_row_slab = [&](const Dcsr<T>& local, const BlockPartition& gc,
                               index_t global_cols) {
        Profiler::Scope scope(Phase::SendRecv);
        auto all = grid.row_comm().allgather(local.serialize());
        std::vector<Triple<T>> trips;
        for (int jp = 0; jp < cols; ++jp) {
            auto blk = Dcsr<T>::deserialize(all[static_cast<std::size_t>(jp)]);
            blk.for_each([&](index_t u, index_t v, const T& x) {
                trips.push_back({u, v + gc.offset(jp), x});
            });
        }
        return sparse::dcsr_from_unique_triples(kr.size(i), global_cols,
                                                std::move(trips));
    };
    const Dcsr<T> astar_slab = gather_row_slab(Astar.local(), ncp, n);
    const Dcsr<T> bstar_slab = gather_row_slab(Bstar.local(), mcp, m);

    // X rounds: (A*[K^r_i, N^r_a])^T · B'_{i,j}, reduced down the process
    // column onto the owner (a, j).
    for (int a = 0; a < rows; ++a) {
        Dcsr<T> x_part;
        {
            Profiler::Scope scope(Phase::LocalMult);
            auto a_t = sparse::dcsr_transpose(sparse::dcsr_col_block(
                astar_slab, nrp.offset(a), nrp.offset(a + 1)));
            x_part = sparse::spgemm<SR>(nrp.size(a), C.shape().local_cols(),
                                        sparse::as_left(a_t),
                                        sparse::as_right(Bprime.local()),
                                        sopts);
        }
        {
            Profiler::Scope scope(Phase::ReduceScatter);
            par::Buffer xr = grid.col_comm().reduce_merge(
                a, x_part.serialize(), merge_buffers);
            if (i == a) absorb(Dcsr<T>::deserialize(xr));
        }
    }

    // Y rounds: (A_{i,j})^T · B*[K^r_i, M^c_b] — rows follow A's column
    // partition (ncp), so the reduced block is re-split by C's row owners.
    for (int b = 0; b < cols; ++b) {
        const int root_row = b % rows;
        Dcsr<T> y_part;
        {
            Profiler::Scope scope(Phase::LocalMult);
            auto b_slice = sparse::dcsr_col_block(bstar_slab, mcp.offset(b),
                                                  mcp.offset(b + 1));
            y_part = sparse::spgemm_transposed_left<SR>(
                A.shape().local_cols(), mcp.size(b), A.local(), b_slice);
        }
        {
            Profiler::Scope scope(Phase::ReduceScatter);
            par::Buffer yr = grid.col_comm().reduce_merge(
                root_row, y_part.serialize(), merge_buffers);
            if (i == root_row) {
                auto reduced = Dcsr<T>::deserialize(yr);
                std::vector<std::vector<Triple<T>>> pieces(
                    static_cast<std::size_t>(rows));
                reduced.for_each([&](index_t u, index_t v, const T& x) {
                    const index_t gu = u + ncp.offset(j);
                    const int a = nrp.owner(gu);
                    pieces[static_cast<std::size_t>(a)].push_back(
                        {gu - nrp.offset(a), v, x});
                });
                detail::send_pieces(grid, pieces, kTagY + b,
                                    [&](int a) { return grid.rank_of(a, b); });
            }
            if (j == b) {
                for (int jp = 0; jp < cols; ++jp) {
                    std::vector<Triple<T>> ts;
                    detail::unpack_triples(
                        grid.world().recv(grid.rank_of(root_row, jp),
                                          kTagY + b),
                        ts);
                    absorb_triples(ts);
                }
            }
        }
    }
}

/// Algorithm 1 with a transposed right operand (Section V-C):
/// C <- C + A* B'^T + A B*^T, where B and B* are (m x inner), A and A* are
/// (n x inner) and C is n x m.
///
/// As the paper notes, A* and B* are broadcast over *columns* of the grid
/// (one allgather down each process column — their blocks already align with
/// grid rows, so no re-slab or merge is needed). Local multiplications
/// against transposed right operands are rewritten to keep both operands
/// streamable:
///  - X-term: A*_u (B'_{i,j})^T = (B'_{i,j} (A*_u)^T)^T — one ordinary
///    Gustavson multiply against the locally transposed hypersparse A*
///    block, plus a transpose of the (small) partial result;
///  - Y-term: A_{i,j} (B*_u)^T multiplies the stored A block against the
///    locally transposed hypersparse B* block directly.
/// Both reduced partials have columns on B's r-way *row* partition, which a
/// rectangular grid's c-way output column partition does not match: the
/// reduction root re-splits each block by C's column owners and forwards the
/// pieces point-to-point (the transposed-rank messages of the square grid,
/// generalized). Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void dynamic_spgemm_algebraic_transB(DistDynamicMatrix<T>& C,
                                     const DistDynamicMatrix<T>& A,
                                     const DistDcsr<T>& Astar,
                                     const DistDynamicMatrix<T>& Bprime,
                                     const DistDcsr<T>& Bstar,
                                     const DynamicSpgemmOptions& opts = {}) {
    using par::Phase;
    using par::Profiler;
    constexpr int kTagX = 140;
    constexpr int kTagYB = 170;
    ProcessGrid& grid = C.shape().grid();
    const int rows = grid.rows();
    const int cols = grid.cols();
    const int i = grid.grid_row();
    const int j = grid.grid_col();
    const index_t m = C.shape().ncols();
    // C rows partition like A's rows (nrp, r-way); C cols (mcp, c-way) do
    // NOT match B's r-way row partition (mrp) on a rectangular grid.
    const auto& nrp = C.shape().row_partition();
    const auto& mcp = C.shape().col_partition();
    const BlockPartition mrp = grid.row_partition(m);
    sparse::SpgemmOptions sopts;
    sopts.pool = opts.pool;

    auto add = [](const T& a, const T& b) { return SR::add(a, b); };
    auto merge_buffers = [&](par::Buffer a, par::Buffer b) {
        auto ma = Dcsr<T>::deserialize(a);
        auto mb = Dcsr<T>::deserialize(b);
        return sparse::dcsr_add(ma, mb, add).serialize();
    };
    auto absorb_triples = [&](const std::vector<Triple<T>>& ts) {
        Profiler::Scope scope(Phase::LocalAddition);
        for (const auto& t : ts)
            C.local().add_or_erase(t.row, t.col, t.value, SR::add,
                                   SR::zero());
    };
    // Splits a reduced block whose columns live in B's row block u (global
    // offset mrp.offset(u)) by C's column owners and forwards the pieces to
    // this grid row's owners (dest_row, b) — dest_row depends on the term.
    auto scatter_cols = [&](par::Buffer reduced_wire, int u, int tag,
                            const std::function<int(int)>& dest_rank) {
        auto reduced = Dcsr<T>::deserialize(reduced_wire);
        std::vector<std::vector<Triple<T>>> pieces(
            static_cast<std::size_t>(cols));
        reduced.for_each([&](index_t uu, index_t v, const T& x) {
            const index_t gv = v + mrp.offset(u);
            const int b = mcp.owner(gv);
            pieces[static_cast<std::size_t>(b)].push_back(
                {uu, gv - mcp.offset(b), x});
        });
        detail::send_pieces(grid, pieces, tag, dest_rank);
    };

    // Column slabs: every rank learns all r blocks of its process column —
    // A*[N^r_u, K^c_j] and B*[M^r_u, K^c_j] for u in [0, rows). The blocks
    // stay separate; each drives one round.
    auto gather_col_blocks = [&](const Dcsr<T>& local) {
        Profiler::Scope scope(Phase::SendRecv);
        auto all = grid.col_comm().allgather(local.serialize());
        std::vector<Dcsr<T>> blocks;
        blocks.reserve(all.size());
        for (auto& buf : all) blocks.push_back(Dcsr<T>::deserialize(buf));
        return blocks;
    };
    const auto astar_blocks = gather_col_blocks(Astar.local());
    const auto bstar_blocks = gather_col_blocks(Bstar.local());

    // X rounds: partial for output rows N^r_a, computed transposed:
    // W = B'_{i,j} (A*_a)^T, then X = W^T (columns on M^r_i).
    for (int a = 0; a < rows; ++a) {
        const int root_col = a % cols;
        Dcsr<T> x_part;
        {
            Profiler::Scope scope(Phase::LocalMult);
            auto astar_t = sparse::dcsr_transpose(
                astar_blocks[static_cast<std::size_t>(a)]);
            auto w = sparse::spgemm<SR>(
                Bprime.shape().local_rows(), nrp.size(a),
                sparse::as_left(Bprime.local()), sparse::as_right(astar_t),
                sopts);
            x_part = sparse::dcsr_transpose(w);
        }
        {
            Profiler::Scope scope(Phase::ReduceScatter);
            par::Buffer xr = grid.row_comm().reduce_merge(
                root_col, x_part.serialize(), merge_buffers);
            if (j == root_col)
                scatter_cols(std::move(xr), i, kTagX + a,
                             [&](int b) { return grid.rank_of(a, b); });
            if (i == a) {
                for (int ip = 0; ip < rows; ++ip) {
                    std::vector<Triple<T>> ts;
                    detail::unpack_triples(
                        grid.world().recv(grid.rank_of(ip, root_col),
                                          kTagX + a),
                        ts);
                    absorb_triples(ts);
                }
            }
        }
    }

    // Y rounds: A_{i,j} (B*_u)^T — output rows stay on this grid row, so
    // the re-split pieces travel within the process row.
    for (int u = 0; u < rows; ++u) {
        const int root_col = u % cols;
        Dcsr<T> y_part;
        {
            Profiler::Scope scope(Phase::LocalMult);
            auto bstar_t = sparse::dcsr_transpose(
                bstar_blocks[static_cast<std::size_t>(u)]);
            y_part = sparse::spgemm<SR>(C.shape().local_rows(), mrp.size(u),
                                        sparse::as_left(A.local()),
                                        sparse::as_right(bstar_t), sopts);
        }
        {
            Profiler::Scope scope(Phase::ReduceScatter);
            par::Buffer yr = grid.row_comm().reduce_merge(
                root_col, y_part.serialize(), merge_buffers);
            if (j == root_col)
                scatter_cols(std::move(yr), u, kTagYB + u,
                             [&](int b) { return grid.rank_of(i, b); });
            std::vector<Triple<T>> ts;
            detail::unpack_triples(
                grid.world().recv(grid.rank_of(i, root_col), kTagYB + u), ts);
            absorb_triples(ts);
        }
    }
}

/// COMPUTEPATTERN (Section V-B): the sparsity structure of
/// C* = A* B' + A B*, with each entry carrying the F* Bloom bitfield (bit
/// (k mod 64) set iff inner index k contributes). Numerical values of the
/// operands are ignored. Returns the distributed pattern matrix. Collective.
template <typename T>
DistDynamicMatrix<std::uint64_t> compute_pattern(
    const DistDynamicMatrix<T>& A, const DistDcsr<T>& Astar,
    const DistDynamicMatrix<T>& Bprime, const DistDcsr<T>& Bstar,
    const DynamicSpgemmOptions& opts = {}) {
    ProcessGrid& grid = A.shape().grid();
    DistDynamicMatrix<std::uint64_t> cstar(grid, A.shape().nrows(),
                                           Bprime.shape().ncols());
    const auto& rp = cstar.shape().row_partition();
    const auto& cp = cstar.shape().col_partition();
    const BlockPartition kr = grid.row_partition(A.shape().ncols());
    const BlockPartition kc = grid.col_partition(A.shape().ncols());
    auto bits_or = [](std::uint64_t a, std::uint64_t b) { return a | b; };

    auto absorb = [&](const Dcsr<std::uint64_t>& reduced) {
        par::Profiler::Scope scope(par::Phase::LocalAddition);
        reduced.for_each([&](index_t u, index_t v, std::uint64_t bits) {
            cstar.local().insert_or_add(u, v, bits, bits_or);
        });
    };
    detail::algebraic_rounds<T, std::uint64_t>(
        grid, Astar, Bstar,
        [&](const Dcsr<T>& a_slice, int a) {
            sparse::SpgemmOptions sopts;
            sopts.pool = opts.pool;
            // Columns of the A* slab slice live in inner row block K^r_i.
            sopts.inner_offset = kr.offset(grid.grid_row());
            return sparse::spgemm_pattern(rp.size(a),
                                          cstar.shape().local_cols(),
                                          sparse::as_left(a_slice),
                                          sparse::as_right(Bprime.local()),
                                          sopts);
        },
        [&](const Dcsr<T>& b_slice, int b) {
            sparse::SpgemmOptions sopts;
            sopts.pool = opts.pool;
            // Columns of A_{i,j} live in inner column block K^c_j.
            sopts.inner_offset = kc.offset(grid.grid_col());
            return sparse::spgemm_pattern(cstar.shape().local_rows(),
                                          cp.size(b),
                                          sparse::as_left(A.local()),
                                          sparse::as_right(b_slice), sopts);
        },
        absorb);
    return cstar;
}

}  // namespace dsg::core
