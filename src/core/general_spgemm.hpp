// Dynamic distributed SpGEMM for general updates — Algorithm 2 of the paper.
//
// General updates (e.g. value increases under (min,+), deletions in
// non-rings) cannot be folded into C via semiring addition; the affected
// entries of C must be *recomputed* from A' and B'. The affected set is the
// pattern of C* = A* B' + A B* (computed structurally by COMPUTEPATTERN).
// Recomputation is a masked SpGEMM, and the Bloom filter matrix F — bit
// (k mod 64) of f_{uv} records that inner index k contributed to c_{uv} —
// lets each rank send only the rows *and columns* of A' that can contribute:
//
//   E   = (F | F*) masked at C*            (locally)
//   R_u = OR over v of e_{uv}              (or-reduce along the grid row)
//   A^R = rows u of A' with r_u != 0, keeping only columns k with
//         bit (k mod 64) set in r_u
//   then: re-slab A^R onto the inner *row* partition K^r (alltoallv down the
//   process column + allgather along the row, as for A* in Algorithm 1; on a
//   square grid this is the paper's transpose exchange), and for each grid
//   row a: broadcast the C*_{a,j} mask down the column; masked local multiply
//   Z,H = A^R[N^r_a, K^r_i] B'_{i,j} masked at C*_{a,j}, a partial owned by
//   (a,j). After the last round one all-to-all down the process column sends
//   every partial straight to its owner, which folds its own and the
//   incoming ones (Z by semiring add, H by bitwise or); finally merge Z into
//   C and H into F at mask positions — entries of the mask that received no
//   value become structural zeros.
//
// The Bloom filter trades false positives (superfluous columns kept) for
// communication volume; it never loses a contribution (tested property).
// The mask broadcast of round a+1 is posted before round a's masked multiply,
// so it overlaps compute.
#pragma once

#include <optional>
#include <vector>

#include "core/dist_matrix.hpp"
#include "core/dynamic_spgemm.hpp"
#include "par/profiler.hpp"
#include "sparse/dcsr_ops.hpp"
#include "sparse/local_spgemm.hpp"

namespace dsg::core {

struct GeneralSpgemmOptions {
    par::ThreadPool* pool = nullptr;
    /// Disables the Bloom *column* filter (rows are still selected by the
    /// mask); measured by bench_ablation_bloom.
    bool use_bloom_filter = true;
};

/// Volume diagnostics of one general-update pass.
struct GeneralSpgemmStats {
    std::size_t aprime_nnz_global = 0;  ///< nnz(A')
    std::size_t ar_nnz_global = 0;      ///< nnz(A^R) actually communicated
    std::size_t cstar_nnz_global = 0;   ///< recomputed entries
};

/// Algorithm 2. C and F are the result and Bloom filter of the previous
/// multiplication (from summa with bloom_out, or maintained by prior calls);
/// Aprime/Bprime are the post-update inputs; Cstar is the pattern+F* matrix
/// from compute_pattern(). On return C == A' B' at every position (entries
/// outside the mask were already correct) and F is a valid filter for C.
/// Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
GeneralSpgemmStats general_dynamic_spgemm(
    DistDynamicMatrix<T>& C, DistDynamicMatrix<std::uint64_t>& F,
    const DistDynamicMatrix<T>& Aprime, const DistDynamicMatrix<T>& Bprime,
    const DistDynamicMatrix<std::uint64_t>& Cstar,
    const GeneralSpgemmOptions& opts = {}) {
    using par::Phase;
    using par::Profiler;
    using VB = sparse::ValueBits<T>;
    ProcessGrid& grid = C.shape().grid();
    const int rows = grid.rows();
    const int i = grid.grid_row();
    const BlockPartition kr = grid.row_partition(Aprime.shape().ncols());
    const BlockPartition kc = grid.col_partition(Aprime.shape().ncols());
    const auto& rp = C.shape().row_partition();

    // E = (F | F*) masked at C*, reduced over the grid row into the
    // row-filter vector R (one 64-bit word per local row of this block row).
    std::vector<std::uint64_t> r_vec(
        static_cast<std::size_t>(C.shape().local_rows()), 0);
    {
        Profiler::Scope scope(Phase::LocalMult);
        Cstar.local().for_each([&](index_t u, index_t v, std::uint64_t fstar) {
            const std::uint64_t* f = F.local().find(u, v);
            r_vec[static_cast<std::size_t>(u)] |=
                fstar | (f != nullptr ? *f : 0);
        });
    }
    grid.row_comm().allreduce_or(r_vec);

    // A^R: the filtered left operand (rows by R, columns by Bloom bits).
    Dcsr<T> ar(Aprime.shape().local_rows(), Aprime.shape().local_cols());
    {
        Profiler::Scope scope(Phase::LocalConstruct);
        const index_t col_off = kc.offset(grid.grid_col());
        for (index_t u = 0; u < Aprime.shape().local_rows(); ++u) {
            const std::uint64_t bits = r_vec[static_cast<std::size_t>(u)];
            if (bits == 0) continue;
            const auto row = Aprime.local().row(u);
            if (row.empty()) continue;
            ar.begin_row(u);
            for (const auto& e : row) {
                if (opts.use_bloom_filter &&
                    (bits & sparse::bloom_bit(col_off + e.col)) == 0)
                    continue;
                ar.push_entry(e.col, e.value);
            }
            ar.end_row();
        }
    }

    GeneralSpgemmStats stats;
    auto sum = [](std::uint64_t a, std::uint64_t b) { return a + b; };
    stats.aprime_nnz_global = grid.world().template allreduce<std::uint64_t>(
        Aprime.local().nnz(), sum);
    stats.ar_nnz_global =
        grid.world().template allreduce<std::uint64_t>(ar.nnz(), sum);
    stats.cstar_nnz_global = grid.world().template allreduce<std::uint64_t>(
        Cstar.local().nnz(), sum);

    // Re-slab A^R onto the inner row partition: this rank ends up with
    // A^R[:, K^r_i] in full (the slab of Algorithm 1's left-update term;
    // degenerates to the transpose exchange on a square grid).
    Dcsr<T> ar_slab;
    {
        Profiler::Scope scope(Phase::SendRecv);
        ar_slab = detail::update_slab(Aprime.shape(), ar, /*inner_row=*/false,
                                      /*k_row=*/true);
    }
    par::Buffer mask_snapshot;
    {
        Profiler::Scope scope(Phase::LocalConstruct);
        mask_snapshot = Cstar.local().to_dcsr().serialize();
    }

    // One round per grid row a: mask C*_{a,j} comes down the process column;
    // the A^R rows for output block a are already local in the slab. Round
    // a+1's mask is posted before round a's multiply.
    auto post_mask = [&](int a) {
        Profiler::Scope scope(Phase::Bcast);
        par::Buffer mbuf;
        if (i == a) mbuf = mask_snapshot;  // copy: broadcast consumes it
        return grid.col_comm().ibcast(a, std::move(mbuf));
    };
    std::optional<par::Comm::PendingBcast> inflight;
    if (rows > 0) inflight.emplace(post_mask(0));

    // Round a's partial belongs to (a, j): this rank keeps its own and
    // queues the others for one exchange after the last round (an empty
    // partial as a zero-length buffer).
    std::vector<par::Buffer> z_send(static_cast<std::size_t>(rows));
    Dcsr<VB> z_mine(C.shape().local_rows(), C.shape().local_cols());
    for (int a = 0; a < rows; ++a) {
        Dcsr<std::uint64_t> cstar_aj;
        {
            Profiler::Scope scope(Phase::Bcast);
            cstar_aj = Dcsr<std::uint64_t>::deserialize(inflight->wait());
            inflight.reset();
        }
        if (a + 1 < rows) inflight.emplace(post_mask(a + 1));

        Dcsr<VB> z_part;
        {
            Profiler::Scope scope(Phase::LocalMult);
            // Each rank rebuilds the mask hash locally: faster than
            // broadcasting the hash table itself (Section VI-B).
            const sparse::PairSet mask = sparse::dcsr_pattern(cstar_aj);
            sparse::SpgemmOptions sopts;
            sopts.pool = opts.pool;
            sopts.mask = &mask;
            sopts.inner_offset = kr.offset(i);
            auto ar_slice = sparse::dcsr_row_block(ar_slab, rp.offset(a),
                                                   rp.offset(a + 1));
            z_part = sparse::spgemm_with_bloom<SR>(
                rp.size(a), C.shape().local_cols(), sparse::as_left(ar_slice),
                sparse::as_right(Bprime.local()), sopts);
        }
        Profiler::Scope scope(Phase::ReduceScatter);
        if (a == i)
            z_mine = std::move(z_part);
        else if (z_part.nnz() > 0)
            z_send[static_cast<std::size_t>(a)] = z_part.serialize();
    }
    {
        Profiler::Scope scope(Phase::ReduceScatter);
        const auto z_recv = grid.col_comm().alltoallv(std::move(z_send));
        for (const auto& buf : z_recv) {
            if (buf.empty()) continue;  // own slot, or an empty partial
            z_mine = sparse::dcsr_add(
                z_mine, Dcsr<VB>::deserialize(buf),
                [](const VB& x, const VB& y) {
                    return VB{SR::add(x.value, y.value), x.bits | y.bits};
                });
        }
    }

    // Final local merge, masked at C*: recomputed entries replace C and F;
    // mask positions with no surviving value become structural zeros.
    {
        Profiler::Scope scope(Phase::LocalAddition);
        sparse::PairSet alive(C.shape().local_cols(), z_mine.nnz());
        z_mine.for_each([&](index_t u, index_t v, const VB& vb) {
            C.local().insert_or_assign(u, v, vb.value);
            F.local().insert_or_assign(u, v, vb.bits);
            alive.insert(u, v);
        });
        Cstar.local().for_each([&](index_t u, index_t v, std::uint64_t) {
            if (!alive.contains(u, v)) {
                C.local().erase(u, v);
                F.local().erase(u, v);
            }
        });
    }
    return stats;
}

}  // namespace dsg::core
