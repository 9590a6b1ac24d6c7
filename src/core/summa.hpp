// Sparse SUMMA (Buluc & Gilbert [20]): the static distributed SpGEMM.
//
// This implementation serves three roles:
//  1. the initial computation of C = AB (optionally producing the Bloom
//     filter matrix F needed by the general dynamic algorithm, Section V-B);
//  2. the CombBLAS-style *competitor* that the dynamic algorithms are
//     benchmarked against (static recomputation, Figs. 9/10);
//  3. a masked variant used by the algebraic graph algorithms (e.g. triangle
//     counting computes A·A masked at A).
//
// On a rows x cols grid the inner dimension K is partitioned two ways: into
// `cols` blocks by A's column distribution and into `rows` blocks by B's row
// distribution. A stage is one segment of the common refinement of the two
// partitions (at most rows + cols - 1 segments; exactly q of them on a
// square q x q grid, where the refinement IS the classic round structure).
// In each stage the grid column owning the A-columns of the segment
// broadcasts its slice along the grid row, the grid row owning the matching
// B-rows broadcasts along the grid column, and every rank multiplies
// locally; aggregation is entirely local, but *all* non-zeros of A and B
// travel, which is exactly the cost the dynamic algorithms avoid.
//
// The two broadcasts of stage k+1 are posted before stage k's local multiply
// starts (DistEmbed-style pipelining, one stage ahead), so communication
// overlaps compute.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "core/dist_matrix.hpp"
#include "par/profiler.hpp"
#include "sparse/dcsr_ops.hpp"
#include "sparse/local_spgemm.hpp"

namespace dsg::core {

struct SummaOptions {
    par::ThreadPool* pool = nullptr;
    /// When set, also accumulates the Bloom filter matrix F: bit (k mod 64)
    /// of f_{ij} is set iff term a_{ik} b_{kj} contributed to c_{ij}.
    DistDynamicMatrix<std::uint64_t>* bloom_out = nullptr;
    /// When set, only the coordinates stored in this DCSR are produced
    /// (masked SpGEMM): this rank's mask block, in C's local coordinates
    /// and of C's local shape; its values are ignored.
    const sparse::Dcsr<std::uint64_t>* local_mask = nullptr;
};

namespace detail {

/// One stage of the rectangular-grid SUMMA: the inner-index range [lo, hi)
/// lies inside a single block of A's column partition (owned by grid column
/// a_root) and a single block of B's row partition (owned by grid row
/// b_root).
struct SummaStage {
    index_t lo, hi;
    int a_root, b_root;
};

/// Common refinement of A's column partition (over grid cols) and B's row
/// partition (over grid rows) of the inner dimension [0, K).
inline std::vector<SummaStage> summa_stages(const BlockPartition& kc,
                                            const BlockPartition& kr) {
    std::vector<index_t> cuts;
    for (int b = 0; b <= kc.blocks(); ++b) cuts.push_back(kc.offset(b));
    for (int b = 0; b <= kr.blocks(); ++b) cuts.push_back(kr.offset(b));
    std::sort(cuts.begin(), cuts.end());
    cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
    std::vector<SummaStage> stages;
    for (std::size_t s = 0; s + 1 < cuts.size(); ++s) {
        if (cuts[s + 1] == cuts[s]) continue;
        stages.push_back(
            {cuts[s], cuts[s + 1], kc.owner(cuts[s]), kr.owner(cuts[s])});
    }
    return stages;
}

}  // namespace detail

/// C <- C (+) A · B over SR (C is usually empty on entry). Requires
/// A.ncols == B.nrows and matching grids. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
void summa(DistDynamicMatrix<T>& C, const DistDynamicMatrix<T>& A,
           const DistDynamicMatrix<T>& B, const SummaOptions& opts = {}) {
    using par::Phase;
    using par::Profiler;
    ProcessGrid& grid = C.shape().grid();
    const int i = grid.grid_row();
    const int j = grid.grid_col();
    const BlockPartition kc = grid.col_partition(A.shape().ncols());
    const BlockPartition kr = grid.row_partition(B.shape().nrows());
    const auto stages = detail::summa_stages(kc, kr);

    // Freeze the local blocks once; stages then slice out of the frozen
    // copies (on a square grid each rank's block is sliced exactly once).
    const Dcsr<T> a_loc = A.local().to_dcsr();
    const Dcsr<T> b_loc = B.local().to_dcsr();

    // Serializes this rank's slices for one stage (empty buffers on
    // non-roots, which the broadcasts ignore).
    auto slices = [&](const detail::SummaStage& st) {
        Profiler::Scope scope(Phase::LocalConstruct);
        std::pair<par::Buffer, par::Buffer> out;
        if (j == st.a_root)
            out.first = sparse::dcsr_col_block(a_loc,
                                               st.lo - kc.offset(st.a_root),
                                               st.hi - kc.offset(st.a_root))
                            .serialize();
        if (i == st.b_root)
            out.second = sparse::dcsr_row_block(b_loc,
                                                st.lo - kr.offset(st.b_root),
                                                st.hi - kr.offset(st.b_root))
                             .serialize();
        return out;
    };

    using Posted =
        std::pair<par::Comm::PendingBcast, par::Comm::PendingBcast>;
    auto post = [&](const detail::SummaStage& st) {
        auto [abuf, bbuf] = slices(st);
        Profiler::Scope scope(Phase::Bcast);
        return Posted{grid.row_comm().ibcast(st.a_root, std::move(abuf)),
                      grid.col_comm().ibcast(st.b_root, std::move(bbuf))};
    };
    std::vector<Posted> inflight;  // at most one outstanding stage
    if (!stages.empty()) inflight.push_back(post(stages[0]));

    for (std::size_t k = 0; k < stages.size(); ++k) {
        const auto& st = stages[k];
        Dcsr<T> a_ik;
        Dcsr<T> b_kj;
        {
            Profiler::Scope scope(Phase::Bcast);
            a_ik = Dcsr<T>::deserialize(inflight.back().first.wait());
            b_kj = Dcsr<T>::deserialize(inflight.back().second.wait());
            inflight.pop_back();
        }
        // Overlap: next stage's broadcasts ride under this multiply.
        if (k + 1 < stages.size()) inflight.push_back(post(stages[k + 1]));

        sparse::SpgemmOptions sopts;
        sopts.pool = opts.pool;
        sopts.mask = opts.local_mask;
        sopts.inner_offset = st.lo;
        if (opts.bloom_out != nullptr) {
            Dcsr<sparse::ValueBits<T>> part;
            {
                Profiler::Scope scope(Phase::LocalMult);
                part = sparse::spgemm_with_bloom<SR>(
                    C.shape().local_rows(), C.shape().local_cols(),
                    sparse::as_left(a_ik), sparse::as_right(b_kj), sopts);
            }
            Profiler::Scope scope(Phase::LocalAddition);
            part.for_each([&](index_t u, index_t v,
                              const sparse::ValueBits<T>& vb) {
                C.local().insert_or_add(u, v, vb.value, SR::add);
                opts.bloom_out->local().insert_or_add(
                    u, v, vb.bits,
                    [](std::uint64_t a, std::uint64_t b) { return a | b; });
            });
        } else {
            Dcsr<T> part;
            {
                Profiler::Scope scope(Phase::LocalMult);
                part = sparse::spgemm<SR>(C.shape().local_rows(),
                                          C.shape().local_cols(),
                                          sparse::as_left(a_ik),
                                          sparse::as_right(b_kj), sopts);
            }
            Profiler::Scope scope(Phase::LocalAddition);
            part.for_each([&](index_t u, index_t v, const T& x) {
                C.local().insert_or_add(u, v, x, SR::add);
            });
        }
    }
}

/// Convenience: freshly computed C = A · B. Collective.
template <sparse::Semiring SR, typename T = typename SR::value_type>
DistDynamicMatrix<T> summa_multiply(const DistDynamicMatrix<T>& A,
                                    const DistDynamicMatrix<T>& B,
                                    const SummaOptions& opts = {}) {
    DistDynamicMatrix<T> C(A.shape().grid(), A.shape().nrows(),
                           B.shape().ncols());
    summa<SR>(C, A, B, opts);
    return C;
}

}  // namespace dsg::core
