// Local SpGEMM with a transposed left operand: out = L^T * R, where L is a
// row-accessible matrix and R is hypersparse (DCSR).
//
// Needed by the transposed variants of the dynamic SpGEMM (Section V-C):
// there the term A^T B* multiplies the *stored* block of A (row-major, not
// transposable for free) against a hypersparse update block. Instead of
// materializing L^T, only the hypersparse side is transposed:
// L^T R = (R^T L)^T, and R^T L is Gustavson's row-wise kernel with R^T
// streamed and L's rows read by index. Both transposes are counting sorts,
// linear in nnz plus the block's dimension, and the caller's thread pool
// parallelizes the multiply.
#pragma once

#include <cassert>

#include "sparse/dcsr.hpp"
#include "sparse/dcsr_ops.hpp"
#include "sparse/dynamic_matrix.hpp"
#include "sparse/local_spgemm.hpp"
#include "sparse/semiring.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

/// out = L^T * R over SR: out(u, v) = add-reduction over t of
/// L(t, u) * R(t, v). L: (inner x out_rows) row-major; R: (inner x out_cols)
/// hypersparse. The multiply runs on opts.pool; a mask is not supported.
template <Semiring SR, typename T = typename SR::value_type>
Dcsr<T> spgemm_transposed_left(index_t out_rows, index_t out_cols,
                               const DynamicMatrix<T>& L, const Dcsr<T>& R,
                               const SpgemmOptions& opts = {}) {
    assert(opts.mask == nullptr);
    return dcsr_transpose(spgemm<SR>(out_cols, out_rows,
                                     as_left(dcsr_transpose(R)), as_right(L),
                                     opts));
}

}  // namespace dsg::sparse
