// Local SpGEMM with a transposed left operand: out = L^T * R, where L is a
// row-accessible matrix and R is hypersparse (DCSR).
//
// Needed by the transposed variants of the dynamic SpGEMM (Section V-C):
// there the term A^T B* multiplies the *stored* block of A (row-major, not
// transposable for free) against a hypersparse update block. Instead of
// materializing L^T, we iterate the few non-empty rows t of R and pair them
// with row t of L:   out(u, v) = add-reduce over t of term(L(t,u), R(t,v), t).
// The accumulation is pair-keyed (outer-product order), then grouped by
// output row with a counting sort — total cost O(partials + out_rows).
#pragma once

#include <vector>

#include "sparse/coo.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/dynamic_matrix.hpp"
#include "sparse/flat_map.hpp"
#include "sparse/semiring.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

/// out = L^T * R with out(u, v) = add-reduction over t of
/// term(L(t, u), R(t, v), t + inner_offset). L: (inner x out_rows) row-major;
/// R: (inner x out_cols) hypersparse.
template <typename V, typename AddOp, typename TermFn, typename T>
Dcsr<V> spgemm_transposed_left(index_t out_rows, index_t out_cols,
                               const DynamicMatrix<T>& L, const Dcsr<T>& R,
                               AddOp add, TermFn term,
                               index_t inner_offset = 0) {
    FlatMap<std::uint32_t> pos;
    std::vector<Triple<V>> partials;
    for (std::size_t r = 0; r < R.row_count(); ++r) {
        const index_t t = R.row_id(r);
        const auto lrow = L.row(t);
        if (lrow.empty()) continue;
        auto rcols = R.row_cols(r);
        auto rvals = R.row_values(r);
        for (const auto& le : lrow) {
            const index_t u = le.col;  // output row
            for (std::size_t x = 0; x < rcols.size(); ++x) {
                const index_t v = rcols[x];  // output col
                const V value = term(le.value, rvals[x], t + inner_offset);
                auto& slot = pos.get_or_insert(u * out_cols + v, 0xffffffffu);
                if (slot == 0xffffffffu) {
                    slot = static_cast<std::uint32_t>(partials.size());
                    partials.push_back({u, v, value});
                } else {
                    partials[slot].value = add(partials[slot].value, value);
                }
            }
        }
    }
    if (out_rows > 0) {
        counting_sort(partials, static_cast<std::size_t>(out_rows),
                      [](const Triple<V>& p) {
                          return static_cast<std::size_t>(p.row);
                      });
    }
    return Dcsr<V>::from_row_grouped(out_rows, out_cols, partials);
}

/// Semiring convenience wrapper.
template <Semiring SR, typename T = typename SR::value_type>
Dcsr<T> spgemm_transposed_left(index_t out_rows, index_t out_cols,
                               const DynamicMatrix<T>& L, const Dcsr<T>& R) {
    return spgemm_transposed_left<T>(
        out_rows, out_cols, L, R,
        [](const T& a, const T& b) { return SR::add(a, b); },
        [](const T& a, const T& b, index_t) { return SR::mul(a, b); });
}

}  // namespace dsg::sparse
