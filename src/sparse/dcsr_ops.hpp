// Element-wise and structural operations on DCSR matrices: the merge step of
// the sparse reductions (Section VI-A), transposition (Section V-C), the
// row/column block slices that feed the rectangular-grid SUMMA and slab
// exchanges, and the value/bits splitting helper of the Bloom machinery.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "sparse/dcsr.hpp"
#include "sparse/local_spgemm.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

/// The union of DCSR pieces of one nrows x ncols shape, in one k-way row
/// merge: rows ascending; the columns of a row in first-seen order, taking
/// the pieces in the order given; the values of one column folded as
/// add(old, new) in that order. A dense slot per column marks the columns
/// of the current row. This is the combine function of the sparse
/// reductions (Section VI-A). O(total nnz + ncols + output rows * pieces).
template <typename V, typename AddOp>
Dcsr<V> dcsr_merge(std::span<const Dcsr<V>* const> pieces, index_t nrows,
                   index_t ncols, AddOp&& add) {
    constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
    Dcsr<V> out(nrows, ncols);
    std::vector<std::uint32_t> slot(static_cast<std::size_t>(ncols), kAbsent);
    std::vector<index_t> cols;
    std::vector<V> vals;
    std::vector<std::size_t> next(pieces.size(), 0);  // row cursor per piece
    for (;;) {
        index_t row = nrows;  // the smallest row id ahead of any cursor
        for (std::size_t p = 0; p < pieces.size(); ++p)
            if (next[p] < pieces[p]->row_count())
                row = std::min(row, pieces[p]->row_id(next[p]));
        if (row == nrows) return out;
        for (std::size_t p = 0; p < pieces.size(); ++p) {
            const Dcsr<V>& m = *pieces[p];
            if (next[p] == m.row_count() || m.row_id(next[p]) != row) continue;
            const auto pc = m.row_cols(next[p]);
            const auto pv = m.row_values(next[p]);
            ++next[p];
            for (std::size_t x = 0; x < pc.size(); ++x) {
                auto& s = slot[static_cast<std::size_t>(pc[x])];
                if (s != kAbsent) {
                    vals[s] = add(vals[s], pv[x]);
                    continue;
                }
                s = static_cast<std::uint32_t>(cols.size());
                cols.push_back(pc[x]);
                vals.push_back(pv[x]);
            }
        }
        out.begin_row(row);
        for (std::size_t x = 0; x < cols.size(); ++x) {
            out.push_entry(cols[x], vals[x]);
            slot[static_cast<std::size_t>(cols[x])] = kAbsent;
        }
        out.end_row();
        cols.clear();
        vals.clear();
    }
}

/// C = A (+) B element-wise with add(old, new): the two-piece dcsr_merge.
template <typename V, typename AddOp>
Dcsr<V> dcsr_add(const Dcsr<V>& a, const Dcsr<V>& b, AddOp&& add) {
    const Dcsr<V>* both[] = {&a, &b};
    return dcsr_merge<V>(both, a.nrows(), a.ncols(), std::forward<AddOp>(add));
}

/// Transpose via counting sort by column; O(nnz + ncols). Used to
/// pre-transpose hypersparse blocks when SpGEMM operands are transposed
/// (Section V-C).
template <typename V>
Dcsr<V> dcsr_transpose(const Dcsr<V>& m) {
    std::vector<std::size_t> counts(static_cast<std::size_t>(m.ncols()) + 1, 0);
    m.for_each([&](index_t, index_t j, const V&) {
        ++counts[static_cast<std::size_t>(j) + 1];
    });
    for (std::size_t c = 1; c < counts.size(); ++c) counts[c] += counts[c - 1];
    std::vector<Triple<V>> flipped(m.nnz());
    m.for_each([&](index_t i, index_t j, const V& v) {
        flipped[counts[static_cast<std::size_t>(j)]++] = {j, i, v};
    });
    return Dcsr<V>::from_row_grouped(m.ncols(), m.nrows(), flipped);
}

/// The rows of m with ids in [lo, hi), reindexed to start at zero; the
/// result has dimensions (hi - lo, m.ncols()).
template <typename V>
Dcsr<V> dcsr_row_block(const Dcsr<V>& m, index_t lo, index_t hi) {
    Dcsr<V> out(hi - lo, m.ncols());
    for (std::size_t r = 0; r < m.row_count(); ++r) {
        const index_t row = m.row_id(r);
        if (row < lo) continue;
        if (row >= hi) break;
        out.begin_row(row - lo);
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x)
            out.push_entry(cols[x], vals[x]);
    }
    return out;
}

/// The columns of m with ids in [lo, hi), reindexed to start at zero; rows
/// emptied by the slice are dropped (double compression preserved). The
/// result has dimensions (m.nrows(), hi - lo).
template <typename V>
Dcsr<V> dcsr_col_block(const Dcsr<V>& m, index_t lo, index_t hi) {
    Dcsr<V> out(m.nrows(), hi - lo);
    for (std::size_t r = 0; r < m.row_count(); ++r) {
        out.begin_row(m.row_id(r));
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x)
            if (cols[x] >= lo && cols[x] < hi)
                out.push_entry(cols[x] - lo, vals[x]);
        out.end_row();
    }
    return out;
}

/// Assembles triples with pairwise-distinct coordinates — e.g. blocks whose
/// row or column ranges are disjoint — into a DCSR. Sorts by (row, col);
/// O(nnz log nnz).
template <typename V>
Dcsr<V> dcsr_from_unique_triples(index_t nrows, index_t ncols,
                                 std::vector<Triple<V>> triples) {
    std::sort(triples.begin(), triples.end(), [](const auto& a, const auto& b) {
        return std::tie(a.row, a.col) < std::tie(b.row, b.col);
    });
    return Dcsr<V>::from_row_grouped(nrows, ncols, triples);
}

/// Splits a ValueBits matrix into its value part and its Bloom-bits part
/// (same sparsity structure).
template <typename T>
std::pair<Dcsr<T>, Dcsr<std::uint64_t>> split_value_bits(
    const Dcsr<ValueBits<T>>& m) {
    Dcsr<T> values(m.nrows(), m.ncols());
    Dcsr<std::uint64_t> bits(m.nrows(), m.ncols());
    for (std::size_t r = 0; r < m.row_count(); ++r) {
        values.begin_row(m.row_id(r));
        bits.begin_row(m.row_id(r));
        auto cols = m.row_cols(r);
        auto vals = m.row_values(r);
        for (std::size_t x = 0; x < cols.size(); ++x) {
            values.push_entry(cols[x], vals[x].value);
            bits.push_entry(cols[x], vals[x].bits);
        }
    }
    return {std::move(values), std::move(bits)};
}

}  // namespace dsg::sparse
