// Gustavson row-wise local SpGEMM (Section VI-A), generic over:
//  - the left operand layout (CSR, DCSR, DynamicMatrix) — streamed row-wise;
//  - the right operand layout — accessed by row id in O(1) expected time;
//  - the accumulation (semiring add) and the per-term value (semiring mul,
//    or the Bloom bit 1 << (k mod 64) for the pattern computation of
//    Algorithm 2, or both at once);
//  - an optional output mask (the C* mask of the general algorithm), a DCSR
//    in the output's coordinates whose values are ignored;
//  - intra-rank parallelism across left rows via a ThreadPool, each thread
//    owning a private sparse accumulator (Section VI-A).
//
// A left row with exactly one entry (k, a) yields row k of the right operand,
// each entry mapped through term(a, b, k + inner_offset) and filtered by the
// mask. Where the right operand's rows hold distinct columns (a DHB row,
// DynRight), nothing in that row can combine, so it is emitted directly,
// without the accumulator, in the same entries and order. CSR and DCSR rows
// may repeat a column (an update slab keeps duplicate coordinates), so
// CsrRight and DcsrRight always accumulate.
//
// Every left adapter yields its rows in ascending order, so the kernel walks
// the mask in step with them; a pooled chunk finds its first mask row by
// binary search. A left row absent from the mask is skipped without touching
// the right operand. A present row stamps its mask columns into a
// per-thread array, and each term checks the stamp. Without a mask the loop
// is compiled without any of this (NoMask).
//
// The output is a DCSR with rows in ascending order; columns within a row are
// unsorted (insertion order of the accumulator), consistent with the rest of
// the library.
#pragma once

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "par/thread_pool.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/dynamic_matrix.hpp"
#include "sparse/semiring.hpp"
#include "sparse/spa.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

// -- left-operand adapters (row streams) ---------------------------------------

template <typename T>
struct CsrLeft {
    const Csr<T>& m;
    [[nodiscard]] std::size_t stream_count() const {
        return static_cast<std::size_t>(m.nrows());
    }
    [[nodiscard]] index_t row_id(std::size_t slot) const {
        return static_cast<index_t>(slot);
    }
    [[nodiscard]] std::size_t row_size(std::size_t slot) const {
        return m.row_cols(static_cast<index_t>(slot)).size();
    }
    template <typename G>
    void entries(std::size_t slot, G&& g) const {
        const auto i = static_cast<index_t>(slot);
        auto cols = m.row_cols(i);
        auto vals = m.row_values(i);
        for (std::size_t k = 0; k < cols.size(); ++k) g(cols[k], vals[k]);
    }
};

template <typename T>
struct DcsrLeft {
    const Dcsr<T>& m;
    [[nodiscard]] std::size_t stream_count() const { return m.row_count(); }
    [[nodiscard]] index_t row_id(std::size_t slot) const { return m.row_id(slot); }
    [[nodiscard]] std::size_t row_size(std::size_t slot) const {
        return m.row_cols(slot).size();
    }
    template <typename G>
    void entries(std::size_t slot, G&& g) const {
        auto cols = m.row_cols(slot);
        auto vals = m.row_values(slot);
        for (std::size_t k = 0; k < cols.size(); ++k) g(cols[k], vals[k]);
    }
};

template <typename T>
struct DynLeft {
    const DynamicMatrix<T>& m;
    [[nodiscard]] std::size_t stream_count() const {
        return static_cast<std::size_t>(m.nrows());
    }
    [[nodiscard]] index_t row_id(std::size_t slot) const {
        return static_cast<index_t>(slot);
    }
    [[nodiscard]] std::size_t row_size(std::size_t slot) const {
        return m.row_size(static_cast<index_t>(slot));
    }
    template <typename G>
    void entries(std::size_t slot, G&& g) const {
        for (const auto& e : m.row(static_cast<index_t>(slot))) g(e.col, e.value);
    }
};

template <typename T>
CsrLeft<T> as_left(const Csr<T>& m) { return {m}; }
template <typename T>
DcsrLeft<T> as_left(const Dcsr<T>& m) { return {m}; }
template <typename T>
DynLeft<T> as_left(const DynamicMatrix<T>& m) { return {m}; }

// -- right-operand adapters (row lookup) ----------------------------------------
// distinct_cols: no row repeats a column (see the header).

template <typename T>
struct CsrRight {
    static constexpr bool distinct_cols = false;
    const Csr<T>& m;
    template <typename G>
    void row(index_t k, G&& g) const {
        auto cols = m.row_cols(k);
        auto vals = m.row_values(k);
        for (std::size_t x = 0; x < cols.size(); ++x) g(cols[x], vals[x]);
    }
};

template <typename T>
struct DynRight {
    static constexpr bool distinct_cols = true;
    const DynamicMatrix<T>& m;
    template <typename G>
    void row(index_t k, G&& g) const {
        for (const auto& e : m.row(k)) g(e.col, e.value);
    }
};

/// Right access into a DCSR via a transient row-id hash (see dcsr.hpp).
template <typename T>
struct DcsrRight {
    static constexpr bool distinct_cols = false;
    DcsrRowLookup<T> lookup;
    explicit DcsrRight(const Dcsr<T>& m) : lookup(m) {}
    template <typename G>
    void row(index_t k, G&& g) const {
        const auto pos = lookup.position(k);
        if (pos == DcsrRowLookup<T>::npos) return;
        const auto& m = lookup.matrix();
        auto cols = m.row_cols(pos);
        auto vals = m.row_values(pos);
        for (std::size_t x = 0; x < cols.size(); ++x) g(cols[x], vals[x]);
    }
};

template <typename T>
CsrRight<T> as_right(const Csr<T>& m) { return {m}; }
template <typename T>
DynRight<T> as_right(const DynamicMatrix<T>& m) { return {m}; }
template <typename T>
DcsrRight<T> as_right(const Dcsr<T>& m) { return DcsrRight<T>(m); }

// -- kernel ----------------------------------------------------------------------

struct SpgemmOptions {
    /// Output mask: only (i, j) stored in the mask are produced (Algorithm
    /// 2's "masked at C*"), whatever their values. Its shape must be the
    /// output's (std::invalid_argument otherwise).
    const Dcsr<std::uint64_t>* mask = nullptr;
    /// Added to the left operand's (local) column index to obtain the global
    /// inner-dimension index k used for Bloom bits.
    index_t inner_offset = 0;
    /// Intra-rank worker pool; nullptr runs sequentially.
    par::ThreadPool* pool = nullptr;
};

/// Value + Bloom bitfield accumulated together (initial SpGEMM that also
/// builds the filter matrix F, Section V-B).
template <typename T>
struct ValueBits {
    T value;
    std::uint64_t bits;
};

namespace detail {

/// No output mask: every row and column passes, at compile time.
struct NoMask {
    static constexpr bool enter(index_t) { return true; }
    static constexpr bool admits(index_t) { return true; }
};

/// The output mask, walked in step with ascending left rows from mask row
/// position `cur` (see the header).
struct MaskWalk {
    const Dcsr<std::uint64_t>& m;
    std::uint32_t* stamp;  // one per output column
    std::size_t cur;
    std::uint32_t mark = 0;

    /// Moves to output row i; false if the mask holds no entry in it.
    bool enter(index_t i) {
        while (cur < m.row_count() && m.row_id(cur) < i) ++cur;
        if (cur == m.row_count() || m.row_id(cur) != i) return false;
        mark = static_cast<std::uint32_t>(cur + 1);  // unique per mask row
        for (const index_t j : m.row_cols(cur)) stamp[j] = mark;
        return true;
    }
    [[nodiscard]] bool admits(index_t j) const { return stamp[j] == mark; }
};

template <typename V, typename AddOp, typename TermFn, typename Left,
          typename Right, typename Mask>
void spgemm_chunk(const Left& A, const Right& B, AddOp& add, TermFn& term,
                  const SpgemmOptions& opts, SparseAccumulator<V>& acc,
                  std::size_t slot_begin, std::size_t slot_end, Dcsr<V>& out,
                  Mask mask) {
    for (std::size_t s = slot_begin; s < slot_end; ++s) {
        const index_t i = A.row_id(s);
        if (!mask.enter(i)) continue;
        // Streams every term of output row i, under the mask, into sink.
        auto terms = [&](auto&& sink) {
            A.entries(s, [&](index_t k, const auto& a) {
                B.row(k, [&](index_t j, const auto& b) {
                    if (mask.admits(j))
                        sink(j, term(a, b, k + opts.inner_offset));
                });
            });
        };
        if (Right::distinct_cols && A.row_size(s) == 1) {
            out.begin_row(i);
            terms([&](index_t j, const V& x) { out.push_entry(j, x); });
            out.end_row();
            continue;
        }
        terms([&](index_t j, const V& x) { acc.add(j, x, add); });
        if (acc.empty()) continue;
        out.begin_row(i);
        auto cols = acc.cols();
        auto vals = acc.values();
        for (std::size_t x = 0; x < cols.size(); ++x)
            out.push_entry(cols[x], vals[x]);
        acc.reset();
    }
}

}  // namespace detail

/// Generic Gustavson SpGEMM: out(i, j) = add-reduction over k of
/// term(A(i, k), B(k, j), k + inner_offset).
template <typename V, typename AddOp, typename TermFn, typename Left,
          typename Right>
Dcsr<V> spgemm_generic(index_t out_nrows, index_t out_ncols, const Left& A,
                       const Right& B, AddOp add, TermFn term,
                       const SpgemmOptions& opts = {}) {
    const Dcsr<std::uint64_t>* mask = opts.mask;
    if (mask != nullptr &&
        (mask->nrows() != out_nrows || mask->ncols() != out_ncols))
        throw std::invalid_argument("spgemm: mask shape differs from output");
    const std::size_t n = A.stream_count();
    // Slots [b, e) on one thread's accumulator and mask stamps; a chunk
    // finds its first mask row by binary search.
    auto run = [&](SparseAccumulator<V>& acc, std::vector<std::uint32_t>& stamp,
                   std::size_t b, std::size_t e, Dcsr<V>& out) {
        if (mask == nullptr)
            return detail::spgemm_chunk(A, B, add, term, opts, acc, b, e, out,
                                        detail::NoMask{});
        if (b >= e) return;  // a pooled chunk past the last slot
        stamp.resize(static_cast<std::size_t>(out_ncols));
        const auto ids = mask->row_ids();
        const auto first = std::lower_bound(ids.begin(), ids.end(), A.row_id(b));
        detail::spgemm_chunk(
            A, B, add, term, opts, acc, b, e, out,
            detail::MaskWalk{*mask, stamp.data(),
                             static_cast<std::size_t>(first - ids.begin())});
    };
    if (opts.pool == nullptr || opts.pool->thread_count() == 1 || n < 2) {
        Dcsr<V> out(out_nrows, out_ncols);
        SparseAccumulator<V> acc;
        std::vector<std::uint32_t> stamp;
        run(acc, stamp, 0, n, out);
        return out;
    }
    // Fixed contiguous chunks so per-chunk outputs concatenate in row order.
    const int threads = opts.pool->thread_count();
    const std::size_t nchunks =
        std::min<std::size_t>(n, static_cast<std::size_t>(threads) * 4);
    const std::size_t chunk = (n + nchunks - 1) / nchunks;
    std::vector<Dcsr<V>> parts(nchunks);
    std::vector<SparseAccumulator<V>> accs(static_cast<std::size_t>(threads));
    std::vector<std::vector<std::uint32_t>> stamps(accs.size());
    opts.pool->parallel_for(nchunks, [&](int t, std::size_t cb, std::size_t ce) {
        for (std::size_t c = cb; c < ce; ++c) {
            const std::size_t b = c * chunk;
            const std::size_t e = std::min(b + chunk, n);
            Dcsr<V> part(out_nrows, out_ncols);
            run(accs[static_cast<std::size_t>(t)],
                stamps[static_cast<std::size_t>(t)], b, e, part);
            parts[c] = std::move(part);
        }
    });
    Dcsr<V> out = std::move(parts[0]);
    for (std::size_t c = 1; c < nchunks; ++c) out.append_rows(parts[c]);
    return out;
}

/// Plain semiring SpGEMM: C = A · B over SR.
template <Semiring SR, typename Left, typename Right>
Dcsr<typename SR::value_type> spgemm(index_t out_nrows, index_t out_ncols,
                                     const Left& A, const Right& B,
                                     const SpgemmOptions& opts = {}) {
    using T = typename SR::value_type;
    return spgemm_generic<T>(
        out_nrows, out_ncols, A, B,
        [](const T& a, const T& b) { return SR::add(a, b); },
        [](const T& a, const T& b, index_t) { return SR::mul(a, b); }, opts);
}

/// Pattern-only SpGEMM: values are the Bloom bitfields of the contributing
/// inner indices (COMPUTEPATTERN of Algorithm 2). Input values are ignored.
template <typename Left, typename Right>
Dcsr<std::uint64_t> spgemm_pattern(index_t out_nrows, index_t out_ncols,
                                   const Left& A, const Right& B,
                                   const SpgemmOptions& opts = {}) {
    return spgemm_generic<std::uint64_t>(
        out_nrows, out_ncols, A, B,
        [](std::uint64_t a, std::uint64_t b) { return a | b; },
        [](const auto&, const auto&, index_t k) { return bloom_bit(k); }, opts);
}

/// SpGEMM producing both semiring values and Bloom bitfields in one pass
/// (used when the initial C = AB must also build the filter F).
template <Semiring SR, typename Left, typename Right>
Dcsr<ValueBits<typename SR::value_type>> spgemm_with_bloom(
    index_t out_nrows, index_t out_ncols, const Left& A, const Right& B,
    const SpgemmOptions& opts = {}) {
    using T = typename SR::value_type;
    using VB = ValueBits<T>;
    return spgemm_generic<VB>(
        out_nrows, out_ncols, A, B,
        [](const VB& a, const VB& b) {
            return VB{SR::add(a.value, b.value), a.bits | b.bits};
        },
        [](const T& a, const T& b, index_t k) {
            return VB{SR::mul(a, b), bloom_bit(k)};
        },
        opts);
}

}  // namespace dsg::sparse
