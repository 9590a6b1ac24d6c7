// Coordinate-format utilities: counting sort (the redistribution kernel of
// Section IV-B), duplicate combination, and index permutation (the random
// remapping the paper applies for load balance, Section VII-A).
#pragma once

#include <algorithm>
#include <cassert>
#include <numeric>
#include <random>
#include <span>
#include <utility>
#include <vector>

#include "sparse/semiring.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

/// Stable counting sort of `in` into `out` (resized to in.size()), grouped
/// by key(triple) in [0, buckets); `in` is left as it was. Returns the
/// bucket boundaries: offsets[b] .. offsets[b+1] is bucket b of `out`. This
/// is the O(nnz + buckets) grouping the paper's two-phase redistribution
/// uses with buckets = sqrt(p).
template <typename T, typename KeyFn>
std::vector<std::size_t> counting_sort_into(std::span<const Triple<T>> in,
                                            std::vector<Triple<T>>& out,
                                            std::size_t buckets, KeyFn&& key) {
    std::vector<std::size_t> counts(buckets + 1, 0);
    for (const auto& t : in) {
        const auto b = static_cast<std::size_t>(key(t));
        assert(b < buckets);
        ++counts[b + 1];
    }
    std::partial_sum(counts.begin(), counts.end(), counts.begin());
    out.resize(in.size());
    std::vector<std::size_t> cursor(counts.begin(), counts.end() - 1);
    for (const auto& t : in) out[cursor[static_cast<std::size_t>(key(t))]++] = t;
    return counts;
}

/// counting_sort_into with the result replacing `triples`.
template <typename T, typename KeyFn>
std::vector<std::size_t> counting_sort(std::vector<Triple<T>>& triples,
                                       std::size_t buckets, KeyFn&& key) {
    std::vector<Triple<T>> out;
    auto counts = counting_sort_into<T>(triples, out, buckets, key);
    triples = std::move(out);
    return counts;
}

/// Sorts triples by (row, col) with a comparison sort. This is deliberately
/// the *competitor's* strategy (CombBLAS-style, Section VII-B a); our own
/// code paths use counting_sort.
template <typename T>
void comparison_sort_row_col(std::vector<Triple<T>>& triples) {
    std::sort(triples.begin(), triples.end(),
              [](const Triple<T>& a, const Triple<T>& b) {
                  return std::tie(a.row, a.col) < std::tie(b.row, b.col);
              });
}

/// Combines duplicate (row, col) entries with the semiring addition; input
/// need not be sorted. Output order is sorted by (row, col).
template <Semiring SR>
void combine_duplicates(std::vector<Triple<typename SR::value_type>>& triples) {
    using T = typename SR::value_type;
    comparison_sort_row_col(triples);
    std::size_t w = 0;
    for (std::size_t r = 0; r < triples.size(); ++r) {
        if (w > 0 && triples[w - 1].row == triples[r].row &&
            triples[w - 1].col == triples[r].col) {
            triples[w - 1].value = SR::add(triples[w - 1].value, triples[r].value);
        } else {
            triples[w++] = triples[r];
        }
    }
    triples.resize(w);
    (void)static_cast<T*>(nullptr);
}

/// A random bijection on [0, n) applied to row/column indices before
/// distribution; makes the 2D block distribution load-balanced on skewed
/// inputs [29]. Deterministic in `seed`.
class IndexPermutation {
public:
    IndexPermutation() = default;
    IndexPermutation(index_t n, std::uint64_t seed) : perm_(static_cast<std::size_t>(n)) {
        std::iota(perm_.begin(), perm_.end(), index_t{0});
        std::mt19937_64 rng(seed);
        std::shuffle(perm_.begin(), perm_.end(), rng);
    }

    [[nodiscard]] index_t operator()(index_t i) const {
        return perm_[static_cast<std::size_t>(i)];
    }
    [[nodiscard]] index_t size() const {
        return static_cast<index_t>(perm_.size());
    }

    /// Applies the permutation to both coordinates of every triple.
    template <typename T>
    void apply(std::vector<Triple<T>>& triples) const {
        for (auto& t : triples) {
            t.row = (*this)(t.row);
            t.col = (*this)(t.col);
        }
    }

private:
    std::vector<index_t> perm_;
};

}  // namespace dsg::sparse
