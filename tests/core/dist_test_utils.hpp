// Shared helpers for distributed tests: random inputs, serial reference
// SpGEMM over a semiring, and map-based comparison of distributed results.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <random>
#include <vector>

#include "core/dist_matrix.hpp"
#include "sparse/coo.hpp"
#include "sparse/semiring.hpp"

namespace dsg::test {

using core::DistDynamicMatrix;
using sparse::index_t;
using sparse::Triple;

using CoordMap = std::map<std::pair<index_t, index_t>, double>;

inline std::vector<Triple<double>> random_triples(std::mt19937_64& rng,
                                                  index_t rows, index_t cols,
                                                  int count,
                                                  double lo = 1.0,
                                                  double hi = 9.0) {
    std::uniform_real_distribution<double> val(lo, hi);
    std::vector<Triple<double>> ts;
    ts.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i)
        ts.push_back({static_cast<index_t>(rng() % rows),
                      static_cast<index_t>(rng() % cols), val(rng)});
    return ts;
}

inline CoordMap as_map(const std::vector<Triple<double>>& ts) {
    CoordMap m;
    for (const auto& t : ts) m[{t.row, t.col}] = t.value;
    return m;
}

/// Serial reference SpGEMM over a semiring, from coordinate maps.
template <typename SR>
CoordMap reference_multiply(const CoordMap& a, const CoordMap& b) {
    CoordMap out;
    for (const auto& [ca, va] : a)
        for (const auto& [cb, vb] : b) {
            if (ca.second != cb.first) continue;
            const double term = SR::mul(va, vb);
            auto [it, fresh] = out.try_emplace({ca.first, cb.second}, term);
            if (!fresh) it->second = SR::add(it->second, term);
        }
    return out;
}

/// Applies semiring addition of updates onto a map (A' = A + A*).
template <typename SR>
CoordMap reference_add(CoordMap a, const std::vector<Triple<double>>& updates) {
    for (const auto& t : updates) {
        auto [it, fresh] = a.try_emplace({t.row, t.col}, t.value);
        if (!fresh) it->second = SR::add(it->second, t.value);
    }
    return a;
}

/// Expects the distributed matrix to hold exactly `expect` up to numerically
/// zero extras. Algorithm 1 erases every entry that cancels to exactly
/// zero, so the only extras left are inexact floating-point residues of a
/// cancellation (non-integer values that do not sum back to 0.0).
inline void expect_matches(const DistDynamicMatrix<double>& m,
                           const CoordMap& expect, double tol = 1e-9) {
    const CoordMap got = as_map(m.gather_global());
    for (const auto& [coord, v] : expect) {
        auto it = got.find(coord);
        ASSERT_NE(it, got.end()) << "missing (" << coord.first << ", "
                                 << coord.second << ")";
        EXPECT_NEAR(it->second, v, tol)
            << "(" << coord.first << ", " << coord.second << ")";
    }
    for (const auto& [coord, v] : got) {
        if (expect.find(coord) == expect.end()) {
            EXPECT_NEAR(v, 0.0, tol) << "spurious non-zero (" << coord.first
                                     << ", " << coord.second << ")";
        }
    }
}

/// Strict variant: identical structure and values.
inline void expect_matches_exactly(const DistDynamicMatrix<double>& m,
                                   const CoordMap& expect, double tol = 1e-9) {
    const CoordMap got = as_map(m.gather_global());
    ASSERT_EQ(got.size(), expect.size());
    for (const auto& [coord, v] : expect) {
        auto it = got.find(coord);
        ASSERT_NE(it, got.end());
        EXPECT_NEAR(it->second, v, tol);
    }
}

}  // namespace dsg::test
