// The local Gustavson kernel against a dense reference, over several
// semirings, operand layouts, masks, Bloom production and thread counts,
// including hypersparse left operands whose one-entry rows skip the
// accumulator.
#include <gtest/gtest.h>

#include <map>
#include <random>
#include <set>
#include <stdexcept>
#include <vector>

#include "sparse/coo.hpp"
#include "sparse/dcsr_ops.hpp"
#include "sparse/local_spgemm.hpp"

namespace {

using namespace dsg::sparse;

std::vector<Triple<double>> random_triples(std::mt19937_64& rng, index_t rows,
                                           index_t cols, int count) {
    std::vector<Triple<double>> ts;
    for (int i = 0; i < count; ++i)
        ts.push_back({static_cast<index_t>(rng() % rows),
                      static_cast<index_t>(rng() % cols),
                      static_cast<double>(1 + rng() % 9)});
    combine_duplicates<PlusTimes<double>>(ts);
    return ts;
}

/// A hypersparse operand, like an update slab: about one row in three holds
/// one entry, and the last row holds two, so both paths of the kernel run.
std::vector<Triple<double>> hypersparse_triples(std::mt19937_64& rng,
                                                index_t rows, index_t cols) {
    std::vector<Triple<double>> ts;
    for (index_t i = 0; i + 1 < rows; ++i)
        if (rng() % 3 == 0)
            ts.push_back({i, static_cast<index_t>(rng() % cols),
                          static_cast<double>(1 + rng() % 9)});
    ts.push_back({rows - 1, 0, 2.0});
    ts.push_back({rows - 1, cols - 1, 3.0});
    return ts;
}

/// Dense reference multiply over a semiring.
template <typename SR>
std::map<std::pair<index_t, index_t>, double> dense_reference(
    const std::vector<Triple<double>>& a, const std::vector<Triple<double>>& b,
    index_t inner_offset = 0) {
    (void)inner_offset;
    std::map<std::pair<index_t, index_t>, double> out;
    for (const auto& ta : a)
        for (const auto& tb : b) {
            if (ta.col != tb.row) continue;
            const double term = SR::mul(ta.value, tb.value);
            auto [it, fresh] = out.try_emplace({ta.row, tb.col}, term);
            if (!fresh) it->second = SR::add(it->second, term);
        }
    return out;
}

/// A DCSR mask of the given coordinates, each stored with a nonzero word.
Dcsr<std::uint64_t> mask_of(index_t rows, index_t cols,
                            const std::set<std::pair<index_t, index_t>>& at) {
    std::vector<Triple<std::uint64_t>> ts;
    for (const auto& [i, j] : at) ts.push_back({i, j, 1});
    return Dcsr<std::uint64_t>::from_row_grouped(rows, cols, ts);
}

template <typename V>
std::map<std::pair<index_t, index_t>, V> as_map(const Dcsr<V>& m) {
    std::map<std::pair<index_t, index_t>, V> out;
    m.for_each([&](index_t i, index_t j, const V& v) { out[{i, j}] = v; });
    return out;
}

TEST(LocalSpgemm, TinyHandComputedExample) {
    // A = [1 2; 0 3], B = [4 0; 5 6] -> C = [14 12; 15 18]
    auto A = Dcsr<double>::from_row_grouped(
        2, 2,
        std::vector<Triple<double>>{{0, 0, 1}, {0, 1, 2}, {1, 1, 3}});
    auto B = Csr<double>::from_triples(
        2, 2,
        std::vector<Triple<double>>{{0, 0, 4}, {1, 0, 5}, {1, 1, 6}});
    auto C = spgemm<PlusTimes<double>>(2, 2, as_left(A), as_right(B));
    auto m = as_map(C);
    EXPECT_EQ((m[{0, 0}]), 14.0);
    EXPECT_EQ((m[{0, 1}]), 12.0);
    EXPECT_EQ((m[{1, 0}]), 15.0);
    EXPECT_EQ((m[{1, 1}]), 18.0);
}

TEST(LocalSpgemm, MinPlusShortestTwoHop) {
    // Path 0 -(1)-> 1 -(2)-> 2 and direct 0 -(9)-> 2 in A^2 terms.
    auto A = Dcsr<double>::from_row_grouped(
        3, 3, std::vector<Triple<double>>{{0, 1, 1}, {1, 2, 2}});
    auto C = spgemm<MinPlus<double>>(3, 3, as_left(A), as_right(A));
    auto m = as_map(C);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ((m[{0, 2}]), 3.0);  // 1 + 2
}

class SpgemmLayouts : public ::testing::TestWithParam<int> {};

TEST_P(SpgemmLayouts, RandomizedMatchesDenseReference) {
    std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()) * 97 + 3);
    const index_t n = 24, k = 18, m = 30;
    // Each trial multiplies a left operand with about three entries per row,
    // then a hypersparse one whose rows mostly hold one entry.
    for (int trial = 0; trial < 20; ++trial) {
        auto ta = trial % 2 == 0 ? random_triples(rng, n, k, 80)
                                 : hypersparse_triples(rng, n, k);
        auto tb = random_triples(rng, k, m, 80);
        auto expect = dense_reference<PlusTimes<double>>(ta, tb);

        auto a_dcsr = Dcsr<double>::from_row_grouped(n, k, ta);
        auto b_csr = Csr<double>::from_triples(k, m, tb);
        DynamicMatrix<double> a_dyn(n, k), b_dyn(k, m);
        for (const auto& t : ta) a_dyn.insert_or_assign(t.row, t.col, t.value);
        for (const auto& t : tb) b_dyn.insert_or_assign(t.row, t.col, t.value);
        auto b_dcsr = Dcsr<double>::from_row_grouped(k, m, tb);
        auto a_csr = Csr<double>::from_triples(n, k, ta);

        switch (GetParam()) {
            case 0:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dcsr), as_right(b_csr))),
                          expect);
                break;
            case 1:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dcsr), as_right(b_dyn))),
                          expect);
                break;
            case 2:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dyn), as_right(b_dcsr))),
                          expect);
                break;
            case 3:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_csr), as_right(b_dyn))),
                          expect);
                break;
            default:
                EXPECT_EQ(as_map(spgemm<PlusTimes<double>>(
                              n, m, as_left(a_dyn), as_right(b_dyn))),
                          expect);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(LeftRightCombos, SpgemmLayouts,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(LocalSpgemm, MinPlusRandomizedMatchesReference) {
    std::mt19937_64 rng(77);
    for (int trial = 0; trial < 10; ++trial) {
        auto ta = random_triples(rng, 20, 20, 60);
        auto tb = random_triples(rng, 20, 20, 60);
        auto a = Dcsr<double>::from_row_grouped(20, 20, ta);
        DynamicMatrix<double> b(20, 20);
        for (const auto& t : tb) b.insert_or_assign(t.row, t.col, t.value);
        EXPECT_EQ(as_map(spgemm<MinPlus<double>>(20, 20, as_left(a),
                                                 as_right(b))),
                  (dense_reference<MinPlus<double>>(ta, tb)));
    }
}

TEST(LocalSpgemm, MaskRestrictsOutput) {
    std::mt19937_64 rng(8);
    auto ta = random_triples(rng, 15, 15, 50);
    auto tb = random_triples(rng, 15, 15, 50);
    auto a = Dcsr<double>::from_row_grouped(15, 15, ta);
    auto b = Csr<double>::from_triples(15, 15, tb);

    auto full = dense_reference<PlusTimes<double>>(ta, tb);
    // Keep roughly half of the would-be outputs, except in one left row
    // whose products the mask leaves out entirely.
    const index_t absent = full.begin()->first.first;
    std::set<std::pair<index_t, index_t>> at;
    std::map<std::pair<index_t, index_t>, double> expect;
    bool keep = true;
    for (const auto& [coord, v] : full) {
        if (keep && coord.first != absent) {
            at.insert(coord);
            expect[coord] = v;
        }
        keep = !keep;
    }
    ASSERT_FALSE(expect.empty());
    // A mask column that no product reaches yields nothing.
    const index_t row = expect.begin()->first.first;
    index_t unreached = 0;
    while (full.count({row, unreached}) != 0) ++unreached;
    ASSERT_LT(unreached, 15);
    at.insert({row, unreached});
    const auto mask = mask_of(15, 15, at);
    SpgemmOptions opts;
    opts.mask = &mask;
    auto c = spgemm<PlusTimes<double>>(15, 15, as_left(a), as_right(b), opts);
    EXPECT_EQ(as_map(c), expect);
}

TEST(LocalSpgemm, EmptyMaskYieldsEmptyResult) {
    auto a = Dcsr<double>::from_row_grouped(
        3, 3, std::vector<Triple<double>>{{0, 0, 1}});
    auto b = Csr<double>::from_triples(3, 3,
                                       std::vector<Triple<double>>{{0, 0, 1}});
    const Dcsr<std::uint64_t> mask(3, 3);
    SpgemmOptions opts;
    opts.mask = &mask;
    auto c = spgemm<PlusTimes<double>>(3, 3, as_left(a), as_right(b), opts);
    EXPECT_EQ(c.nnz(), 0u);
}

TEST(LocalSpgemm, MaskOfAnotherShapeThrows) {
    auto a = Dcsr<double>::from_row_grouped(
        3, 3, std::vector<Triple<double>>{{0, 0, 1}});
    auto b = Csr<double>::from_triples(3, 3,
                                       std::vector<Triple<double>>{{0, 0, 1}});
    const Dcsr<std::uint64_t> wide(3, 4);
    const Dcsr<std::uint64_t> tall(4, 3);
    SpgemmOptions opts;
    for (const auto* mask : {&wide, &tall}) {
        opts.mask = mask;
        EXPECT_THROW((void)spgemm<PlusTimes<double>>(3, 3, as_left(a),
                                                     as_right(b), opts),
                     std::invalid_argument);
    }
}

TEST(LocalSpgemm, PatternBitsIdentifyContributingInnerIndices) {
    // a(0, 5) * b(5, 2) and a(0, 70) * b(70, 2) both contribute to (0, 2):
    // bits (5 mod 64) and (70 mod 64) = 6 must be set.
    auto a = Dcsr<double>::from_row_grouped(
        1, 100, std::vector<Triple<double>>{{0, 5, 1.0}, {0, 70, 1.0}});
    auto b = Csr<double>::from_triples(
        100, 3, std::vector<Triple<double>>{{5, 2, 1.0}, {70, 2, 1.0}});
    auto pat = spgemm_pattern(1, 3, as_left(a), as_right(b));
    auto m = as_map(pat);
    ASSERT_EQ(m.size(), 1u);
    EXPECT_EQ((m[{0, 2}]), bloom_bit(5) | bloom_bit(70));
}

TEST(LocalSpgemm, InnerOffsetShiftsBloomBits) {
    auto a = Dcsr<double>::from_row_grouped(
        1, 4, std::vector<Triple<double>>{{0, 1, 1.0}});
    auto b = Csr<double>::from_triples(4, 1,
                                       std::vector<Triple<double>>{{1, 0, 1.0}});
    SpgemmOptions opts;
    opts.inner_offset = 10;  // local k=1 is global k=11
    auto pat = spgemm_pattern(1, 1, as_left(a), as_right(b), opts);
    EXPECT_EQ((as_map(pat)[{0, 0}]), bloom_bit(11));
}

TEST(LocalSpgemm, WithBloomMatchesPlainValuesAndPattern) {
    std::mt19937_64 rng(21);
    auto ta = random_triples(rng, 12, 12, 40);
    auto tb = random_triples(rng, 12, 12, 40);
    auto a = Dcsr<double>::from_row_grouped(12, 12, ta);
    auto b = Csr<double>::from_triples(12, 12, tb);
    auto vb = spgemm_with_bloom<PlusTimes<double>>(12, 12, as_left(a),
                                                   as_right(b));
    auto [values, bits] = split_value_bits(vb);
    EXPECT_EQ(as_map(values), (dense_reference<PlusTimes<double>>(ta, tb)));
    EXPECT_EQ(as_map(bits),
              as_map(spgemm_pattern(12, 12, as_left(a), as_right(b))));
}

class SpgemmThreads : public ::testing::TestWithParam<int> {};

TEST_P(SpgemmThreads, ParallelMatchesSequential) {
    std::mt19937_64 rng(31);
    dsg::par::ThreadPool pool(GetParam());
    SpgemmOptions opts;
    opts.pool = &pool;
    for (int trial = 0; trial < 5; ++trial) {
        auto ta = random_triples(rng, 64, 48, 500);
        auto tb = random_triples(rng, 48, 64, 500);
        auto a = Dcsr<double>::from_row_grouped(64, 48, ta);
        auto b = Csr<double>::from_triples(48, 64, tb);
        auto seq = spgemm<PlusTimes<double>>(64, 64, as_left(a), as_right(b));
        auto par =
            spgemm<PlusTimes<double>>(64, 64, as_left(a), as_right(b), opts);
        EXPECT_EQ(as_map(par), as_map(seq));

        // A hypersparse left operand over a DHB right operand, where most
        // rows skip the accumulator: the chunks concatenate to exactly the
        // sequential output, entry order included.
        auto h = Dcsr<double>::from_row_grouped(
            64, 48, hypersparse_triples(rng, 64, 48));
        DynamicMatrix<double> b_dyn(48, 64);
        for (const auto& t : tb) b_dyn.insert_or_assign(t.row, t.col, t.value);
        const auto hseq =
            spgemm<PlusTimes<double>>(64, 64, as_left(h), as_right(b_dyn));
        EXPECT_EQ(spgemm<PlusTimes<double>>(64, 64, as_left(h),
                                            as_right(b_dyn), opts)
                      .to_triples(),
                  hseq.to_triples());
        EXPECT_EQ(as_map(hseq), as_map(spgemm<PlusTimes<double>>(
                                    64, 64, as_left(h), as_right(b))));

        // Masked, over a CSR left operand (slot = row): mask rows are the
        // rows i with i % 5 < 3, so the pool's chunks start both on a mask
        // row and between mask rows. The chunks concatenate to exactly the
        // sequential output, which is the reference under the mask.
        const auto a_csr = Csr<double>::from_triples(64, 48, ta);
        const auto full = dense_reference<PlusTimes<double>>(ta, tb);
        std::set<std::pair<index_t, index_t>> at;
        std::map<std::pair<index_t, index_t>, double> expect;
        for (const auto& [coord, v] : full) {
            if (coord.first % 5 >= 3 || rng() % 2 == 0) continue;
            at.insert(coord);
            expect[coord] = v;
        }
        const auto mask = mask_of(64, 64, at);
        SpgemmOptions mseq;
        mseq.mask = &mask;
        SpgemmOptions mpar = mseq;
        mpar.pool = &pool;
        const auto mres = spgemm<PlusTimes<double>>(
            64, 64, as_left(a_csr), as_right(b_dyn), mseq);
        EXPECT_EQ(as_map(mres), expect);
        EXPECT_EQ(spgemm<PlusTimes<double>>(64, 64, as_left(a_csr),
                                            as_right(b_dyn), mpar)
                      .to_triples(),
                  mres.to_triples());
    }
}

INSTANTIATE_TEST_SUITE_P(Threads, SpgemmThreads, ::testing::Values(2, 3, 8));

TEST(LocalSpgemm, OneEntryLeftRowEmitsTheRightRowInOrder) {
    // Row 2 of b outgrows the DHB index threshold, and an erase swaps its
    // last entry forward, so row(2) is in neither column nor insertion
    // order. Left row 1 is the one entry (1, 2) = 3; row 0's one entry
    // meets an empty row of b and yields no output row; row 3 holds two.
    DynamicMatrix<double> b(5, 20);
    for (const index_t j : {7, 3, 15, 0, 11, 19, 4, 9, 1, 13, 6, 17})
        b.insert_or_assign(2, j, 1.0 + static_cast<double>(j));
    b.erase(2, 3);
    b.insert_or_assign(4, 5, 2.0);
    const auto a = Dcsr<double>::from_row_grouped(
        4, 5,
        std::vector<Triple<double>>{
            {0, 3, 1.0}, {1, 2, 3.0}, {3, 2, 1.0}, {3, 4, 1.0}});
    const auto row = b.row(2);
    SpgemmOptions opts;
    opts.inner_offset = 60;  // local k = 2 is global k = 62

    // The first output row must be row 1: b's row 2 in row(2) order, each
    // entry mapped by want(b value), the columns filtered by `keep`.
    auto expect_row = [&](const auto& c, auto want, auto keep) {
        ASSERT_GE(c.row_count(), 1u);
        ASSERT_EQ(c.row_id(0), 1);
        const auto cols = c.row_cols(0);
        const auto vals = c.row_values(0);
        std::size_t x = 0;
        for (const auto& e : row) {
            if (!keep(e.col)) continue;
            ASSERT_LT(x, cols.size());
            EXPECT_EQ(cols[x], e.col);
            EXPECT_EQ(vals[x], want(e.value));
            ++x;
        }
        EXPECT_EQ(x, cols.size());
    };
    const auto all = [](index_t) { return true; };
    expect_row(spgemm<PlusTimes<double>>(4, 20, as_left(a), as_right(b), opts),
               [](double v) { return 3.0 * v; }, all);
    expect_row(spgemm_pattern(4, 20, as_left(a), as_right(b), opts),
               [](double) { return bloom_bit(62); }, all);
    const auto vb = spgemm_with_bloom<PlusTimes<double>>(4, 20, as_left(a),
                                                         as_right(b), opts);
    auto [values, bits] = split_value_bits(vb);
    expect_row(values, [](double v) { return 3.0 * v; }, all);
    expect_row(bits, [](double) { return bloom_bit(62); }, all);

    // Under a mask only the masked entries of the row come out.
    const std::set<std::pair<index_t, index_t>> at{
        {1, 0}, {1, 9}, {1, 13}, {1, 19}, {3, 5}};
    const auto mask = mask_of(4, 20, at);
    opts.mask = &mask;
    const auto masked =
        spgemm<PlusTimes<double>>(4, 20, as_left(a), as_right(b), opts);
    expect_row(masked, [](double v) { return 3.0 * v; },
               [&](index_t j) { return at.count({1, j}) != 0; });
    EXPECT_EQ(masked.nnz(), 5u);  // four of row 1, (3, 5) of row 3
}

TEST(LocalSpgemm, OneEntryLeftRowOverRepeatedColumnsCombines) {
    // An update slab keeps duplicate coordinates, so a DCSR or CSR row may
    // repeat a column: the one-entry row still yields one combined entry.
    const std::vector<Triple<double>> tb{{1, 2, 1.0}, {1, 0, 5.0}, {1, 2, 4.0}};
    const auto b_dcsr = Dcsr<double>::from_row_grouped(3, 4, tb);
    const auto b_csr = Csr<double>::from_triples(3, 4, tb);
    const auto a = Dcsr<double>::from_row_grouped(
        2, 3, std::vector<Triple<double>>{{0, 1, 2.0}});
    const std::map<std::pair<index_t, index_t>, double> expect{{{0, 0}, 10.0},
                                                               {{0, 2}, 10.0}};
    const auto via_dcsr =
        spgemm<PlusTimes<double>>(2, 4, as_left(a), as_right(b_dcsr));
    const auto via_csr =
        spgemm<PlusTimes<double>>(2, 4, as_left(a), as_right(b_csr));
    EXPECT_EQ(via_dcsr.nnz(), 2u);
    EXPECT_EQ(via_csr.nnz(), 2u);
    EXPECT_EQ(as_map(via_dcsr), expect);
    EXPECT_EQ(as_map(via_csr), expect);
    const auto bits = spgemm_pattern(2, 4, as_left(a), as_right(b_dcsr));
    EXPECT_EQ(bits.nnz(), 2u);
}

TEST(LocalSpgemm, EmptyOperands) {
    Dcsr<double> a(10, 10);
    Csr<double> b(10, 10);
    auto c = spgemm<PlusTimes<double>>(10, 10, as_left(a), as_right(b));
    EXPECT_EQ(c.nnz(), 0u);
}

}  // namespace
