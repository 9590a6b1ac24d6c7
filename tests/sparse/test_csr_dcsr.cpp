#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>

#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/dcsr_ops.hpp"

namespace {

using dsg::sparse::Csr;
using dsg::sparse::Dcsr;
using dsg::sparse::DcsrRowLookup;
using dsg::sparse::index_t;
using dsg::sparse::Triple;

template <typename T>
std::map<std::pair<index_t, index_t>, T> as_map(
    const std::vector<Triple<T>>& ts) {
    std::map<std::pair<index_t, index_t>, T> m;
    for (const auto& t : ts) m[{t.row, t.col}] = t.value;
    return m;
}

TEST(Csr, FromTriplesRoundTrip) {
    std::vector<Triple<double>> ts{
        {0, 1, 1.5}, {2, 0, 2.5}, {0, 3, 3.5}, {2, 2, 4.5},
    };
    auto m = Csr<double>::from_triples(3, 4, ts);
    EXPECT_EQ(m.nrows(), 3);
    EXPECT_EQ(m.ncols(), 4);
    EXPECT_EQ(m.nnz(), 4u);
    EXPECT_EQ(as_map(m.to_triples()), as_map(ts));
    EXPECT_EQ(m.row_cols(1).size(), 0u);
    EXPECT_EQ(m.row_cols(0).size(), 2u);
}

TEST(Csr, EmptyMatrix) {
    auto m = Csr<int>::from_triples(5, 5, {});
    EXPECT_EQ(m.nnz(), 0u);
    for (index_t i = 0; i < 5; ++i) EXPECT_TRUE(m.row_cols(i).empty());
}

TEST(Csr, TransposeIsInvolution) {
    std::mt19937_64 rng(5);
    std::vector<Triple<double>> ts;
    for (int i = 0; i < 300; ++i)
        ts.push_back({static_cast<index_t>(rng() % 20),
                      static_cast<index_t>(rng() % 31),
                      static_cast<double>(rng() % 97)});
    dsg::sparse::combine_duplicates<dsg::sparse::PlusTimes<double>>(ts);
    auto m = Csr<double>::from_triples(20, 31, ts);
    auto t = m.transpose();
    EXPECT_EQ(t.nrows(), 31);
    EXPECT_EQ(t.ncols(), 20);
    auto tt = t.transpose();
    EXPECT_EQ(as_map(tt.to_triples()), as_map(m.to_triples()));
}

TEST(Dcsr, FromRowGroupedSkipsEmptyRows) {
    std::vector<Triple<double>> ts{
        {1, 0, 1.0}, {1, 5, 2.0}, {7, 3, 3.0},
    };
    auto m = Dcsr<double>::from_row_grouped(10, 6, ts);
    EXPECT_EQ(m.row_count(), 2u);
    EXPECT_EQ(m.row_id(0), 1);
    EXPECT_EQ(m.row_id(1), 7);
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_EQ(as_map(m.to_triples()), as_map(ts));
}

TEST(Dcsr, BuilderInterfaceDropsEmptyRows) {
    Dcsr<int> m(4, 4);
    m.begin_row(0);
    m.push_entry(1, 10);
    m.end_row();
    m.begin_row(2);
    m.end_row();  // nothing pushed: row vanishes
    m.begin_row(3);
    m.push_entry(0, 30);
    m.end_row();
    EXPECT_EQ(m.row_count(), 2u);
    EXPECT_EQ(m.row_id(1), 3);
    EXPECT_EQ(m.nnz(), 2u);
}

TEST(Dcsr, SerializeRoundTrip) {
    std::vector<Triple<double>> ts{
        {0, 0, -1.0}, {5, 2, 2.25}, {5, 4, 0.0}, {9, 9, 7.0},
    };
    auto m = Dcsr<double>::from_row_grouped(10, 10, ts);
    auto buf = m.serialize();
    auto back = Dcsr<double>::deserialize(buf);
    EXPECT_EQ(back.nrows(), 10);
    EXPECT_EQ(back.ncols(), 10);
    EXPECT_EQ(as_map(back.to_triples()), as_map(ts));
}

TEST(Dcsr, SerializeEmpty) {
    Dcsr<double> m(100, 100);
    auto back = Dcsr<double>::deserialize(m.serialize());
    EXPECT_EQ(back.nnz(), 0u);
    EXPECT_EQ(back.nrows(), 100);
}

TEST(Dcsr, WireSizeIsIndependentOfDimension) {
    std::vector<Triple<double>> ts{{5, 5, 1.0}};
    auto small = Dcsr<double>::from_row_grouped(10, 10, ts);
    auto huge = Dcsr<double>::from_row_grouped(1'000'000, 1'000'000, ts);
    EXPECT_EQ(small.wire_size(), huge.wire_size());
    EXPECT_EQ(small.serialize().size(), small.wire_size());
}

TEST(Dcsr, AppendRowsConcatenates) {
    auto a = Dcsr<int>::from_row_grouped(10, 3, std::vector<Triple<int>>{
                                                    {0, 0, 1}, {2, 1, 2}});
    auto b = Dcsr<int>::from_row_grouped(10, 3, std::vector<Triple<int>>{
                                                    {5, 2, 3}, {9, 0, 4}});
    a.append_rows(b);
    EXPECT_EQ(a.row_count(), 4u);
    EXPECT_EQ(a.nnz(), 4u);
    EXPECT_EQ(a.row_id(2), 5);
    auto ts = a.to_triples();
    EXPECT_EQ(ts.back(), (Triple<int>{9, 0, 4}));
}

TEST(DcsrRowLookup, FindsOnlyNonEmptyRows) {
    std::vector<Triple<double>> ts{{3, 0, 1.0}, {8, 1, 2.0}};
    auto m = Dcsr<double>::from_row_grouped(20, 2, ts);
    DcsrRowLookup<double> lut(m);
    EXPECT_EQ(lut.position(3), 0u);
    EXPECT_EQ(lut.position(8), 1u);
    EXPECT_EQ(lut.position(0), DcsrRowLookup<double>::npos);
    EXPECT_EQ(lut.position(19), DcsrRowLookup<double>::npos);
}

TEST(DcsrOps, AddDisjointRows) {
    auto a = Dcsr<double>::from_row_grouped(
        6, 6, std::vector<Triple<double>>{{0, 0, 1.0}});
    auto b = Dcsr<double>::from_row_grouped(
        6, 6, std::vector<Triple<double>>{{3, 3, 2.0}});
    auto c = dsg::sparse::dcsr_add(a, b, [](double x, double y) { return x + y; });
    EXPECT_EQ(c.nnz(), 2u);
    EXPECT_EQ(as_map(c.to_triples()),
              (as_map<double>({{0, 0, 1.0}, {3, 3, 2.0}})));
}

TEST(DcsrOps, AddSharedRowCombinesOverlap) {
    auto a = Dcsr<double>::from_row_grouped(
        4, 4, std::vector<Triple<double>>{{1, 0, 1.0}, {1, 2, 5.0}});
    auto b = Dcsr<double>::from_row_grouped(
        4, 4, std::vector<Triple<double>>{{1, 2, 7.0}, {1, 3, 9.0}});
    auto c = dsg::sparse::dcsr_add(a, b, [](double x, double y) { return x + y; });
    auto m = as_map(c.to_triples());
    EXPECT_EQ(m.size(), 3u);
    EXPECT_EQ((m[{1, 0}]), 1.0);
    EXPECT_EQ((m[{1, 2}]), 12.0);
    EXPECT_EQ((m[{1, 3}]), 9.0);
}

TEST(DcsrOps, AddRandomizedMatchesMapModel) {
    std::mt19937_64 rng(11);
    auto gen = [&](int n) {
        std::vector<Triple<double>> ts;
        for (int i = 0; i < n; ++i)
            ts.push_back({static_cast<index_t>(rng() % 30),
                          static_cast<index_t>(rng() % 30),
                          static_cast<double>(1 + rng() % 9)});
        dsg::sparse::combine_duplicates<dsg::sparse::PlusTimes<double>>(ts);
        return ts;
    };
    for (int trial = 0; trial < 20; ++trial) {
        auto ta = gen(static_cast<int>(rng() % 60));
        auto tb = gen(static_cast<int>(rng() % 60));
        auto a = Dcsr<double>::from_row_grouped(30, 30, ta);
        auto b = Dcsr<double>::from_row_grouped(30, 30, tb);
        auto c = dsg::sparse::dcsr_add(
            a, b, [](double x, double y) { return x + y; });
        auto expect = as_map(ta);
        for (const auto& t : tb) expect[{t.row, t.col}] += t.value;
        EXPECT_EQ(as_map(c.to_triples()), expect) << "trial " << trial;
    }
}

TEST(DcsrOps, TransposeRoundTrip) {
    std::mt19937_64 rng(13);
    std::vector<Triple<double>> ts;
    for (int i = 0; i < 100; ++i)
        ts.push_back({static_cast<index_t>(rng() % 15),
                      static_cast<index_t>(rng() % 25),
                      static_cast<double>(rng() % 50)});
    dsg::sparse::combine_duplicates<dsg::sparse::PlusTimes<double>>(ts);
    auto m = Dcsr<double>::from_row_grouped(15, 25, ts);
    auto t = dsg::sparse::dcsr_transpose(m);
    EXPECT_EQ(t.nrows(), 25);
    EXPECT_EQ(t.ncols(), 15);
    auto tt = dsg::sparse::dcsr_transpose(t);
    EXPECT_EQ(as_map(tt.to_triples()), as_map(m.to_triples()));
}

TEST(DcsrOps, PatternContainsExactlyTheCoordinates) {
    // A DCSR mask admits exactly its stored coordinates, whatever their
    // words: a stored zero still admits its coordinate. Here A is the
    // identity and B all ones, so A B reaches every coordinate.
    std::vector<Triple<std::uint64_t>> ts{{0, 1, 5}, {2, 2, 0}};
    const auto mask = Dcsr<std::uint64_t>::from_row_grouped(3, 3, ts);
    std::vector<Triple<double>> id, ones;
    for (index_t i = 0; i < 3; ++i) {
        id.push_back({i, i, 1.0});
        for (index_t j = 0; j < 3; ++j) ones.push_back({i, j, 1.0});
    }
    const auto a = Dcsr<double>::from_row_grouped(3, 3, id);
    const auto b = Csr<double>::from_triples(3, 3, ones);
    dsg::sparse::SpgemmOptions opts;
    opts.mask = &mask;
    const auto c = dsg::sparse::spgemm<dsg::sparse::PlusTimes<double>>(
        3, 3, dsg::sparse::as_left(a), dsg::sparse::as_right(b), opts);
    EXPECT_EQ(as_map(c.to_triples()),
              (as_map<double>({{0, 1, 1.0}, {2, 2, 1.0}})));
}

}  // namespace
