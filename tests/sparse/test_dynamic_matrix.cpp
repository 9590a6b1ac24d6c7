#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <random>

#include "par/buffer.hpp"
#include "sparse/dynamic_matrix.hpp"

namespace {

using dsg::par::TruncatedBufferError;
using dsg::sparse::Dcsr;
using dsg::sparse::DynamicMatrix;
using dsg::sparse::index_t;

TEST(DynamicMatrix, InsertFindBasics) {
    DynamicMatrix<double> m(4, 4);
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_TRUE(m.insert_or_assign(1, 2, 5.0));
    EXPECT_FALSE(m.insert_or_assign(1, 2, 6.0));  // overwrite, not new
    EXPECT_EQ(m.nnz(), 1u);
    ASSERT_NE(m.find(1, 2), nullptr);
    EXPECT_EQ(*m.find(1, 2), 6.0);
    EXPECT_EQ(m.find(2, 1), nullptr);
}

TEST(DynamicMatrix, StructuralVsNumericalZero) {
    DynamicMatrix<double> m(2, 2);
    m.insert_or_assign(0, 0, 0.0);  // numerically zero, structurally present
    EXPECT_TRUE(m.contains(0, 0));
    EXPECT_EQ(m.nnz(), 1u);
}

TEST(DynamicMatrix, InsertOrAddCombines) {
    DynamicMatrix<double> m(2, 2);
    auto plus = [](double a, double b) { return a + b; };
    EXPECT_TRUE(m.insert_or_add(0, 1, 2.0, plus));
    EXPECT_FALSE(m.insert_or_add(0, 1, 3.0, plus));
    EXPECT_EQ(*m.find(0, 1), 5.0);
    auto min = [](double a, double b) { return std::min(a, b); };
    m.insert_or_add(0, 1, 1.0, min);
    EXPECT_EQ(*m.find(0, 1), 1.0);
}

TEST(DynamicMatrix, EraseSwapsKeepRowConsistent) {
    DynamicMatrix<int> m(1, 100);
    for (index_t j = 0; j < 20; ++j) m.insert_or_assign(0, j, static_cast<int>(j));
    EXPECT_TRUE(m.erase(0, 0));
    EXPECT_FALSE(m.erase(0, 0));
    EXPECT_EQ(m.nnz(), 19u);
    for (index_t j = 1; j < 20; ++j) {
        ASSERT_NE(m.find(0, j), nullptr) << j;
        EXPECT_EQ(*m.find(0, j), static_cast<int>(j));
    }
}

// add_or_erase on a row of `width` entries (col j holds j + 1): a sum to
// zero removes the entry, and every other entry stays findable with its
// value, including the one the swap-remove moved into the hole.
void expect_cancel_removes_entry(index_t width) {
    auto plus = [](double a, double b) { return a + b; };
    DynamicMatrix<double> m(2, 64);
    for (index_t j = 0; j < width; ++j)
        m.insert_or_assign(1, j, static_cast<double>(j + 1));
    m.add_or_erase(1, 2, 1.0, plus, 0.0);  // 3 + 1: kept
    EXPECT_EQ(*m.find(1, 2), 4.0);
    m.add_or_erase(1, 2, -4.0, plus, 0.0);  // cancels: removed
    m.add_or_erase(1, 0, -1.0, plus, 0.0);
    EXPECT_EQ(m.nnz(), static_cast<std::size_t>(width - 2));
    EXPECT_EQ(m.row_size(1), static_cast<std::size_t>(width - 2));
    EXPECT_FALSE(m.contains(1, 2));
    EXPECT_FALSE(m.contains(1, 0));
    for (index_t j = 0; j < width; ++j) {
        if (j == 0 || j == 2) continue;
        const double* v = m.find(1, j);
        ASSERT_NE(v, nullptr) << j;
        EXPECT_EQ(*v, static_cast<double>(j + 1)) << j;
    }
    for (const auto& e : m.row(1)) EXPECT_NE(e.value, 0.0) << e.col;
}

TEST(DynamicMatrix, AddOrEraseCancelsOnShortRow) {
    expect_cancel_removes_entry(5);
}

TEST(DynamicMatrix, AddOrEraseCancelsOnIndexedRow) {
    expect_cancel_removes_entry(DynamicMatrix<double>::kIndexThreshold + 12);
}

TEST(DynamicMatrix, AddOrEraseNeverStoresZero) {
    auto plus = [](double a, double b) { return a + b; };
    DynamicMatrix<double> m(2, 2);
    m.add_or_erase(0, 1, 0.0, plus, 0.0);  // zero at an absent coordinate
    m.add_or_erase(1, 0, -0.0, plus, 0.0);  // -0.0 == 0.0
    EXPECT_EQ(m.nnz(), 0u);
    m.add_or_erase(0, 1, 2.5, plus, 0.0);
    EXPECT_EQ(*m.find(0, 1), 2.5);
    m.add_or_erase(0, 1, -2.5, plus, -0.0);  // sums to +0.0, equal to -0.0
    EXPECT_EQ(m.nnz(), 0u);
    // Under (min,+) the zero is +inf: adding it creates nothing.
    const double inf = std::numeric_limits<double>::infinity();
    auto min = [](double a, double b) { return std::min(a, b); };
    m.add_or_erase(1, 1, inf, min, inf);
    EXPECT_EQ(m.nnz(), 0u);
    m.add_or_erase(1, 1, 3.0, min, inf);
    m.add_or_erase(1, 1, inf, min, inf);
    EXPECT_EQ(*m.find(1, 1), 3.0);
}

// A checkpoint tile that holds one coordinate twice is corrupt: a repeated
// entry would survive erase() as a ghost that for_each still yields.
void expect_repeated_entry_rejected(index_t width) {
    Dcsr<double> tile(2, 64);
    tile.begin_row(1);
    for (index_t j = 0; j < width; ++j) tile.push_entry(j, 1.0);
    tile.push_entry(3, 2.0);
    const dsg::par::Buffer wire = tile.serialize();
    dsg::par::BufferReader r(wire);
    EXPECT_THROW((void)DynamicMatrix<double>::deserialize(r),
                 TruncatedBufferError);
}

TEST(DynamicMatrix, DeserializeRejectsRepeatedEntryInShortRow) {
    expect_repeated_entry_rejected(4);
}

TEST(DynamicMatrix, DeserializeRejectsRepeatedEntryInIndexedRow) {
    expect_repeated_entry_rejected(DynamicMatrix<double>::kIndexThreshold + 4);
}

TEST(DynamicMatrix, LongRowsBuildHashIndex) {
    // Cross the kIndexThreshold boundary and verify lookups stay correct.
    DynamicMatrix<int> m(1, 10'000);
    for (index_t j = 0; j < 1'000; ++j) m.insert_or_assign(0, j * 7, 1);
    EXPECT_EQ(m.row_size(0), 1'000u);
    for (index_t j = 0; j < 1'000; ++j) {
        EXPECT_TRUE(m.contains(0, j * 7));
        EXPECT_FALSE(m.contains(0, j * 7 + 1));
    }
}

TEST(DynamicMatrix, ToDcsrPreservesEntries) {
    DynamicMatrix<double> m(5, 5);
    m.insert_or_assign(4, 0, 1.0);
    m.insert_or_assign(0, 4, 2.0);
    m.insert_or_assign(2, 2, 3.0);
    auto d = m.to_dcsr();
    EXPECT_EQ(d.row_count(), 3u);
    EXPECT_EQ(d.row_id(0), 0);
    EXPECT_EQ(d.row_id(2), 4);
    EXPECT_EQ(d.nnz(), 3u);
}

TEST(DynamicMatrix, ClearResets) {
    DynamicMatrix<int> m(3, 3);
    m.insert_or_assign(1, 1, 1);
    m.clear();
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_FALSE(m.contains(1, 1));
    m.insert_or_assign(1, 1, 2);
    EXPECT_EQ(*m.find(1, 1), 2);
}

class DynamicMatrixRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DynamicMatrixRandom, MatchesMapModelUnderMixedWorkload) {
    std::mt19937_64 rng(GetParam());
    const index_t rows = 40;
    const index_t cols = 60;
    DynamicMatrix<int> m(rows, cols);
    std::map<std::pair<index_t, index_t>, int> ref;
    for (int step = 0; step < 30'000; ++step) {
        const index_t i = static_cast<index_t>(rng() % rows);
        const index_t j = static_cast<index_t>(rng() % cols);
        switch (rng() % 4) {
            case 0: {
                m.insert_or_assign(i, j, step);
                ref[{i, j}] = step;
                break;
            }
            case 1: {
                auto plus = [](int a, int b) { return a + b; };
                m.insert_or_add(i, j, 1, plus);
                auto [it, fresh] = ref.try_emplace({i, j}, 1);
                if (!fresh) it->second += 1;
                break;
            }
            case 2: {
                EXPECT_EQ(m.erase(i, j), ref.erase({i, j}) > 0);
                break;
            }
            default: {
                const auto* p = m.find(i, j);
                auto it = ref.find({i, j});
                if (it == ref.end()) {
                    EXPECT_EQ(p, nullptr);
                } else {
                    ASSERT_NE(p, nullptr);
                    EXPECT_EQ(*p, it->second);
                }
            }
        }
    }
    EXPECT_EQ(m.nnz(), ref.size());
    // Full scan agrees as well.
    std::map<std::pair<index_t, index_t>, int> scanned;
    m.for_each([&](index_t i, index_t j, int v) { scanned[{i, j}] = v; });
    EXPECT_EQ(scanned, ref);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicMatrixRandom,
                         ::testing::Values(1u, 2u, 3u, 99u));

TEST(DynamicMatrix, MemoryBytesGrowsWithContent) {
    DynamicMatrix<double> m(100, 100);
    const auto before = m.memory_bytes();
    for (index_t i = 0; i < 100; ++i)
        for (index_t j = 0; j < 20; ++j) m.insert_or_assign(i, j, 1.0);
    EXPECT_GT(m.memory_bytes(), before);
}

}  // namespace
