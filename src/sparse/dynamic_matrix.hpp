// DHB-style dynamic sparse matrix (Section IV; van der Grinten et al. [27]).
//
// Per-row adjacency arrays hold the non-zeros; rows beyond a small threshold
// additionally carry an open-addressing hash index mapping column -> slot, so
// point queries and updates run in O(1) expected time regardless of degree.
// Short rows skip the index entirely (a linear scan of <= 8 entries is faster
// and far smaller — the bulk of rows in power-law graphs stay in this mode).
//
// Deletion swaps the victim with the row's last entry, so adjacency arrays
// stay dense. Entry order within a row is therefore unspecified, which is
// fine: no algorithm in this library relies on column order (a deliberate
// library-wide invariant; see docs/ARCHITECTURE.md).
#pragma once

#include <atomic>
#include <cassert>
#include <span>
#include <vector>

#include "sparse/dcsr.hpp"
#include "sparse/flat_map.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

/// Copyable size counter with relaxed atomic increments. The parallel update
/// paths (core::update_ops) bucket rows across threads so all per-row state
/// is thread-disjoint — but the matrix-wide nnz counter is shared, and plain
/// increments would race. Only the final sum matters, and the thread pool's
/// join provides the happens-before for readers, so relaxed ordering is
/// exactly enough.
class RelaxedCounter {
public:
    RelaxedCounter(std::size_t v = 0) : v_(v) {}
    RelaxedCounter(const RelaxedCounter& other) : v_(other.get()) {}
    RelaxedCounter& operator=(const RelaxedCounter& other) {
        v_.store(other.get(), std::memory_order_relaxed);
        return *this;
    }
    RelaxedCounter& operator=(std::size_t v) {
        v_.store(v, std::memory_order_relaxed);
        return *this;
    }
    RelaxedCounter& operator++() {
        v_.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }
    RelaxedCounter& operator--() {
        v_.fetch_sub(1, std::memory_order_relaxed);
        return *this;
    }
    [[nodiscard]] std::size_t get() const {
        return v_.load(std::memory_order_relaxed);
    }
    operator std::size_t() const { return get(); }

private:
    std::atomic<std::size_t> v_;
};

template <typename T>
class DynamicMatrix {
public:
    struct Entry {
        index_t col;
        T value;
    };

    /// Rows at most this long are searched linearly and carry no hash index.
    static constexpr std::size_t kIndexThreshold = 8;

    DynamicMatrix() = default;
    DynamicMatrix(index_t nrows, index_t ncols)
        : nrows_(nrows), ncols_(ncols),
          rows_(static_cast<std::size_t>(nrows)) {}

    [[nodiscard]] index_t nrows() const { return nrows_; }
    [[nodiscard]] index_t ncols() const { return ncols_; }
    [[nodiscard]] std::size_t nnz() const { return nnz_; }

    /// Pointer to the stored value at (i, j), or nullptr if structurally zero.
    [[nodiscard]] T* find(index_t i, index_t j) {
        auto& row = rows_[static_cast<std::size_t>(i)];
        const std::size_t pos = locate(row, j);
        return pos == npos ? nullptr : &row.entries[pos].value;
    }
    [[nodiscard]] const T* find(index_t i, index_t j) const {
        return const_cast<DynamicMatrix*>(this)->find(i, j);
    }
    [[nodiscard]] bool contains(index_t i, index_t j) const {
        return find(i, j) != nullptr;
    }

    /// Inserts or overwrites (i, j); returns true if the entry is new.
    bool insert_or_assign(index_t i, index_t j, const T& value) {
        return upsert(i, j, value,
                      [&](T& existing) { existing = value; });
    }

    /// Inserts (i, j) or combines with the existing value via add(old, new) —
    /// the semiring-addition update path of Section IV-A.
    template <typename AddFn>
    bool insert_or_add(index_t i, index_t j, const T& value, AddFn&& add) {
        return upsert(i, j, value, [&](T& existing) {
            existing = add(existing, value);
        });
    }

    /// Adds value into (i, j) via add(old, value) and removes the entry when
    /// the sum equals `zero`; a `zero` value never creates an entry. Given
    /// the semiring's zero(), this keeps structural zeros out of the matrix
    /// at O(1) expected per cancellation (Algorithm 1's absorb step).
    template <typename AddFn>
    void add_or_erase(index_t i, index_t j, const T& value, AddFn&& add,
                      const T& zero) {
        assert(i >= 0 && i < nrows_ && j >= 0 && j < ncols_);
        auto& row = rows_[static_cast<std::size_t>(i)];
        const std::size_t pos = locate(row, j);
        if (pos == npos) {
            if (!(value == zero)) append_entry(i, j, value);
            return;
        }
        T& slot = row.entries[pos].value;
        slot = add(slot, value);
        if (slot == zero) remove_at(row, pos);
    }

    /// Removes (i, j); returns whether it existed. O(1) expected.
    bool erase(index_t i, index_t j) {
        assert(i >= 0 && i < nrows_ && j >= 0 && j < ncols_);
        auto& row = rows_[static_cast<std::size_t>(i)];
        const std::size_t pos = locate(row, j);
        if (pos == npos) return false;
        remove_at(row, pos);
        return true;
    }

    /// The entries of row i (unspecified order).
    [[nodiscard]] std::span<const Entry> row(index_t i) const {
        return rows_[static_cast<std::size_t>(i)].entries;
    }
    [[nodiscard]] std::size_t row_size(index_t i) const {
        return rows_[static_cast<std::size_t>(i)].entries.size();
    }

    /// Invokes fn(i, j, value) over all non-zeros, rows ascending.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (index_t i = 0; i < nrows_; ++i)
            for (const auto& e : row(i)) fn(i, e.col, e.value);
    }

    [[nodiscard]] std::vector<Triple<T>> to_triples() const {
        std::vector<Triple<T>> out;
        out.reserve(nnz_);
        for_each([&](index_t i, index_t j, const T& v) { out.push_back({i, j, v}); });
        return out;
    }

    /// Snapshot in DCSR layout (rows ascending); O(nnz).
    [[nodiscard]] Dcsr<T> to_dcsr() const {
        Dcsr<T> out(nrows_, ncols_);
        for (index_t i = 0; i < nrows_; ++i) {
            const auto r = row(i);
            if (r.empty()) continue;
            out.begin_row(i);
            for (const auto& e : r) out.push_entry(e.col, e.value);
        }
        return out;
    }

    void clear() {
        for (auto& row : rows_) {
            row.entries.clear();
            row.index.clear();
        }
        nnz_ = 0;
    }

    // -- wire format (checkpoint tiles; src/persist/) ------------------------

    /// Serializes this block as a DCSR tile (the library's one wire layout);
    /// round trips through deserialize() bit-identically: rows ascending and
    /// the within-row entry order both survive, so a restored matrix is
    /// indistinguishable from the original, including iteration order.
    void serialize(par::Buffer& buf) const
        requires std::is_trivially_copyable_v<T>
    {
        to_dcsr().serialize(buf);
    }

    static DynamicMatrix deserialize(par::BufferReader& r)
        requires std::is_trivially_copyable_v<T>
    {
        const auto tile = Dcsr<T>::deserialize(r);
        DynamicMatrix m(tile.nrows(), tile.ncols());
        tile.for_each([&](index_t i, index_t j, const T& v) {
            if (i < 0 || i >= m.nrows_ || j < 0 || j >= m.ncols_)
                throw par::TruncatedBufferError(
                    "dynamic-matrix tile entry out of bounds");
            if (m.contains(i, j))
                throw par::TruncatedBufferError(
                    "dynamic-matrix tile repeats an entry");
            m.append_entry(i, j, v);
        });
        return m;
    }

    /// Heap bytes held by adjacency arrays and hash indices.
    [[nodiscard]] std::size_t memory_bytes() const {
        std::size_t bytes = rows_.capacity() * sizeof(Row);
        for (const auto& row : rows_)
            bytes += row.entries.capacity() * sizeof(Entry) +
                     row.index.memory_bytes();
        return bytes;
    }

private:
    struct Row {
        std::vector<Entry> entries;
        FlatMap<std::uint32_t> index;  // col -> slot; live iff entries > threshold
    };

    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    std::size_t locate(const Row& row, index_t j) const {
        if (!row.index.empty()) {
            const auto* p = row.index.find(j);
            return p ? *p : npos;
        }
        for (std::size_t k = 0; k < row.entries.size(); ++k)
            if (row.entries[k].col == j) return k;
        return npos;
    }

    /// Swap-removes the entry at slot pos of row: the row's last entry moves
    /// into the hole and its index slot follows it.
    void remove_at(Row& row, std::size_t pos) {
        const index_t j = row.entries[pos].col;
        const std::size_t last = row.entries.size() - 1;
        if (pos != last) {
            row.entries[pos] = row.entries[last];
            if (auto* p = row.index.find(row.entries[pos].col))
                *p = static_cast<std::uint32_t>(pos);
        }
        row.entries.pop_back();
        row.index.erase(j);
        --nnz_;
    }

    /// Appends (i, j) to its row WITHOUT checking for a duplicate — callers
    /// have located (i, j) as absent first.
    void append_entry(index_t i, index_t j, const T& value) {
        auto& row = rows_[static_cast<std::size_t>(i)];
        row.entries.push_back({j, value});
        ++nnz_;
        if (!row.index.empty()) {
            row.index.get_or_insert(
                j, static_cast<std::uint32_t>(row.entries.size() - 1));
        } else if (row.entries.size() > kIndexThreshold) {
            row.index.reserve(row.entries.size() * 2);
            for (std::size_t k = 0; k < row.entries.size(); ++k)
                row.index.get_or_insert(row.entries[k].col,
                                        static_cast<std::uint32_t>(k));
        }
    }

    template <typename Update>
    bool upsert(index_t i, index_t j, const T& value, Update&& update) {
        assert(i >= 0 && i < nrows_ && j >= 0 && j < ncols_);
        auto& row = rows_[static_cast<std::size_t>(i)];
        const std::size_t pos = locate(row, j);
        if (pos != npos) {
            update(row.entries[pos].value);
            return false;
        }
        append_entry(i, j, value);
        return true;
    }

    index_t nrows_ = 0;
    index_t ncols_ = 0;
    std::vector<Row> rows_;
    RelaxedCounter nnz_;
};

}  // namespace dsg::sparse
