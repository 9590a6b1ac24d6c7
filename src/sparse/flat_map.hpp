// Open-addressing hash structures used across the library:
//  - FlatMap: index_t -> V; the per-row column index of DynamicMatrix (the
//    DHB design of Section IV), sparse-accumulator index, DCSR row lookup.
//  - PairSet: hash set over (row, col) pairs within a block, a FlatMap
//    keyed by row * ncols + col. No kernel uses it: masks are DCSR blocks
//    (sparse::SpgemmOptions::mask).
//
// Linear probing with tombstones; capacity is a power of two and grows when
// (size + tombstones) exceeds 3/4 of capacity. Keys must be non-negative
// (index_t guarantees this by construction; see docs/ARCHITECTURE.md).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sparse/types.hpp"

namespace dsg::sparse {

namespace detail {
/// splitmix64 finalizer; excellent avalanche for sequential keys.
inline std::uint64_t hash_u64(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}
}  // namespace detail

/// Hash map from non-negative index_t keys to V.
template <typename V>
class FlatMap {
    static constexpr index_t kEmpty = -1;
    static constexpr index_t kTombstone = -2;

public:
    FlatMap() = default;
    explicit FlatMap(std::size_t expected) { reserve(expected); }

    [[nodiscard]] std::size_t size() const { return size_; }
    [[nodiscard]] bool empty() const { return size_ == 0; }

    /// Removes all entries but keeps the allocated capacity (cheap reuse by
    /// the sparse accumulator).
    void clear() {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        size_ = 0;
        tombstones_ = 0;
    }

    void reserve(std::size_t expected) {
        std::size_t cap = 16;
        while (cap * 3 < expected * 4 + 4) cap <<= 1;
        if (cap > slots_.size()) rehash(cap);
    }

    /// Returns the value slot for key, inserting default_value if absent.
    V& get_or_insert(index_t key, const V& default_value) {
        assert(key >= 0);
        maybe_grow();
        const std::size_t mask = slots_.size() - 1;
        std::size_t pos = detail::hash_u64(static_cast<std::uint64_t>(key)) & mask;
        std::size_t first_tomb = slots_.size();
        for (;;) {
            auto& s = slots_[pos];
            if (s.key == key) return s.value;
            if (s.key == kEmpty) {
                if (first_tomb != slots_.size()) {
                    auto& t = slots_[first_tomb];
                    t.key = key;
                    t.value = default_value;
                    --tombstones_;
                    ++size_;
                    return t.value;
                }
                s.key = key;
                s.value = default_value;
                ++size_;
                return s.value;
            }
            if (s.key == kTombstone && first_tomb == slots_.size())
                first_tomb = pos;
            pos = (pos + 1) & mask;
        }
    }

    /// Pointer to the value for key, or nullptr when absent.
    [[nodiscard]] V* find(index_t key) {
        if (slots_.empty()) return nullptr;
        const std::size_t mask = slots_.size() - 1;
        std::size_t pos = detail::hash_u64(static_cast<std::uint64_t>(key)) & mask;
        for (;;) {
            auto& s = slots_[pos];
            if (s.key == key) return &s.value;
            if (s.key == kEmpty) return nullptr;
            pos = (pos + 1) & mask;
        }
    }
    [[nodiscard]] const V* find(index_t key) const {
        return const_cast<FlatMap*>(this)->find(key);
    }
    [[nodiscard]] bool contains(index_t key) const {
        return find(key) != nullptr;
    }

    /// Removes key; returns whether it was present.
    bool erase(index_t key) {
        if (slots_.empty()) return false;
        const std::size_t mask = slots_.size() - 1;
        std::size_t pos = detail::hash_u64(static_cast<std::uint64_t>(key)) & mask;
        for (;;) {
            auto& s = slots_[pos];
            if (s.key == key) {
                s.key = kTombstone;
                --size_;
                ++tombstones_;
                return true;
            }
            if (s.key == kEmpty) return false;
            pos = (pos + 1) & mask;
        }
    }

    /// Invokes fn(key, value&) for every live entry (unspecified order).
    template <typename Fn>
    void for_each(Fn&& fn) {
        for (auto& s : slots_)
            if (s.key >= 0) fn(s.key, s.value);
    }
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (const auto& s : slots_)
            if (s.key >= 0) fn(s.key, s.value);
    }

    /// Bytes of heap memory held (for the memory accounting in benchmarks).
    [[nodiscard]] std::size_t memory_bytes() const {
        return slots_.capacity() * sizeof(Slot);
    }

private:
    struct Slot {
        index_t key = kEmpty;
        V value{};
    };

    void maybe_grow() {
        if (slots_.empty()) {
            rehash(16);
        } else if ((size_ + tombstones_ + 1) * 4 > slots_.size() * 3) {
            rehash(size_ * 4 < slots_.size() * 2 ? slots_.size()
                                                 : slots_.size() * 2);
        }
    }

    void rehash(std::size_t new_cap) {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(new_cap, Slot{});
        size_ = 0;
        tombstones_ = 0;
        const std::size_t mask = new_cap - 1;
        for (auto& s : old) {
            if (s.key < 0) continue;
            std::size_t pos =
                detail::hash_u64(static_cast<std::uint64_t>(s.key)) & mask;
            while (slots_[pos].key != kEmpty) pos = (pos + 1) & mask;
            slots_[pos] = s;
            ++size_;
        }
    }

    std::vector<Slot> slots_;
    std::size_t size_ = 0;
    std::size_t tombstones_ = 0;
};

/// Hash set of (row, col) index pairs within a local block.
class PairSet {
public:
    PairSet() = default;
    /// ncols must exceed every col inserted; keys are packed row*ncols+col.
    explicit PairSet(index_t ncols, std::size_t expected = 0)
        : ncols_(ncols), set_(expected) {}

    void insert(index_t row, index_t col) { set_.get_or_insert(key(row, col), 0); }
    [[nodiscard]] bool contains(index_t row, index_t col) const {
        return set_.contains(key(row, col));
    }
    [[nodiscard]] std::size_t size() const { return set_.size(); }
    [[nodiscard]] bool empty() const { return set_.empty(); }

private:
    [[nodiscard]] index_t key(index_t row, index_t col) const {
        assert(col < ncols_);
        return row * ncols_ + col;
    }

    index_t ncols_ = 1;
    FlatMap<std::uint8_t> set_;
};

}  // namespace dsg::sparse
