// Doubly-compressed sparse row storage for hypersparse matrices
// (Buluc & Gilbert [28]; Section IV of the paper).
//
// Only non-empty rows store a row pointer, so memory and — crucially —
// communication volume scale with nnz rather than with the dimension. All
// update matrices (A*, B*) and all blocks that cross rank boundaries travel
// in this layout. Like Csr, columns within a row are unsorted and the layout
// is stream-only; the transient RowLookup below provides O(1) row access for
// the one kernel that needs it (the right-hand side of A·B*, Section V-A).
// docs/ARCHITECTURE.md covers the stored-vs-travelling storage split.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "par/buffer.hpp"
#include "sparse/flat_map.hpp"
#include "sparse/types.hpp"

namespace dsg::sparse {

template <typename T>
class Dcsr {
public:
    Dcsr() = default;
    Dcsr(index_t nrows, index_t ncols) : nrows_(nrows), ncols_(ncols) {
        rowptr_.push_back(0);
    }

    /// Builds from triples grouped by row (all entries of a row contiguous,
    /// rows in ascending order) — the natural output order of counting sort.
    static Dcsr from_row_grouped(index_t nrows, index_t ncols,
                                 std::span<const Triple<T>> triples) {
        Dcsr m(nrows, ncols);
        m.colidx_.reserve(triples.size());
        m.values_.reserve(triples.size());
        for (const auto& t : triples) {
            assert(t.row >= 0 && t.row < nrows && t.col >= 0 && t.col < ncols);
            if (m.rows_.empty() || m.rows_.back() != t.row) {
                assert(m.rows_.empty() || m.rows_.back() < t.row);
                m.rows_.push_back(t.row);
                m.rowptr_.push_back(m.rowptr_.back());
            }
            m.colidx_.push_back(t.col);
            m.values_.push_back(t.value);
            ++m.rowptr_.back();
        }
        return m;
    }

    /// Starts a new row (id must exceed all existing row ids). Entries are
    /// then appended with push_entry. Used by kernels that emit rows in order.
    void begin_row(index_t row) {
        assert(rows_.empty() || rows_.back() < row);
        assert(row >= 0 && row < nrows_);
        rows_.push_back(row);
        rowptr_.push_back(rowptr_.back());
    }
    void push_entry(index_t col, const T& value) {
        assert(!rows_.empty());
        assert(col >= 0 && col < ncols_);
        colidx_.push_back(col);
        values_.push_back(value);
        ++rowptr_.back();
    }
    /// Drops the current row again if nothing was appended to it.
    void end_row() {
        if (rowptr_.back() == rowptr_[rowptr_.size() - 2]) {
            rows_.pop_back();
            rowptr_.pop_back();
        }
    }

    [[nodiscard]] index_t nrows() const { return nrows_; }
    [[nodiscard]] index_t ncols() const { return ncols_; }
    [[nodiscard]] std::size_t nnz() const { return colidx_.size(); }
    [[nodiscard]] bool empty() const { return colidx_.empty(); }
    [[nodiscard]] std::size_t row_count() const { return rows_.size(); }

    [[nodiscard]] index_t row_id(std::size_t r) const { return rows_[r]; }
    [[nodiscard]] std::span<const index_t> row_ids() const { return rows_; }
    [[nodiscard]] std::span<const index_t> row_cols(std::size_t r) const {
        return {colidx_.data() + rowptr_[r], rowptr_[r + 1] - rowptr_[r]};
    }
    [[nodiscard]] std::span<const T> row_values(std::size_t r) const {
        return {values_.data() + rowptr_[r], rowptr_[r + 1] - rowptr_[r]};
    }

    /// Streams fn(row, col, value) over every non-zero.
    template <typename Fn>
    void for_each(Fn&& fn) const {
        for (std::size_t r = 0; r < rows_.size(); ++r) {
            auto cols = row_cols(r);
            auto vals = row_values(r);
            for (std::size_t k = 0; k < cols.size(); ++k)
                fn(rows_[r], cols[k], vals[k]);
        }
    }

    [[nodiscard]] std::vector<Triple<T>> to_triples() const {
        std::vector<Triple<T>> out;
        out.reserve(nnz());
        for_each([&](index_t i, index_t j, const T& v) { out.push_back({i, j, v}); });
        return out;
    }

    /// Appends the rows of `other`, whose row ids must all exceed this
    /// matrix's last row id (chunked kernels concatenate in row order).
    void append_rows(const Dcsr& other) {
        if (other.rows_.empty()) return;
        assert(rows_.empty() || rows_.back() < other.rows_.front());
        const std::size_t base = colidx_.size();
        rows_.insert(rows_.end(), other.rows_.begin(), other.rows_.end());
        for (std::size_t r = 1; r < other.rowptr_.size(); ++r)
            rowptr_.push_back(other.rowptr_[r] + base);
        colidx_.insert(colidx_.end(), other.colidx_.begin(), other.colidx_.end());
        values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    }

    // -- wire format -----------------------------------------------------------

    /// Serializes into buf (for broadcast / reduction); requires POD T.
    void serialize(par::Buffer& buf) const
        requires std::is_trivially_copyable_v<T>
    {
        par::BufferWriter w(buf);
        w.write(nrows_);
        w.write(ncols_);
        w.write_vector(rows_);
        w.write_vector(rowptr_);
        w.write_vector(colidx_);
        w.write_vector(values_);
    }
    [[nodiscard]] par::Buffer serialize() const
        requires std::is_trivially_copyable_v<T>
    {
        par::Buffer buf;
        buf.reserve(wire_size());
        serialize(buf);
        return buf;
    }
    static Dcsr deserialize(par::BufferReader& r)
        requires std::is_trivially_copyable_v<T>
    {
        Dcsr m;
        m.nrows_ = r.read<index_t>();
        m.ncols_ = r.read<index_t>();
        m.rows_ = r.read_vector<index_t>();
        m.rowptr_ = r.read_vector<std::size_t>();
        m.colidx_ = r.read_vector<index_t>();
        m.values_ = r.read_vector<T>();
        // Validate the structural invariants before anything indexes through
        // rowptr_: buffers from the wire come from a peer rank, but the same
        // frames also come back from disk (src/persist/), where corruption
        // is a matter of time, not trust.
        const auto fail = [](const char* what) {
            throw par::TruncatedBufferError(std::string("corrupt DCSR: ") +
                                            what);
        };
        if (m.nrows_ < 0 || m.ncols_ < 0) fail("negative dimension");
        if (m.colidx_.size() != m.values_.size())
            fail("colidx/values size mismatch");
        if (m.rowptr_.size() != m.rows_.size() + 1) {
            // A default-constructed (never begun) matrix serializes with an
            // empty rows_ and rowptr_ == {0}; anything else must pair up.
            if (!(m.rows_.empty() && m.rowptr_.empty() && m.colidx_.empty()))
                fail("rowptr/rows size mismatch");
        }
        if (!m.rowptr_.empty()) {
            if (m.rowptr_.front() != 0) fail("rowptr does not start at 0");
            for (std::size_t k = 1; k < m.rowptr_.size(); ++k)
                if (m.rowptr_[k] < m.rowptr_[k - 1]) fail("rowptr not monotone");
            if (m.rowptr_.back() != m.colidx_.size())
                fail("rowptr/colidx size mismatch");
        }
        for (std::size_t k = 0; k < m.rows_.size(); ++k) {
            if (m.rows_[k] < 0 || m.rows_[k] >= m.nrows_)
                fail("row id out of range");
            if (k > 0 && m.rows_[k] <= m.rows_[k - 1])
                fail("row ids not ascending");
        }
        for (const index_t c : m.colidx_)
            if (c < 0 || c >= m.ncols_) fail("column id out of range");
        return m;
    }
    static Dcsr deserialize(const par::Buffer& buf)
        requires std::is_trivially_copyable_v<T>
    {
        par::BufferReader r(buf);
        return deserialize(r);
    }

    /// Bytes this matrix occupies on the wire. For hypersparse matrices this
    /// is O(nnz) — the whole point of double compression (vs O(nrows) for a
    /// CSR rowptr), measured by bench_ablation_dcsr.
    [[nodiscard]] std::size_t wire_size() const {
        return 2 * sizeof(index_t) + 4 * sizeof(std::uint64_t) +
               rows_.size() * sizeof(index_t) +
               rowptr_.size() * sizeof(std::size_t) +
               colidx_.size() * sizeof(index_t) + values_.size() * sizeof(T);
    }

private:
    index_t nrows_ = 0;
    index_t ncols_ = 0;
    std::vector<index_t> rows_;       // ids of non-empty rows, ascending
    std::vector<std::size_t> rowptr_; // size rows_.size() + 1
    std::vector<index_t> colidx_;
    std::vector<T> values_;
};

/// Transient hash index row-id -> compressed row position, giving a Dcsr O(1)
/// expected row access. Build cost O(row_count); used only where the paper's
/// algorithm multiplies with a hypersparse *right* operand (A·B*).
template <typename T>
class DcsrRowLookup {
public:
    explicit DcsrRowLookup(const Dcsr<T>& m) : m_(&m), index_(m.row_count()) {
        for (std::size_t r = 0; r < m.row_count(); ++r)
            index_.get_or_insert(m.row_id(r), r);
    }

    /// Compressed position of row id, or npos when the row is empty.
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);
    [[nodiscard]] std::size_t position(index_t row) const {
        const auto* p = index_.find(row);
        return p ? *p : npos;
    }
    [[nodiscard]] const Dcsr<T>& matrix() const { return *m_; }

private:
    const Dcsr<T>* m_;
    FlatMap<std::size_t> index_;
};

}  // namespace dsg::sparse
