// Distributed sparse matrices in the 2D block distribution (Section IV).
//
// Each rank of the rows x cols grid owns one block; blocks store LOCAL
// indices (global index minus the block offset). Two flavours exist:
//  - DistDynamicMatrix: the DHB-backed dynamic matrix supporting in-place
//    updates (the paper's dynamic storage);
//  - DistDcsr: a static hypersparse block (update matrices A*, B*).
//
// These are SPMD objects: every rank constructs its own instance inside a
// World::run body, and methods marked "collective" must be called by all
// ranks together.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

#include "core/process_grid.hpp"
#include "sparse/dcsr.hpp"
#include "sparse/dynamic_matrix.hpp"
#include "sparse/types.hpp"

namespace dsg::core {

using sparse::Dcsr;
using sparse::DynamicMatrix;
using sparse::Triple;

/// Shape/distribution information shared by both matrix flavours.
class DistShape {
public:
    DistShape() = default;
    DistShape(ProcessGrid& grid, index_t nrows, index_t ncols)
        : grid_(&grid),
          nrows_(nrows),
          ncols_(ncols),
          rp_(grid.row_partition(nrows)),
          cp_(grid.col_partition(ncols)) {}

    [[nodiscard]] ProcessGrid& grid() const { return *grid_; }
    [[nodiscard]] index_t nrows() const { return nrows_; }
    [[nodiscard]] index_t ncols() const { return ncols_; }
    [[nodiscard]] const BlockPartition& row_partition() const { return rp_; }
    [[nodiscard]] const BlockPartition& col_partition() const { return cp_; }

    /// Rows/cols of the block at grid position (i, j).
    [[nodiscard]] index_t block_rows(int i) const { return rp_.size(i); }
    [[nodiscard]] index_t block_cols(int j) const { return cp_.size(j); }
    /// Rows/cols of this rank's block.
    [[nodiscard]] index_t local_rows() const {
        return rp_.size(grid_->grid_row());
    }
    [[nodiscard]] index_t local_cols() const {
        return cp_.size(grid_->grid_col());
    }

    /// World rank owning global coordinate (i, j).
    [[nodiscard]] int owner_rank(index_t i, index_t j) const {
        return grid_->rank_of(rp_.owner(i), cp_.owner(j));
    }
    /// Global -> local coordinates (valid on the owner).
    [[nodiscard]] index_t local_row(index_t i) const { return rp_.to_local(i); }
    [[nodiscard]] index_t local_col(index_t j) const { return cp_.to_local(j); }
    /// Local -> global coordinates on this rank.
    [[nodiscard]] index_t global_row(index_t i) const {
        return rp_.to_global(grid_->grid_row(), i);
    }
    [[nodiscard]] index_t global_col(index_t j) const {
        return cp_.to_global(grid_->grid_col(), j);
    }

private:
    ProcessGrid* grid_ = nullptr;
    index_t nrows_ = 0;
    index_t ncols_ = 0;
    BlockPartition rp_;
    BlockPartition cp_;
};

/// Distributed dynamic matrix: one DHB block per rank.
template <typename T>
class DistDynamicMatrix {
public:
    DistDynamicMatrix(ProcessGrid& grid, index_t nrows, index_t ncols)
        : shape_(grid, nrows, ncols),
          local_(shape_.local_rows(), shape_.local_cols()) {}

    [[nodiscard]] const DistShape& shape() const { return shape_; }
    [[nodiscard]] DynamicMatrix<T>& local() { return local_; }
    [[nodiscard]] const DynamicMatrix<T>& local() const { return local_; }

    /// Collective: total non-zeros across all blocks.
    [[nodiscard]] std::size_t global_nnz() const {
        return shape_.grid().world().template allreduce<std::uint64_t>(
            local_.nnz(), [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }

    /// Freezes this rank's block as an immutable DCSR tile (local indices,
    /// rows ascending) — the extraction step of snapshot publication
    /// (src/serve/). O(local nnz); rank-local. The caller must hold the
    /// block quiescent (the serving layer runs this under the epoch
    /// engine's writer lock, where the matrix cannot change).
    [[nodiscard]] Dcsr<T> freeze_tile() const { return local_.to_dcsr(); }

    /// Collective: gathers every entry (with global coordinates) on every
    /// rank. Testing/debugging helper; O(global nnz) everywhere.
    [[nodiscard]] std::vector<Triple<T>> gather_global() const
        requires std::is_trivially_copyable_v<T>
    {
        par::Buffer mine;
        par::BufferWriter w(mine);
        std::vector<Triple<T>> ts;
        ts.reserve(local_.nnz());
        local_.for_each([&](index_t i, index_t j, const T& v) {
            ts.push_back({shape_.global_row(i), shape_.global_col(j), v});
        });
        w.write_vector(ts);
        auto all = shape_.grid().world().allgather(std::move(mine));
        std::vector<Triple<T>> out;
        for (auto& buf : all) {
            par::BufferReader r(buf);
            auto part = r.template read_vector<Triple<T>>();
            out.insert(out.end(), part.begin(), part.end());
        }
        return out;
    }

private:
    DistShape shape_;
    DynamicMatrix<T> local_;
};

/// Read-only point-query surface over one rank's block of a distributed
/// dynamic matrix, in GLOBAL coordinates. This is what the streaming engine
/// hands to reader threads between epochs (src/stream/epoch_engine.hpp owns
/// the locking protocol that makes concurrent use data-race free); `version`
/// identifies the epoch the view observes, so readers can detect staleness.
template <typename T>
class SnapshotView {
public:
    SnapshotView(const DistDynamicMatrix<T>& m, std::uint64_t version)
        : m_(&m), version_(version) {}

    /// Epoch counter at snapshot time (monotone per engine).
    [[nodiscard]] std::uint64_t version() const { return version_; }
    [[nodiscard]] const DistShape& shape() const { return m_->shape(); }

    /// True when global (i, j) falls inside this rank's block — the only
    /// coordinates this rank can answer queries about.
    [[nodiscard]] bool owns(index_t i, index_t j) const {
        const auto& s = m_->shape();
        return s.row_partition().owner(i) == s.grid().grid_row() &&
               s.col_partition().owner(j) == s.grid().grid_col();
    }
    /// Stored value at global (i, j), or nullptr when absent. Pre: owns(i, j).
    [[nodiscard]] const T* find(index_t i, index_t j) const {
        assert(owns(i, j));
        return m_->local().find(m_->shape().local_row(i),
                                m_->shape().local_col(j));
    }
    /// Whether (i, j) is a stored non-zero of this rank's block.
    [[nodiscard]] bool contains(index_t i, index_t j) const {
        return owns(i, j) && find(i, j) != nullptr;
    }
    [[nodiscard]] std::size_t local_nnz() const { return m_->local().nnz(); }

private:
    const DistDynamicMatrix<T>* m_;
    std::uint64_t version_;
};

/// Distributed static hypersparse matrix: one DCSR block per rank.
template <typename T>
class DistDcsr {
public:
    /// An empty 0 x 0 block on no grid: a placeholder to assign into.
    DistDcsr() = default;
    DistDcsr(ProcessGrid& grid, index_t nrows, index_t ncols)
        : shape_(grid, nrows, ncols),
          local_(shape_.local_rows(), shape_.local_cols()) {}

    [[nodiscard]] const DistShape& shape() const { return shape_; }
    [[nodiscard]] Dcsr<T>& local() { return local_; }
    [[nodiscard]] const Dcsr<T>& local() const { return local_; }

    [[nodiscard]] std::size_t global_nnz() const {
        return shape_.grid().world().template allreduce<std::uint64_t>(
            local_.nnz(), [](std::uint64_t a, std::uint64_t b) { return a + b; });
    }

private:
    DistShape shape_;
    Dcsr<T> local_;
};

}  // namespace dsg::core
