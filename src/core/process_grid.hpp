// The r x c process grid and the 2D block distribution (Section IV): rank r
// owns grid position (r / cols, r % cols); the row dimension is cut into
// `rows` contiguous blocks, the column dimension into `cols` blocks. Row and
// column communicators carry the broadcasts/reductions of SUMMA and of
// Algorithms 1 and 2. The paper assumes a square sqrt(p) x sqrt(p) grid; the
// generalization here factors any p into the most-square r x c shape (r <= c)
// so every rank count forms a grid, and keeps the square case bit-identical.
#pragma once

#include <memory>
#include <utility>

#include "par/comm.hpp"
#include "sparse/types.hpp"

namespace dsg::core {

using sparse::index_t;

/// Partition of [0, n) into q contiguous blocks of size ceil(n/q) (the last
/// block may be short or empty).
class BlockPartition {
public:
    BlockPartition() = default;
    BlockPartition(index_t n, int q)
        : n_(n), q_(q), block_((n + q - 1) / q) {}

    [[nodiscard]] index_t n() const { return n_; }
    [[nodiscard]] int blocks() const { return q_; }

    /// Index of the block containing global index g.
    [[nodiscard]] int owner(index_t g) const {
        return block_ == 0 ? 0 : static_cast<int>(g / block_);
    }
    /// First global index of block b.
    [[nodiscard]] index_t offset(int b) const {
        return std::min<index_t>(static_cast<index_t>(b) * block_, n_);
    }
    /// Number of indices in block b.
    [[nodiscard]] index_t size(int b) const {
        return offset(b + 1) - offset(b);
    }
    /// Global index -> index within its block.
    [[nodiscard]] index_t to_local(index_t g) const {
        return g - offset(owner(g));
    }
    /// (block, local index) -> global index.
    [[nodiscard]] index_t to_global(int b, index_t local) const {
        return offset(b) + local;
    }

    /// Same extent cut into the same blocks.
    bool operator==(const BlockPartition&) const = default;

private:
    index_t n_ = 0;
    int q_ = 1;
    index_t block_ = 0;
};

/// Rectangular rows x cols process grid over a communicator. Constructing one
/// is a collective operation (it splits the world into row and column
/// communicators). The one-argument constructor factors the world size into
/// the most-square shape with rows <= cols; the explicit-shape constructor
/// accepts any factorization of the world size.
class ProcessGrid {
public:
    explicit ProcessGrid(par::Comm world);
    ProcessGrid(par::Comm world, int rows, int cols);

    [[nodiscard]] int rows() const { return rows_; }    ///< grid row count
    [[nodiscard]] int cols() const { return cols_; }    ///< grid column count
    [[nodiscard]] int grid_row() const { return row_; } ///< this rank's i
    [[nodiscard]] int grid_col() const { return col_; } ///< this rank's j

    /// World rank of grid position (i, j).
    [[nodiscard]] int rank_of(int i, int j) const { return i * cols_ + j; }

    [[nodiscard]] par::Comm& world() { return world_; }
    /// Communicator over the `cols` ranks of this grid row; rank within it is
    /// the grid column.
    [[nodiscard]] par::Comm& row_comm() { return row_comm_; }
    /// Communicator over the `rows` ranks of this grid column; rank within it
    /// is the grid row.
    [[nodiscard]] par::Comm& col_comm() { return col_comm_; }

    /// Partition of a global row dimension across the grid's rows.
    [[nodiscard]] BlockPartition row_partition(index_t n) const {
        return BlockPartition(n, rows_);
    }
    /// Partition of a global column dimension across the grid's columns.
    [[nodiscard]] BlockPartition col_partition(index_t n) const {
        return BlockPartition(n, cols_);
    }

    static bool is_square(int p);
    /// Most-square factorization of p: the pair (r, c) with r * c == p,
    /// r <= c, and r as large as possible.
    static std::pair<int, int> default_shape(int p);

private:
    par::Comm world_;
    int rows_;
    int cols_;
    int row_;
    int col_;
    par::Comm row_comm_;
    par::Comm col_comm_;
};

}  // namespace dsg::core
