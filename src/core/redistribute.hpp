// Redistribution of update tuples to their owner ranks (Section IV-B).
//
// Ranks generate updates independently, with no knowledge of the data
// distribution. The paper's two-phase routine moves each tuple first to the
// correct grid *row* (an alltoallv within the tuple's process column, over
// `rows` buckets), then to the correct grid *column* (an alltoallv within the
// process row, over `cols` buckets). Each phase groups tuples with a counting
// sort over only one grid dimension's worth of buckets, and each alltoallv
// involves only that many peers (sqrt(p) on a square grid).
//
// One exchange routes any number of tuple kinds (the streaming engine's
// ADD, MERGE and MASK lists): redistribute_kinds gives every buffer one
// segment per kind, so K kinds cost two alltoallvs, not 2K, and move exactly
// the bytes of K one-kind exchanges. redistribute_tuples is the one-kind
// case. A phase whose communicator has one rank (either phase of a 1 x c or
// r x 1 grid, everything on 1 x 1) moves nothing, so it passes its tuples
// through in their order and issues no alltoallv.
//
// RedistMode::DirectSort is the competitor strategy the paper measures
// against (CombBLAS-style): one comparison sort by destination rank followed
// by a single global alltoallv over all p ranks.
#pragma once

#include <algorithm>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/dist_matrix.hpp"
#include "core/process_grid.hpp"
#include "par/profiler.hpp"
#include "sparse/coo.hpp"

namespace dsg::core {

enum class RedistMode {
    TwoPhase,    ///< the paper's algorithm (counting sort, sqrt(p) peers)
    DirectSort,  ///< baseline: comparison sort + one global alltoallv
};

namespace detail {

/// One phase of the two-phase exchange, over `comm`, for every kind at
/// once. Each kind is stably counting-sorted out of place by key(t), the
/// destination's rank in `comm`; every destination then gets one buffer
/// holding one segment per kind, which is that kind's write_span, exactly
/// what a one-kind buffer holds. Returns per kind what arrived, in source
/// rank order and each source's order, in the vector the phase sorted.
/// `kinds` is dropped once sorted: that frees the tuples where the phase
/// owns them (a vector of vectors) and leaves a caller's span alone.
/// On a one-rank `comm` every tuple stays, in its order: the phase passes
/// each kind through and issues no collective.
template <typename T, typename Kinds, typename KeyFn>
std::vector<std::vector<Triple<T>>> route_phase(par::Comm& comm, Kinds kinds,
                                                KeyFn&& key) {
    using par::Phase;
    using par::Profiler;
    using Out = std::vector<std::vector<Triple<T>>>;
    if (comm.size() == 1) {
        if constexpr (std::is_same_v<Kinds, Out>) {
            return kinds;
        } else {
            Out out;
            for (const auto& k : kinds) out.emplace_back(k.begin(), k.end());
            return out;
        }
    }
    const auto dests = static_cast<std::size_t>(comm.size());
    Out sorted(kinds.size());
    std::vector<std::vector<std::size_t>> offsets(kinds.size());
    {
        Profiler::Scope scope(Phase::RedistSort);
        for (std::size_t k = 0; k < kinds.size(); ++k)
            offsets[k] = sparse::counting_sort_into<T>(kinds[k], sorted[k],
                                                       dests, key);
        kinds = Kinds{};
    }
    std::vector<par::Buffer> send(dests);
    for (std::size_t d = 0; d < dests; ++d) {
        std::size_t bytes = 0;
        for (const auto& o : offsets)
            bytes += sizeof(std::uint64_t) + (o[d + 1] - o[d]) * sizeof(Triple<T>);
        send[d].reserve(bytes);
        par::BufferWriter w(send[d]);
        for (std::size_t k = 0; k < sorted.size(); ++k)
            w.write_span(std::span<const Triple<T>>(sorted[k]).subspan(
                offsets[k][d], offsets[k][d + 1] - offsets[k][d]));
    }
    std::vector<par::Buffer> recv;
    {
        Profiler::Scope scope(Phase::RedistComm);
        recv = comm.alltoallv(std::move(send));
    }
    Profiler::Scope scope(Phase::MemManagement);
    for (auto& s : sorted) s.clear();
    for (const auto& buf : recv) {
        par::BufferReader r(buf);
        for (auto& s : sorted) {
            const auto part = r.template read_vector<Triple<T>>();
            s.insert(s.end(), part.begin(), part.end());
        }
    }
    return sorted;
}

/// The two-phase exchange of K kinds (see route_phase for `kinds`).
template <typename T, typename Kinds>
std::vector<std::vector<Triple<T>>> two_phase(ProcessGrid& grid,
                                              const DistShape& shape,
                                              Kinds kinds) {
    const auto& rp = shape.row_partition();
    const auto& cp = shape.col_partition();
    // Phase 1: to the correct grid row, exchanging within this process
    // column. col_comm ranks are ordered by grid row (`rows` buckets).
    auto by_row = route_phase<T>(
        grid.col_comm(), std::move(kinds),
        [&](const Triple<T>& t) { return static_cast<std::size_t>(rp.owner(t.row)); });
    // Phase 2: to the correct grid column, exchanging within this process
    // row. row_comm ranks are ordered by grid column (`cols` buckets).
    return route_phase<T>(
        grid.row_comm(), std::move(by_row),
        [&](const Triple<T>& t) { return static_cast<std::size_t>(cp.owner(t.col)); });
}

}  // namespace detail

/// Routes K kinds of tuples (global coordinates) to the ranks owning their
/// blocks in one two-phase exchange; returns per kind the tuples this rank
/// owns, still in global coordinates, in exactly the order
/// redistribute_tuples returns for that kind alone. The inputs are only
/// read. Collective; every rank passes the same number of kinds.
template <typename T>
std::vector<std::vector<Triple<T>>> redistribute_kinds(
    ProcessGrid& grid, const DistShape& shape,
    std::span<const std::span<const Triple<T>>> kinds) {
    return detail::two_phase<T>(grid, shape, kinds);
}

/// Routes tuples (global coordinates) to the rank owning their block; returns
/// the tuples this rank owns, still in global coordinates. Collective.
template <typename T>
std::vector<Triple<T>> redistribute_tuples(ProcessGrid& grid,
                                           const DistShape& shape,
                                           std::vector<Triple<T>> tuples,
                                           RedistMode mode = RedistMode::TwoPhase) {
    std::vector<std::vector<Triple<T>>> one(1);
    one[0] = std::move(tuples);
    if (mode == RedistMode::TwoPhase)
        return std::move(detail::two_phase<T>(grid, shape, std::move(one))[0]);
    // Competitor path: sort by destination world rank, then one global
    // exchange over all p ranks (whose stable grouping keeps that order).
    {
        par::Profiler::Scope scope(par::Phase::RedistSort);
        std::sort(one[0].begin(), one[0].end(),
                  [&](const Triple<T>& a, const Triple<T>& b) {
                      const int ra = shape.owner_rank(a.row, a.col);
                      const int rb = shape.owner_rank(b.row, b.col);
                      if (ra != rb) return ra < rb;
                      return std::tie(a.row, a.col) < std::tie(b.row, b.col);
                  });
    }
    return std::move(detail::route_phase<T>(
        grid.world(), std::move(one), [&](const Triple<T>& t) {
            return static_cast<std::size_t>(shape.owner_rank(t.row, t.col));
        })[0]);
}

}  // namespace dsg::core
