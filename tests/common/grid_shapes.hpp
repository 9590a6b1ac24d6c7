// The grid-shape test matrix: one parameterized sweep shared by the core,
// stream, persist, and serve suites.
//
// Each GridCase names a process-grid shape (square AND rectangular) plus a
// caller mode: whether the test itself holds a collective of its own in
// flight while the case body runs (see Caller). Suites adopt the sweep with
//
//   class MySuiteG : public ::testing::TestWithParam<dsg::test::GridCase> {};
//   INSTANTIATE_TEST_SUITE_P(GridShapes, MySuiteG,
//                            ::testing::ValuesIn(dsg::test::grid_shape_cases()),
//                            dsg::test::grid_case_name);
//
// run the body with run_case(GetParam(), fn), and construct the grid inside
// it with make_grid(comm, GetParam()). The default sweep covers p in
// {1, 2, 3, 4, 6} — shapes 1x1, 1x2, 1x3, 2x2, 2x3 — in both caller modes;
// configuring with -DDSG_GRID_SHAPES=extended adds larger shapes (3x3, 2x4,
// 1x6, 3x4) for the dedicated CI job.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/process_grid.hpp"
#include "par/comm.hpp"

namespace dsg::test {

/// What the caller has in flight while a case body runs. Sync: nothing.
/// Async: one ibcast of its own, posted before the body and waited on after
/// it, so every collective the body issues (the kernels' post-one-ahead
/// rounds included) runs beside an unrelated outstanding handle, as the
/// post/wait contract of par::Comm allows.
enum class Caller { Sync, Async };

struct GridCase {
    int rows = 1;
    int cols = 1;
    Caller caller = Caller::Sync;

    [[nodiscard]] int p() const { return rows * cols; }
};

inline std::ostream& operator<<(std::ostream& os, const GridCase& c) {
    return os << c.rows << "x" << c.cols
              << (c.caller == Caller::Async ? " async" : " sync");
}

/// gtest parameter-name generator: "2x3_async" etc.
inline std::string grid_case_name(
    const ::testing::TestParamInfo<GridCase>& info) {
    const GridCase& c = info.param;
    return std::to_string(c.rows) + "x" + std::to_string(c.cols) +
           (c.caller == Caller::Async ? "_async" : "_sync");
}

/// The shapes of the sweep, without caller modes.
inline std::vector<std::pair<int, int>> grid_shapes() {
    return {
        {1, 1}, {1, 2}, {1, 3}, {2, 2}, {2, 3},
#ifdef DSG_GRID_SHAPES_EXTENDED
        {3, 3}, {2, 4}, {1, 6}, {3, 4},
#endif
    };
}

/// The full sweep: every shape in both caller modes.
inline std::vector<GridCase> grid_shape_cases() {
    std::vector<GridCase> out;
    for (const auto& [r, c] : grid_shapes())
        for (const Caller m : {Caller::Sync, Caller::Async})
            out.push_back({r, c, m});
    return out;
}

/// One case per shape, Sync only (for suites that need only the shape axis).
inline std::vector<GridCase> grid_shape_cases_sync_only() {
    std::vector<GridCase> out;
    for (const auto& [r, c] : grid_shapes()) out.push_back({r, c});
    return out;
}

/// Runs fn() on this rank in the given caller mode (see Caller); in Async
/// the caller's handle must still deliver the root's payload once fn
/// returns. Collective: every rank of comm calls it with the same mode.
template <typename Fn>
void run_with_caller(par::Comm& comm, Caller caller, Fn&& fn) {
    if (caller == Caller::Sync) {
        fn();
        return;
    }
    const int root = comm.size() - 1;
    const par::Buffer mark{std::byte{0x5a}, static_cast<std::byte>(root)};
    auto pending =
        comm.ibcast(root, comm.rank() == root ? mark : par::Buffer{});
    fn();
    EXPECT_EQ(pending.wait(), mark) << "the caller's in-flight ibcast";
}

/// par::run_world over the case's p ranks, each running fn in the case's
/// caller mode.
inline void run_case(const GridCase& c,
                     const std::function<void(par::Comm&)>& fn) {
    par::run_world(c.p(), [&](par::Comm& comm) {
        run_with_caller(comm, c.caller, [&] { fn(comm); });
    });
}

/// Constructs the case's grid (explicit shape override, so rectangular
/// worlds like p = 6 get the exact rows x cols the case names, not the
/// auto-factored default).
inline core::ProcessGrid make_grid(par::Comm& comm, const GridCase& c) {
    return core::ProcessGrid(comm, c.rows, c.cols);
}

}  // namespace dsg::test
