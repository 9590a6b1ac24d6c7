// Properties of the update redistribution (Section IV-B): every tuple ends on
// its owner rank, the global multiset is preserved, and the two modes agree.
#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <random>
#include <span>

#include "common/grid_shapes.hpp"
#include "core/redistribute.hpp"
#include "dist_test_utils.hpp"

namespace {

using namespace dsg;
using core::DistShape;
using core::ProcessGrid;
using core::RedistMode;
using par::Comm;
using par::run_world;
using sparse::index_t;
using sparse::Triple;
using test::random_triples;
using dsg::test::GridCase;

struct Params {
    GridCase gc;
    RedistMode mode;
};

std::string params_name(const ::testing::TestParamInfo<Params>& info) {
    const Params& pr = info.param;
    return std::to_string(pr.gc.rows) + "x" + std::to_string(pr.gc.cols) +
           (pr.mode == RedistMode::TwoPhase ? "_twophase" : "_directsort") +
           (pr.gc.caller == dsg::test::Caller::Async ? "_async" : "_sync");
}

std::vector<Params> redist_params() {
    std::vector<Params> out;
    for (const GridCase& gc : dsg::test::grid_shape_cases())
        for (const RedistMode mode :
             {RedistMode::TwoPhase, RedistMode::DirectSort})
            out.push_back({gc, mode});
    return out;
}

class RedistP : public ::testing::TestWithParam<Params> {};

TEST_P(RedistP, TuplesArriveAtOwnersAndNothingIsLost) {
    const auto [gc, mode] = GetParam();
    const index_t n = 37;  // deliberately not divisible by rows or cols
    const index_t m = 23;
    std::vector<std::vector<Triple<double>>> received(
        static_cast<std::size_t>(gc.p()));
    std::vector<Triple<double>> global_input;
    std::mutex mx;
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        core::DistDynamicMatrix<double> shape_holder(grid, n, m);
        const DistShape& shape = shape_holder.shape();
        std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(c.rank()));
        auto mine = random_triples(rng, n, m, 200 + 13 * c.rank());
        {
            std::lock_guard lk(mx);
            global_input.insert(global_input.end(), mine.begin(), mine.end());
        }
        auto got = core::redistribute_tuples(grid, shape, mine, mode);
        // Ownership property.
        for (const auto& t : got)
            EXPECT_EQ(shape.owner_rank(t.row, t.col), c.rank());
        std::lock_guard lk(mx);
        received[static_cast<std::size_t>(c.rank())] = std::move(got);
    });
    // Multiset preservation.
    std::vector<Triple<double>> all;
    for (auto& part : received) all.insert(all.end(), part.begin(), part.end());
    auto key = [](const Triple<double>& t) {
        return std::tuple(t.row, t.col, t.value);
    };
    std::sort(all.begin(), all.end(),
              [&](auto& a, auto& b) { return key(a) < key(b); });
    std::sort(global_input.begin(), global_input.end(),
              [&](auto& a, auto& b) { return key(a) < key(b); });
    EXPECT_EQ(all, global_input);
}

TEST_P(RedistP, EmptyInputOnEveryRank) {
    const auto [gc, mode] = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        core::DistDynamicMatrix<double> holder(grid, 10, 10);
        auto got = core::redistribute_tuples(grid, holder.shape(),
                                             std::vector<Triple<double>>{}, mode);
        EXPECT_TRUE(got.empty());
    });
}

TEST_P(RedistP, AllTuplesFromOneRank) {
    const auto [gc, mode] = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        core::DistDynamicMatrix<double> holder(grid, 16, 16);
        std::vector<Triple<double>> mine;
        if (c.rank() == 0) {
            for (index_t i = 0; i < 16; ++i)
                for (index_t j = 0; j < 16; ++j)
                    mine.push_back({i, j, double(i * 16 + j)});
        }
        auto got = core::redistribute_tuples(grid, holder.shape(), mine, mode);
        // Each rank owns exactly its (possibly uneven) block.
        const auto& rp = holder.shape().row_partition();
        const auto& cp = holder.shape().col_partition();
        EXPECT_EQ(got.size(),
                  static_cast<std::size_t>(rp.size(grid.grid_row()) *
                                           cp.size(grid.grid_col())));
        for (const auto& t : got)
            EXPECT_EQ(holder.shape().owner_rank(t.row, t.col), c.rank());
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, RedistP,
                         ::testing::ValuesIn(redist_params()), params_name);

class RedistKindsP : public ::testing::TestWithParam<GridCase> {};

// One exchange of three kinds returns, per kind, exactly what that kind's
// own redistribute_tuples returns, in the same order (MERGE's last writer
// and ADD's float sums depend on it), and moves exactly the bytes of the
// three one-kind exchanges together. One kind is empty on every rank but
// one, so a segment can be empty while its neighbours are not.
TEST_P(RedistKindsP, EachKindMatchesItsOwnRedistribution) {
    const GridCase gc = GetParam();
    dsg::test::run_case(gc, [&](Comm& c) {
        ProcessGrid grid = dsg::test::make_grid(c, gc);
        core::DistDynamicMatrix<double> holder(grid, 37, 23);
        const DistShape& shape = holder.shape();
        std::mt19937_64 rng(2000 + static_cast<std::uint64_t>(c.rank()));
        // Small extents, so coordinates repeat within and across ranks.
        const std::vector<std::vector<Triple<double>>> lists = {
            random_triples(rng, 9, 7, 120 + 7 * c.rank()),
            c.rank() == 0 ? random_triples(rng, 37, 23, 50)
                          : std::vector<Triple<double>>{},
            random_triples(rng, 37, 23, 80)};
        auto alltoall_bytes = [&] {
            c.barrier();
            const auto b = c.stats().snapshot().alltoall_bytes;
            c.barrier();
            return b;
        };
        const auto b0 = alltoall_bytes();
        std::vector<std::vector<Triple<double>>> each;
        for (const auto& l : lists)
            each.push_back(core::redistribute_tuples(grid, shape, l));
        const auto b1 = alltoall_bytes();
        const std::vector<std::span<const Triple<double>>> kinds(lists.begin(),
                                                                 lists.end());
        const auto together =
            core::redistribute_kinds<double>(grid, shape, kinds);
        const auto b2 = alltoall_bytes();
        EXPECT_EQ(together, each);
        EXPECT_EQ(b2 - b1, b1 - b0);
    });
}

INSTANTIATE_TEST_SUITE_P(GridShapes, RedistKindsP,
                         ::testing::ValuesIn(dsg::test::grid_shape_cases()),
                         dsg::test::grid_case_name);

TEST(Redistribute, RectangularGridMatchesSingleRankReference) {
    // The regression the rectangular generalization demands: the index math
    // that decides ownership must not assume q = sqrt(p). A fixed COO set is
    // redistributed on a 2x3 grid and the per-rank partition is compared,
    // tuple for tuple, against what the 1-rank reference (which trivially
    // keeps everything) says each rank of a 2x3 grid should own.
    const index_t n = 19, m = 17;
    std::vector<Triple<double>> coo;
    for (index_t i = 0; i < n; ++i)
        for (index_t j = 0; j < m; ++j)
            if ((i * 31 + j * 7) % 5 == 0)
                coo.push_back({i, j, double(i) * 100.0 + double(j)});

    // 1-rank reference: ownership derived from the same DistShape logic on a
    // trivially correct 1x1 grid, then re-partitioned by hand onto 2x3.
    std::vector<std::vector<Triple<double>>> expect(6);
    run_world(1, [&](Comm& c) {
        ProcessGrid grid(c);
        core::DistDynamicMatrix<double> holder(grid, n, m);
        auto got = core::redistribute_tuples(grid, holder.shape(), coo,
                                             RedistMode::TwoPhase);
        EXPECT_EQ(got.size(), coo.size());
        const core::BlockPartition rp(n, 2), cp(m, 3);
        for (const auto& t : got)
            expect[static_cast<std::size_t>(rp.owner(t.row) * 3 +
                                            cp.owner(t.col))].push_back(t);
    });

    auto key = [](const Triple<double>& t) {
        return std::tuple(t.row, t.col, t.value);
    };
    auto sorted = [&](std::vector<Triple<double>> v) {
        std::sort(v.begin(), v.end(),
                  [&](auto& a, auto& b) { return key(a) < key(b); });
        return v;
    };
    for (const RedistMode mode :
         {RedistMode::TwoPhase, RedistMode::DirectSort}) {
        std::vector<std::vector<Triple<double>>> received(6);
        std::mutex mx;
        run_world(6, [&](Comm& c) {
            ProcessGrid grid(c, 2, 3);
            core::DistDynamicMatrix<double> holder(grid, n, m);
            // Scatter the input round-robin so every rank contributes.
            std::vector<Triple<double>> mine;
            for (std::size_t x = c.rank(); x < coo.size(); x += 6)
                mine.push_back(coo[x]);
            auto got = core::redistribute_tuples(grid, holder.shape(), mine,
                                                 mode);
            std::lock_guard lk(mx);
            received[static_cast<std::size_t>(c.rank())] = std::move(got);
        });
        for (int r = 0; r < 6; ++r)
            EXPECT_EQ(sorted(received[static_cast<std::size_t>(r)]),
                      sorted(expect[static_cast<std::size_t>(r)]))
                << "rank " << r << " block differs from the 1-rank reference";
    }
}

// On a 1 x 3 grid every process column holds one rank, so phase 1 has no
// peer: it passes the tuples through, and each rank issues only phase 2's
// alltoallv.
TEST(Redistribute, OneRankPhaseIssuesNoCollective) {
    run_world(3, [&](Comm& c) {
        ProcessGrid grid(c, 1, 3);
        core::DistDynamicMatrix<double> holder(grid, 37, 23);
        std::mt19937_64 rng(7 + static_cast<std::uint64_t>(c.rank()));
        const auto ts = random_triples(rng, 37, 23, 40);
        const std::vector<std::span<const Triple<double>>> kinds = {ts, ts};
        c.barrier();
        const auto before = c.stats().snapshot().collectives;
        c.barrier();
        (void)core::redistribute_kinds<double>(grid, holder.shape(), kinds);
        c.barrier();
        if (c.rank() == 0) {
            EXPECT_EQ(c.stats().snapshot().collectives - before, 3u);
        }
    });
}

TEST(Redistribute, TwoPhaseTouchesOnlyRowAndColPeersPerPhase) {
    // The two-phase exchange runs over the row/column communicators (4 ranks
    // each on the 4x4 grid p = 16 auto-factors to); the alltoall volume must
    // equal the bytes a tuple stream crossing rank boundaries occupies, and
    // no world-wide alltoallv happens.
    run_world(16, [&](Comm& c) {
        ProcessGrid grid(c);
        core::DistDynamicMatrix<double> holder(grid, 64, 64);
        c.barrier();
        if (c.rank() == 0) c.stats().reset();
        c.barrier();
        std::mt19937_64 rng(5 + static_cast<std::uint64_t>(c.rank()));
        auto mine = test::random_triples(rng, 64, 64, 64);
        (void)core::redistribute_tuples(grid, holder.shape(), mine,
                                        core::RedistMode::TwoPhase);
        c.barrier();
        if (c.rank() == 0) {
            const auto s = c.stats().snapshot();
            // Two alltoallv per rank happened (collectives counted globally:
            // 2 phases * 16 ranks, plus the allgathers none; splits already
            // done before reset).
            EXPECT_GE(s.collectives, 2u * 16u);
            EXPECT_GT(s.alltoall_bytes, 0u);
        }
    });
}

}  // namespace
