// Tests of the message-passing runtime: point-to-point, collectives, splits,
// abort propagation, and volume accounting — across several world sizes.
#include <gtest/gtest.h>

#include <numeric>
#include <string>

#include "common/reduce_to_root.hpp"
#include "par/comm.hpp"

namespace {

using dsg::par::Buffer;
using dsg::par::Comm;
using dsg::par::run_world;

Buffer make_buffer(const std::string& s) {
    Buffer b(s.size());
    std::memcpy(b.data(), s.data(), s.size());
    return b;
}

std::string to_string(const Buffer& b) {
    return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

class CommP : public ::testing::TestWithParam<int> {};

TEST_P(CommP, RankAndSize) {
    const int p = GetParam();
    std::atomic<int> seen{0};
    run_world(p, [&](Comm& c) {
        EXPECT_EQ(c.size(), p);
        EXPECT_GE(c.rank(), 0);
        EXPECT_LT(c.rank(), p);
        seen.fetch_add(1);
    });
    EXPECT_EQ(seen.load(), p);
}

TEST_P(CommP, RingSendRecv) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        const int next = (c.rank() + 1) % c.size();
        const int prev = (c.rank() + c.size() - 1) % c.size();
        c.send(next, 3, make_buffer("from " + std::to_string(c.rank())));
        const Buffer got = c.recv(prev, 3);
        EXPECT_EQ(to_string(got), "from " + std::to_string(prev));
    });
}

TEST_P(CommP, TagsKeepStreamsSeparate) {
    const int p = GetParam();
    if (p < 2) GTEST_SKIP();
    run_world(p, [&](Comm& c) {
        if (c.rank() == 0) {
            c.send(1, 7, make_buffer("seven"));
            c.send(1, 8, make_buffer("eight"));
        } else if (c.rank() == 1) {
            // Receive in the opposite order of sending.
            EXPECT_EQ(to_string(c.recv(0, 8)), "eight");
            EXPECT_EQ(to_string(c.recv(0, 7)), "seven");
        }
    });
}

TEST_P(CommP, MessagesFromSameSourceStayOrdered) {
    const int p = GetParam();
    if (p < 2) GTEST_SKIP();
    run_world(p, [&](Comm& c) {
        if (c.rank() == 0) {
            for (int m = 0; m < 20; ++m)
                c.send(1, 1, make_buffer(std::to_string(m)));
        } else if (c.rank() == 1) {
            for (int m = 0; m < 20; ++m)
                EXPECT_EQ(to_string(c.recv(0, 1)), std::to_string(m));
        }
    });
}

TEST_P(CommP, SendRecvExchangesWithPeer) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        const int peer = c.size() - 1 - c.rank();  // pairwise (self at center)
        const Buffer got =
            c.sendrecv(peer, 5, make_buffer("r" + std::to_string(c.rank())));
        EXPECT_EQ(to_string(got), "r" + std::to_string(peer));
    });
}

TEST_P(CommP, BcastDeliversRootBuffer) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        for (int root = 0; root < c.size(); ++root) {
            Buffer msg;
            if (c.rank() == root) msg = make_buffer("hello " + std::to_string(root));
            const Buffer got = c.bcast(root, std::move(msg));
            EXPECT_EQ(to_string(got), "hello " + std::to_string(root));
        }
    });
}

TEST_P(CommP, AlltoallvRoutesEveryPair) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        std::vector<Buffer> send(static_cast<std::size_t>(c.size()));
        for (int d = 0; d < c.size(); ++d)
            send[static_cast<std::size_t>(d)] = make_buffer(
                std::to_string(c.rank()) + "->" + std::to_string(d));
        auto recv = c.alltoallv(std::move(send));
        ASSERT_EQ(recv.size(), static_cast<std::size_t>(c.size()));
        for (int s = 0; s < c.size(); ++s)
            EXPECT_EQ(to_string(recv[static_cast<std::size_t>(s)]),
                      std::to_string(s) + "->" + std::to_string(c.rank()));
    });
}

TEST_P(CommP, GatherCollectsAtRoot) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        const int root = c.size() - 1;
        auto got = c.gather(root, make_buffer(std::to_string(c.rank() * 11)));
        if (c.rank() == root) {
            ASSERT_EQ(got.size(), static_cast<std::size_t>(c.size()));
            for (int s = 0; s < c.size(); ++s)
                EXPECT_EQ(to_string(got[static_cast<std::size_t>(s)]),
                          std::to_string(s * 11));
        } else {
            EXPECT_TRUE(got.empty());
        }
    });
}

TEST_P(CommP, AllgatherGivesEveryoneEverything) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        std::string mine = "x";
        mine += std::to_string(c.rank());
        auto got = c.allgather(make_buffer(mine));
        ASSERT_EQ(got.size(), static_cast<std::size_t>(c.size()));
        for (int s = 0; s < c.size(); ++s) {
            std::string expect = "x";
            expect += std::to_string(s);
            EXPECT_EQ(to_string(got[static_cast<std::size_t>(s)]), expect);
        }
    });
}

TEST_P(CommP, ReduceMergeConcatenatesAllContributions) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        Buffer every_rank;  // what the root must see: each rank's byte, in order
        for (int r = 0; r < c.size(); ++r)
            every_rank.push_back(static_cast<std::byte>(r));
        for (int root = 0; root < c.size(); ++root) {
            Buffer out;
            const std::uint64_t bytes = dsg::test::alltoall_bytes_of(c, [&] {
                out = dsg::test::reduce_to_root(
                    c, root, Buffer(1, static_cast<std::byte>(c.rank())));
            });
            // One byte from every non-root; the root's own copy is free.
            EXPECT_EQ(bytes, static_cast<std::uint64_t>(c.size() - 1));
            if (c.rank() == root) {
                EXPECT_EQ(out, every_rank);
            } else {
                EXPECT_TRUE(out.empty());
            }
        }
    });
}

TEST_P(CommP, AllreduceSumAndMax) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        const long long sum = c.allreduce<long long>(
            c.rank() + 1, [](long long a, long long b) { return a + b; });
        EXPECT_EQ(sum, static_cast<long long>(c.size()) * (c.size() + 1) / 2);
        const int mx = c.allreduce<int>(
            c.rank(), [](int a, int b) { return std::max(a, b); });
        EXPECT_EQ(mx, c.size() - 1);
    });
}

TEST_P(CommP, AllreduceOrCombinesBitVectors) {
    const int p = GetParam();
    run_world(p, [&](Comm& c) {
        std::vector<std::uint64_t> words(8, 0);
        words[static_cast<std::size_t>(c.rank()) % 8] |=
            std::uint64_t{1} << c.rank();
        c.allreduce_or(words);
        std::uint64_t all = 0;
        for (auto w : words) all |= w;
        std::uint64_t expect = 0;
        for (int r = 0; r < c.size(); ++r) expect |= std::uint64_t{1} << r;
        EXPECT_EQ(all, expect);
    });
}

TEST_P(CommP, SplitFormsRowGroups) {
    const int p = GetParam();
    const int q = p == 1 ? 1 : (p == 4 ? 2 : 3);
    if (q * q != p) GTEST_SKIP();
    run_world(p, [&](Comm& c) {
        const int row = c.rank() / q;
        const int col = c.rank() % q;
        Comm rc = c.split(row, col);
        EXPECT_EQ(rc.size(), q);
        EXPECT_EQ(rc.rank(), col);
        // Collectives work within the subgroup.
        const int rowsum =
            rc.allreduce<int>(c.rank(), [](int a, int b) { return a + b; });
        int expect = 0;
        for (int j = 0; j < q; ++j) expect += row * q + j;
        EXPECT_EQ(rowsum, expect);
    });
}

TEST_P(CommP, SplitSubgroupsOperateConcurrently) {
    const int p = GetParam();
    if (p < 4) GTEST_SKIP();
    run_world(p, [&](Comm& c) {
        // Two halves run independent broadcast sequences.
        const int color = c.rank() % 2;
        Comm half = c.split(color, c.rank());
        for (int iter = 0; iter < 5; ++iter) {
            Buffer msg;
            if (half.rank() == 0)
                msg = make_buffer("c" + std::to_string(color) + "i" +
                                  std::to_string(iter));
            const Buffer got = half.bcast(0, std::move(msg));
            EXPECT_EQ(to_string(got), "c" + std::to_string(color) + "i" +
                                          std::to_string(iter));
        }
    });
}

TEST_P(CommP, StatsCountTraffic) {
    const int p = GetParam();
    if (p < 2) GTEST_SKIP();
    run_world(p, [&](Comm& c) {
        c.stats().reset();
        c.barrier();
        Buffer msg;
        if (c.rank() == 0) msg = Buffer(100);
        (void)c.bcast(0, std::move(msg));
        c.barrier();
        if (c.rank() == 0) {
            const auto s = c.stats().snapshot();
            // Every non-root copied 100 bytes.
            EXPECT_EQ(s.bcast_bytes, static_cast<std::uint64_t>(p - 1) * 100);
        }
    });
}

INSTANTIATE_TEST_SUITE_P(Worlds, CommP, ::testing::Values(1, 2, 4, 9, 16));

TEST(Comm, ExceptionOnOneRankPropagates) {
    EXPECT_THROW(
        run_world(4,
                  [&](Comm& c) {
                      if (c.rank() == 2) throw std::runtime_error("rank 2 died");
                      // Other ranks block; the abort must wake them.
                      c.barrier();
                  }),
        std::runtime_error);
}

TEST(Comm, ExceptionWhileOthersBlockInRecv) {
    EXPECT_THROW(run_world(3,
                           [&](Comm& c) {
                               if (c.rank() == 0)
                                   throw std::logic_error("fail fast");
                               (void)c.recv(0, 1);  // never satisfied
                           }),
                 std::logic_error);
}

TEST(Comm, InvalidWorldSizeRejected) {
    EXPECT_THROW(run_world(0, [](Comm&) {}), std::invalid_argument);
}

TEST(Comm, SelfSendIsFreeInStats) {
    run_world(1, [](Comm& c) {
        c.stats().reset();
        c.send(0, 1, Buffer(64));
        (void)c.recv(0, 1);
        const auto s = c.stats().snapshot();
        EXPECT_EQ(s.p2p_bytes, 0u);
        EXPECT_EQ(s.p2p_messages, 0u);
    });
}

}  // namespace
