// Stress tests of the message-passing runtime: high-volume randomized
// traffic, interleaved collectives on split communicators, large payloads,
// and repeated world construction — the failure modes a deadlock or a
// tag-matching bug would surface under.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <random>
#include <thread>

#include "common/reduce_to_root.hpp"
#include "par/comm.hpp"

namespace {

using dsg::par::Buffer;
using dsg::par::Comm;
using dsg::par::run_world;

Buffer payload(std::uint64_t value, std::size_t size) {
    Buffer b(size);
    for (std::size_t i = 0; i < size; ++i)
        b[i] = static_cast<std::byte>((value + i) & 0xff);
    return b;
}

bool check_payload(const Buffer& b, std::uint64_t value) {
    for (std::size_t i = 0; i < b.size(); ++i)
        if (b[i] != static_cast<std::byte>((value + i) & 0xff)) return false;
    return true;
}

TEST(CommStress, ManySmallMessagesAllPairs) {
    run_world(8, [&](Comm& c) {
        constexpr int kRounds = 25;
        for (int r = 0; r < kRounds; ++r) {
            for (int d = 0; d < c.size(); ++d)
                c.send(d, r % 7, payload(static_cast<std::uint64_t>(
                                             c.rank() * 1000 + r),
                                         32));
            for (int s = 0; s < c.size(); ++s) {
                const Buffer got = c.recv(s, r % 7);
                EXPECT_TRUE(check_payload(
                    got, static_cast<std::uint64_t>(s * 1000 + r)));
            }
        }
    });
}

TEST(CommStress, LargePayloadBroadcastAndReduce) {
    run_world(4, [&](Comm& c) {
        const std::size_t mb = 4 << 20;  // 4 MiB
        Buffer msg;
        if (c.rank() == 2) msg = payload(99, mb);
        const Buffer got = c.bcast(2, std::move(msg));
        ASSERT_EQ(got.size(), mb);
        EXPECT_TRUE(check_payload(got, 99));

        // Reduction of 1 MiB buffers to rank 0, concatenated in rank order.
        const std::size_t part = 1 << 20;
        Buffer out;
        const std::uint64_t bytes = dsg::test::alltoall_bytes_of(c, [&] {
            out = dsg::test::reduce_to_root(
                c, 0, payload(static_cast<std::uint64_t>(c.rank()), part));
        });
        EXPECT_EQ(bytes, 3 * part);  // the three non-root payloads
        if (c.rank() == 0) {
            ASSERT_EQ(out.size(), 4 * part);
            for (std::size_t r = 0; r < 4; ++r)
                EXPECT_TRUE(check_payload(
                    Buffer(out.begin() + static_cast<std::ptrdiff_t>(r * part),
                           out.begin() +
                               static_cast<std::ptrdiff_t>((r + 1) * part)),
                    r))
                    << "contribution of rank " << r;
        }
    });
}

TEST(CommStress, InterleavedCollectivesOnRowAndColumnComms) {
    // The access pattern of the SpGEMM rounds: alternating broadcasts and
    // reductions to a root on both sub-communicators of a 3x3 grid, many
    // times.
    constexpr int kRounds = 30;
    run_world(9, [&](Comm& c) {
        const int row = c.rank() / 3;
        const int col = c.rank() % 3;
        Comm rc = c.split(row, col);
        Comm cc = c.split(col, row);
        std::mt19937_64 rng(77);
        const std::uint64_t bytes = dsg::test::alltoall_bytes_of(c, [&] {
            for (int round = 0; round < kRounds; ++round) {
                const int root = static_cast<int>(rng() % 3);
                Buffer rmsg;
                if (rc.rank() == root)
                    rmsg = payload(
                        static_cast<std::uint64_t>(row * 100 + round), 64);
                const Buffer rgot = rc.bcast(root, std::move(rmsg));
                EXPECT_TRUE(check_payload(
                    rgot, static_cast<std::uint64_t>(row * 100 + round)));

                Buffer cmsg;
                if (cc.rank() == root)
                    cmsg = payload(
                        static_cast<std::uint64_t>(col * 100 + round), 64);
                const Buffer cgot = cc.bcast(root, std::move(cmsg));
                EXPECT_TRUE(check_payload(
                    cgot, static_cast<std::uint64_t>(col * 100 + round)));

                // Each column rank contributes 8 bytes of its own rank + 1.
                const Buffer red = dsg::test::reduce_to_root(
                    cc, root, Buffer(8, static_cast<std::byte>(cc.rank() + 1)));
                if (cc.rank() == root) {
                    Buffer want;
                    for (int r = 0; r < 3; ++r)
                        want.insert(want.end(), 8,
                                    static_cast<std::byte>(r + 1));
                    EXPECT_EQ(red, want);
                }
            }
        });
        // Per round, each of the three columns moves two non-root payloads.
        EXPECT_EQ(bytes, std::uint64_t{kRounds} * 3 * 2 * 8);
    });
}

TEST(CommStress, RandomizedAlltoallvVolumes) {
    run_world(6, [&](Comm& c) {
        std::mt19937_64 rng(10 + static_cast<std::uint64_t>(c.rank()));
        for (int round = 0; round < 10; ++round) {
            std::vector<Buffer> send(6);
            for (int d = 0; d < 6; ++d) {
                // Deterministic size both sides can compute: depends only on
                // (source, dest, round).
                const std::size_t size =
                    ((static_cast<std::size_t>(c.rank()) * 31 +
                      static_cast<std::size_t>(d) * 17 +
                      static_cast<std::size_t>(round)) %
                     257) +
                    1;
                send[static_cast<std::size_t>(d)] = payload(
                    static_cast<std::uint64_t>(c.rank() * 7 + d), size);
            }
            auto recv = c.alltoallv(std::move(send));
            for (int s = 0; s < 6; ++s) {
                const std::size_t expect_size =
                    ((static_cast<std::size_t>(s) * 31 +
                      static_cast<std::size_t>(c.rank()) * 17 +
                      static_cast<std::size_t>(round)) %
                     257) +
                    1;
                ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), expect_size);
                EXPECT_TRUE(check_payload(
                    recv[static_cast<std::size_t>(s)],
                    static_cast<std::uint64_t>(s * 7 + c.rank())));
            }
        }
    });
}

// Async stress: every rank posts a window of overlapping ibcasts (posting
// order is the collective contract and must match across ranks), then a pool
// of worker threads completes the handles in a per-rank randomized order.
// Completion order must not matter: each handle is tag-isolated. This test
// runs under the CI TSan job (par label) to catch races in the mailbox
// delivery that sync-mode traffic cannot reach.
TEST(CommStress, OverlappingAsyncBroadcastsCompleteInAnyOrder) {
    run_world(6, [&](Comm& c) {
        constexpr int kInFlight = 12;
        constexpr int kWorkers = 3;
        std::mt19937_64 rng(33 + static_cast<std::uint64_t>(c.rank()));
        for (int round = 0; round < 8; ++round) {
            std::vector<Comm::PendingBcast> pending;
            pending.reserve(kInFlight);
            for (int k = 0; k < kInFlight; ++k) {
                const int root = (round + k) % c.size();
                Buffer msg;
                if (c.rank() == root)
                    msg = payload(static_cast<std::uint64_t>(root * 1000 +
                                                             round * 100 + k),
                                  48);
                pending.push_back(c.ibcast(root, std::move(msg)));
            }
            std::vector<int> order(kInFlight);
            std::iota(order.begin(), order.end(), 0);
            std::shuffle(order.begin(), order.end(), rng);
            std::vector<Buffer> got(kInFlight);
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> workers;
            for (int w = 0; w < kWorkers; ++w)
                workers.emplace_back([&] {
                    for (std::size_t i = next.fetch_add(1);
                         i < static_cast<std::size_t>(kInFlight);
                         i = next.fetch_add(1)) {
                        const auto k = static_cast<std::size_t>(
                            order[static_cast<std::size_t>(i)]);
                        got[k] = pending[k].wait();
                    }
                });
            for (auto& w : workers) w.join();
            for (int k = 0; k < kInFlight; ++k) {
                const int root = (round + k) % c.size();
                EXPECT_TRUE(check_payload(
                    got[static_cast<std::size_t>(k)],
                    static_cast<std::uint64_t>(root * 1000 + round * 100 + k)))
                    << "round " << round << " handle " << k;
            }
        }
    });
}

// Same shape for ialltoallv, plus interleaved ibcasts in the same posting
// window: two collective kinds in flight at once, completed in randomized
// order by concurrent threads.
TEST(CommStress, OverlappingAsyncAlltoallvsAndBroadcastsMix) {
    run_world(6, [&](Comm& c) {
        constexpr int kPairs = 6;  // per round: one alltoallv + one bcast each
        const auto p = static_cast<std::size_t>(c.size());
        std::mt19937_64 rng(91 + static_cast<std::uint64_t>(c.rank()));
        for (int round = 0; round < 6; ++round) {
            std::vector<Comm::PendingAlltoallv> pa;
            std::vector<Comm::PendingBcast> pb;
            for (int k = 0; k < kPairs; ++k) {
                std::vector<Buffer> send(p);
                for (int d = 0; d < c.size(); ++d) {
                    const std::size_t size =
                        ((static_cast<std::size_t>(c.rank()) * 29 +
                          static_cast<std::size_t>(d) * 13 +
                          static_cast<std::size_t>(round + k)) %
                         101) +
                        1;
                    send[static_cast<std::size_t>(d)] = payload(
                        static_cast<std::uint64_t>(c.rank() * 11 + d + k),
                        size);
                }
                pa.push_back(c.ialltoallv(std::move(send)));
                const int root = k % c.size();
                Buffer msg;
                if (c.rank() == root)
                    msg = payload(static_cast<std::uint64_t>(500 + k), 32);
                pb.push_back(c.ibcast(root, std::move(msg)));
            }
            // Complete: one thread drains the alltoallvs in reverse order,
            // another the bcasts shuffled — both concurrently.
            std::vector<std::vector<Buffer>> agot(kPairs);
            std::vector<Buffer> bgot(kPairs);
            std::thread ta([&] {
                for (int k = kPairs - 1; k >= 0; --k)
                    agot[static_cast<std::size_t>(k)] =
                        pa[static_cast<std::size_t>(k)].wait();
            });
            std::thread tb([&] {
                std::vector<int> order(kPairs);
                std::iota(order.begin(), order.end(), 0);
                std::shuffle(order.begin(), order.end(), rng);
                for (const int k : order)
                    bgot[static_cast<std::size_t>(k)] =
                        pb[static_cast<std::size_t>(k)].wait();
            });
            ta.join();
            tb.join();
            for (int k = 0; k < kPairs; ++k) {
                EXPECT_TRUE(check_payload(bgot[static_cast<std::size_t>(k)],
                                          static_cast<std::uint64_t>(500 + k)));
                for (int s = 0; s < c.size(); ++s) {
                    const std::size_t expect_size =
                        ((static_cast<std::size_t>(s) * 29 +
                          static_cast<std::size_t>(c.rank()) * 13 +
                          static_cast<std::size_t>(round + k)) %
                         101) +
                        1;
                    const auto& buf =
                        agot[static_cast<std::size_t>(k)]
                            [static_cast<std::size_t>(s)];
                    ASSERT_EQ(buf.size(), expect_size);
                    EXPECT_TRUE(check_payload(
                        buf, static_cast<std::uint64_t>(s * 11 + c.rank() +
                                                        k)));
                }
            }
        }
    });
}

TEST(CommStress, RepeatedWorldsDoNotLeakState) {
    for (int iter = 0; iter < 20; ++iter) {
        run_world(4, [&](Comm& c) {
            const int sum = c.allreduce<int>(c.rank(), [](int a, int b) {
                return a + b;
            });
            EXPECT_EQ(sum, 6);
        });
    }
}

TEST(CommStress, ReduceMergeEveryRootEveryWorldSize) {
    for (int p : {2, 3, 5, 8}) {
        run_world(p, [&](Comm& c) {
            Buffer every_rank;
            for (int r = 0; r < p; ++r)
                every_rank.push_back(static_cast<std::byte>(r));
            for (int root = 0; root < p; ++root) {
                Buffer out;
                const std::uint64_t bytes = dsg::test::alltoall_bytes_of(c, [&] {
                    out = dsg::test::reduce_to_root(
                        c, root, Buffer(1, static_cast<std::byte>(c.rank())));
                });
                EXPECT_EQ(bytes, static_cast<std::uint64_t>(p - 1));
                if (c.rank() == root) {
                    EXPECT_EQ(out, every_rank);
                }
            }
        });
    }
}

}  // namespace
