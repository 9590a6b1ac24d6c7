// The pattern of the kernels' sparse reduce-scatter, with one destination:
// every rank posts one ialltoallv whose only non-empty buffer goes to the
// root, and the root merges what arrives in rank order, its own
// contribution at its own position. The par tests drive it on world and
// split communicators beside the other collectives.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "par/comm.hpp"

namespace dsg::test {

/// Concatenates every rank's `mine` at root in rank order; returns an empty
/// buffer elsewhere. Every buffer a non-root receives must be zero-length.
inline par::Buffer reduce_to_root(par::Comm& c, int root, par::Buffer mine) {
    std::vector<par::Buffer> send(static_cast<std::size_t>(c.size()));
    send[static_cast<std::size_t>(root)] = std::move(mine);
    const std::vector<par::Buffer> recv = c.ialltoallv(std::move(send)).wait();
    par::Buffer out;
    for (const auto& buf : recv) {
        if (c.rank() == root)
            out.insert(out.end(), buf.begin(), buf.end());
        else
            EXPECT_TRUE(buf.empty()) << "a non-root received a payload";
    }
    return out;
}

/// The alltoall bytes that fn() moves, world-wide. World barriers fence the
/// snapshots, so fn must be run by every rank of `world`.
template <typename Fn>
std::uint64_t alltoall_bytes_of(par::Comm& world, Fn&& fn) {
    world.barrier();
    const std::uint64_t before = world.stats().snapshot().alltoall_bytes;
    world.barrier();
    fn();
    world.barrier();
    const std::uint64_t after = world.stats().snapshot().alltoall_bytes;
    world.barrier();
    return after - before;
}

}  // namespace dsg::test
