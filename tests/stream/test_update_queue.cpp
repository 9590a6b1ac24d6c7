#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "stream/update_queue.hpp"

namespace {

using dsg::sparse::index_t;
using dsg::stream::OpKind;
using dsg::stream::StreamOp;
using dsg::stream::UpdateQueue;
using namespace std::chrono_literals;

constexpr index_t kN = 1 << 12;  // the queues' matrix: kN x kN

StreamOp<double> op(index_t row, index_t col, double value = 1.0,
                    OpKind kind = OpKind::Add) {
    return {kind, {row, col, value}};
}

TEST(UpdateQueue, DrainsInFifoOrder) {
    UpdateQueue<double> q(16, kN, kN);
    for (index_t k = 0; k < 10; ++k) ASSERT_TRUE(q.push(op(k, k)));
    EXPECT_EQ(q.size(), 10u);

    std::vector<StreamOp<double>> out;
    EXPECT_EQ(q.drain(out), 10u);
    ASSERT_EQ(out.size(), 10u);
    for (index_t k = 0; k < 10; ++k) EXPECT_EQ(out[static_cast<std::size_t>(k)], op(k, k));
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.accepted(), 10u);
}

TEST(UpdateQueue, DrainAppendsAcrossWrapAround) {
    UpdateQueue<double> q(4, kN, kN);
    std::vector<StreamOp<double>> out;
    // Fill, half-drain, refill: forces the ring to wrap.
    for (index_t k = 0; k < 4; ++k) ASSERT_TRUE(q.push(op(k, 0)));
    q.drain(out);
    for (index_t k = 4; k < 8; ++k) ASSERT_TRUE(q.push(op(k, 0)));
    q.drain(out);
    ASSERT_EQ(out.size(), 8u);
    for (index_t k = 0; k < 8; ++k) EXPECT_EQ(out[static_cast<std::size_t>(k)].tuple.row, k);
}

TEST(UpdateQueue, TryPushRefusesWhenFull) {
    UpdateQueue<double> q(2, kN, kN);
    EXPECT_TRUE(q.try_push(op(0, 0)));
    EXPECT_TRUE(q.try_push(op(1, 1)));
    EXPECT_FALSE(q.try_push(op(2, 2)));

    std::vector<StreamOp<double>> out;
    q.drain(out);
    EXPECT_TRUE(q.try_push(op(3, 3)));
}

TEST(UpdateQueue, PushBlocksOnBackpressureUntilDrained) {
    UpdateQueue<double> q(4, kN, kN);
    for (index_t k = 0; k < 4; ++k) ASSERT_TRUE(q.push(op(k, 0)));

    std::atomic<bool> pushed{false};
    std::thread producer([&] {
        ASSERT_TRUE(q.push(op(99, 0)));  // must block: queue is full
        pushed.store(true);
    });
    std::this_thread::sleep_for(20ms);
    EXPECT_FALSE(pushed.load());

    std::vector<StreamOp<double>> out;
    q.drain(out);
    producer.join();
    EXPECT_TRUE(pushed.load());
    out.clear();
    q.drain(out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].tuple.row, 99);
}

// An op outside the matrix would reach the epoch's redistribution with an
// owner rank past the grid; push() refuses it on the producer's thread.
TEST(UpdateQueue, PushRejectsOpsOutsideTheMatrix) {
    UpdateQueue<double> q(8, 4, 6);
    EXPECT_THROW(q.push(op(4, 0)), std::out_of_range);
    EXPECT_THROW(q.push(op(0, 6)), std::out_of_range);
    EXPECT_THROW(q.push(op(-1, 0)), std::out_of_range);
    EXPECT_THROW(q.push(op(0, -1, 1.0, OpKind::Mask)), std::out_of_range);
    EXPECT_THROW(q.push(op(100000, 0)), std::out_of_range);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.accepted(), 0u);

    ASSERT_TRUE(q.push(op(3, 5)));  // the last row and column
    std::vector<StreamOp<double>> out;
    EXPECT_EQ(q.drain(out), 1u);
    EXPECT_EQ(out[0], op(3, 5));
}

TEST(UpdateQueue, TryPushRejectsOpsOutsideTheMatrix) {
    UpdateQueue<double> q(8, 4, 6);
    EXPECT_THROW(q.try_push(op(4, 0)), std::out_of_range);
    EXPECT_THROW(q.try_push(op(0, 6, 1.0, OpKind::Merge)), std::out_of_range);
    EXPECT_THROW(q.try_push(op(-1, -1)), std::out_of_range);
    EXPECT_EQ(q.size(), 0u);
    EXPECT_EQ(q.accepted(), 0u);
    EXPECT_TRUE(q.try_push(op(3, 5)));
    EXPECT_EQ(q.accepted(), 1u);
}

TEST(UpdateQueue, CloseRejectsPushesButKeepsBufferedOps) {
    UpdateQueue<double> q(8, kN, kN);
    ASSERT_TRUE(q.push(op(1, 1)));
    q.close();
    EXPECT_TRUE(q.closed());
    EXPECT_FALSE(q.exhausted());  // one op still buffered
    EXPECT_FALSE(q.push(op(2, 2)));
    EXPECT_FALSE(q.try_push(op(2, 2)));

    std::vector<StreamOp<double>> out;
    EXPECT_EQ(q.drain(out), 1u);
    EXPECT_TRUE(q.exhausted());
}

TEST(UpdateQueue, CloseUnblocksWaitingProducer) {
    UpdateQueue<double> q(1, kN, kN);
    ASSERT_TRUE(q.push(op(0, 0)));
    std::thread producer([&] { EXPECT_FALSE(q.push(op(1, 1))); });
    std::this_thread::sleep_for(10ms);
    q.close();
    producer.join();
}

TEST(UpdateQueue, ProducerTokensCloseWhenLastFinishes) {
    UpdateQueue<double> q(8, kN, kN);
    q.register_producer();
    q.register_producer();
    q.producer_done();
    EXPECT_FALSE(q.closed());
    q.producer_done();
    EXPECT_TRUE(q.closed());
}

TEST(UpdateQueue, WaitReadyReturnsOnBatchCloseOrDeadline) {
    UpdateQueue<double> q(16, kN, kN);
    // Deadline path: nothing arrives.
    const auto t0 = std::chrono::steady_clock::now();
    EXPECT_EQ(q.wait_ready(4, 30ms), 0u);
    EXPECT_GE(std::chrono::steady_clock::now() - t0, 25ms);

    // Batch path: a producer fills it past the threshold.
    std::thread producer([&] {
        for (index_t k = 0; k < 4; ++k) ASSERT_TRUE(q.push(op(k, 0)));
    });
    EXPECT_GE(q.wait_ready(4, 10s), 4u);
    producer.join();

    // Close path: wakes immediately regardless of the deadline.
    q.close();
    std::vector<StreamOp<double>> out;
    q.drain(out);
    EXPECT_EQ(q.wait_ready(1000, 10s), 0u);
}

TEST(UpdateQueue, WaitReadyClampsThresholdToCapacity) {
    UpdateQueue<double> q(4, kN, kN);
    std::thread producer([&] {
        for (index_t k = 0; k < 4; ++k) ASSERT_TRUE(q.push(op(k, 0)));
    });
    // A threshold above capacity must trigger once the ring is full instead
    // of stalling for the whole deadline.
    EXPECT_EQ(q.wait_ready(1'000'000, 10s), 4u);
    producer.join();
}

TEST(UpdateQueue, ConcurrentProducersLoseNothingAndKeepPerProducerOrder) {
    constexpr int kProducers = 4;
    constexpr index_t kOpsEach = 2'000;
    UpdateQueue<double> q(64, kN, kN);  // much smaller than the traffic: backpressure
    for (int prod = 0; prod < kProducers; ++prod) q.register_producer();

    std::vector<std::thread> producers;
    for (int prod = 0; prod < kProducers; ++prod) {
        producers.emplace_back([&, prod] {
            for (index_t k = 0; k < kOpsEach; ++k)
                ASSERT_TRUE(q.push(op(static_cast<index_t>(prod), k)));
            q.producer_done();
        });
    }

    // Single consumer drains until the queue is exhausted.
    std::vector<StreamOp<double>> out;
    while (!q.exhausted()) {
        q.wait_ready(32, 5ms);
        q.drain(out);
    }
    for (auto& t : producers) t.join();

    ASSERT_EQ(out.size(), static_cast<std::size_t>(kProducers) * kOpsEach);
    // Each producer's ops appear as an in-order subsequence.
    std::vector<index_t> next_seq(kProducers, 0);
    for (const auto& o : out) {
        const auto prod = static_cast<std::size_t>(o.tuple.row);
        ASSERT_LT(prod, static_cast<std::size_t>(kProducers));
        EXPECT_EQ(o.tuple.col, next_seq[prod]);
        ++next_seq[prod];
    }
    for (int prod = 0; prod < kProducers; ++prod)
        EXPECT_EQ(next_seq[static_cast<std::size_t>(prod)], kOpsEach);
}

}  // namespace
