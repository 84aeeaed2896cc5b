// The server job queues: RingQueue, the vector-backed circular FIFO of the
// FIFO server, and ClassQueues, the per-class lists over one pooled node
// array of the priority and Fair Queueing servers.
//
// RingQueue's dangerous states are "empty" and especially "never grown":
// the index mask is buf_.size() - 1, which is SIZE_MAX while the buffer is
// empty, so before the checked preconditions front()/pop_front() silently
// indexed garbage and --count_ underflowed to SIZE_MAX. These tests pin the
// checked behavior plus the FIFO contract the server relies on; the
// push_front of a preempted job is ClassQueues'.
#include <gtest/gtest.h>

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/class_queues.hpp"
#include "sim/ring_queue.hpp"

namespace {

using ffc::sim::ClassQueues;
using ffc::sim::RingQueue;

TEST(RingQueue, NeverGrownQueueRejectsFrontAndPop) {
  RingQueue<int> q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.capacity(), 0u);  // the SIZE_MAX-mask state
  EXPECT_THROW(q.front(), std::logic_error);
  EXPECT_THROW(q.pop_front(), std::logic_error);
  const RingQueue<int>& cq = q;
  EXPECT_THROW(cq.front(), std::logic_error);
}

TEST(RingQueue, EmptiedQueueRejectsFrontAndPop) {
  RingQueue<int> q;
  q.push_back(7);
  q.pop_front();
  ASSERT_TRUE(q.empty());
  ASSERT_GT(q.capacity(), 0u);  // grown, then drained: the other empty state
  EXPECT_THROW(q.front(), std::logic_error);
  EXPECT_THROW(q.pop_front(), std::logic_error);
  // The failed pop must not have corrupted the count.
  q.push_back(9);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.front(), 9);
}

TEST(RingQueue, PopOnEmptyDoesNotUnderflowCount) {
  RingQueue<int> q;
  EXPECT_THROW(q.pop_front(), std::logic_error);
  EXPECT_EQ(q.size(), 0u);  // not SIZE_MAX
  EXPECT_TRUE(q.empty());
  q.push_back(1);
  EXPECT_EQ(q.size(), 1u);
}

TEST(RingQueue, FifoOrderAcrossGrowthAndWraparound) {
  RingQueue<int> q;
  // Cycle enough pushes/pops that head_ wraps the (power-of-two) buffer.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 13; ++i) q.push_back(round * 100 + i);
    for (int i = 0; i < 13; ++i) {
      EXPECT_EQ(q.front(), round * 100 + i);
      q.pop_front();
    }
    EXPECT_TRUE(q.empty());
  }
}

TEST(RingQueue, ClearOnEmptyIsANoOp) {
  RingQueue<std::string> q;
  q.clear();
  EXPECT_TRUE(q.empty());
  q.push_back("a");
  q.push_back("b");
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_THROW(q.front(), std::logic_error);
}

TEST(RingQueue, ReserveKeepsContentsAndOrder) {
  RingQueue<int> q;
  for (int i = 0; i < 5; ++i) q.push_back(i);
  q.pop_front();
  q.pop_front();           // head_ != 0, so reserve must re-linearize
  q.reserve(64);
  EXPECT_GE(q.capacity(), 64u);
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(q.front(), i);
    q.pop_front();
  }
  EXPECT_TRUE(q.empty());
}

TEST(ClassQueues, EmptyClassRejectsFrontAndPop) {
  ClassQueues<int> q(3);
  EXPECT_THROW(q.front(1), std::logic_error);
  EXPECT_THROW(q.pop_front(1), std::logic_error);
  q.push_back(1, 7);
  EXPECT_EQ(q.pop_front(1), 7);
  EXPECT_TRUE(q.empty(1));
  EXPECT_THROW(q.front(1), std::logic_error);
  EXPECT_THROW(q.pop_front(1), std::logic_error);
}

TEST(ClassQueues, FifoWithinEachClassAndPushFrontToTheHead) {
  ClassQueues<int> q(4);
  for (int i = 0; i < 5; ++i) {
    q.push_back(2, 20 + i);
    q.push_back(0, i);
  }
  q.push_front(2, 19);  // a preempted job returns to the head of its class
  q.push_front(3, 30);  // push_front into an empty class is its only job
  EXPECT_EQ(q.front(3), 30);
  EXPECT_EQ(q.pop_front(3), 30);
  EXPECT_TRUE(q.empty(3));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.pop_front(0), i);
  for (int i = 19; i < 25; ++i) EXPECT_EQ(q.pop_front(2), i);
  EXPECT_TRUE(q.empty(0));
  EXPECT_TRUE(q.empty(2));
  // After draining, a push_back lands in an empty class again.
  q.push_back(2, 99);
  q.push_back(2, 100);
  EXPECT_EQ(q.pop_front(2), 99);
  EXPECT_EQ(q.pop_front(2), 100);
}

TEST(ClassQueues, NextNonemptyWalksTheBitmapAcrossWords) {
  ClassQueues<int> q(200);
  EXPECT_EQ(q.next_nonempty(0), ClassQueues<int>::npos);
  for (std::size_t k : {199u, 3u, 64u, 63u, 128u}) {
    q.push_back(k, static_cast<int>(k));
  }
  std::vector<std::size_t> walked;
  for (std::size_t k = q.next_nonempty(0); k != ClassQueues<int>::npos;
       k = q.next_nonempty(k + 1)) {
    walked.push_back(k);
  }
  EXPECT_EQ(walked, (std::vector<std::size_t>{3, 63, 64, 128, 199}));
  EXPECT_EQ(q.next_nonempty(65), 128u);
  EXPECT_EQ(q.next_nonempty(200), ClassQueues<int>::npos);
  q.pop_front(3);
  q.push_front(64, -1);  // already non-empty: the bit stays set
  EXPECT_EQ(q.next_nonempty(0), 63u);
  q.pop_front(63);
  EXPECT_EQ(q.next_nonempty(0), 64u);
}

TEST(ClassQueues, PoolGrowsOnlyToTheLargestTotalBacklog) {
  // Nodes go back to one free list and are reused by any class, so cycling
  // jobs through many classes never grows the pool past the backlog.
  ClassQueues<int> q(100);
  for (int k = 0; k < 10; ++k) q.push_back(static_cast<std::size_t>(k), k);
  EXPECT_EQ(q.pool_size(), 10u);
  for (int round = 0; round < 1000; ++round) {
    const std::size_t from = static_cast<std::size_t>(round % 100);
    const std::size_t first = q.next_nonempty(from) != ClassQueues<int>::npos
                                  ? q.next_nonempty(from)
                                  : q.next_nonempty(0);
    const int job = q.pop_front(first);
    q.push_back(static_cast<std::size_t>((round * 37) % 100), job);
  }
  EXPECT_EQ(q.pool_size(), 10u);
  int total = 0;
  for (std::size_t k = q.next_nonempty(0); k != ClassQueues<int>::npos;
       k = q.next_nonempty(k)) {
    total += q.pop_front(k);
  }
  EXPECT_EQ(total, 45);  // every job survived the cycling
}

}  // namespace
