// Tests for sim::SlotQueue, the slot-indexed event queue behind the
// dynamic-protocol simulator: it keys payloads by slot and replays push
// order within a slot.  The load-bearing property is the ordering
// contract: polls come out globally ordered by (time, push-order),
// byte-identical to a binary heap over the same comparison, for any
// push sequence with monotonically non-decreasing scheduling times.

#include <gtest/gtest.h>

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"

namespace {

using namespace optdm;

/// Reference-heap entry: the (time, push-order) key a SlotQueue never
/// stores.
struct Event {
  std::int64_t time = 0;
  std::int64_t seq = 0;

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Drives a SlotQueue and a reference heap through the same
/// simulator-shaped schedule: each step polls the earliest payload (the
/// simulation clock) and pushes a few new payloads at `now + delta`.
/// The payload is the push ordinal, so matching the heap's (time, seq)
/// pop sequence proves the queue reconstructs the FIFO tie-break it
/// never stored.
void run_slot_equivalence(std::size_t window, std::int64_t max_delta,
                          int pushes_per_pop, std::uint64_t seed) {
  sim::SlotQueue<int> queue(window);
  std::priority_queue<Event, std::vector<Event>, std::greater<>> reference;
  util::Rng rng(seed);
  std::int64_t seq = 0;

  const auto push_at = [&](std::int64_t time) {
    queue.push(time, static_cast<int>(seq));
    reference.push(Event{time, seq});
    ++seq;
  };

  for (int i = 0; i < 16; ++i) push_at(rng.uniform(0, max_delta));

  std::int64_t now = 0;
  int drained = 0;
  while (!reference.empty()) {
    ASSERT_EQ(queue.size(), reference.size());
    const Event expected = reference.top();
    reference.pop();
    std::int64_t time = -1;
    int payload = -1;
    ASSERT_TRUE(queue.poll(time, payload));
    ASSERT_EQ(time, expected.time);
    ASSERT_EQ(payload, static_cast<int>(expected.seq));
    ASSERT_GE(time, now) << "time went backwards";
    now = time;
    if (++drained < 3000)
      for (int p = 0; p < pushes_per_pop; ++p)
        push_at(now + rng.uniform(0, max_delta));
  }
  EXPECT_TRUE(queue.empty());
  std::int64_t time = 0;
  int payload = 0;
  EXPECT_FALSE(queue.poll(time, payload));
}

TEST(SlotQueue, MatchesHeapWithinTheRingWindow) {
  run_slot_equivalence(/*window=*/1024, /*max_delta=*/1000,
                       /*pushes_per_pop=*/2, /*seed=*/11);
}

TEST(SlotQueue, MatchesHeapAcrossFarMigration) {
  // Deltas up to 20x the ring size: most pushes land in the far-future
  // heap and must migrate into the ring before their slot drains.
  run_slot_equivalence(/*window=*/64, /*max_delta=*/1280,
                       /*pushes_per_pop=*/2, /*seed=*/12);
}

TEST(SlotQueue, MatchesHeapUnderHeavySlotCollisions) {
  run_slot_equivalence(/*window=*/256, /*max_delta=*/3,
                       /*pushes_per_pop=*/3, /*seed=*/13);
}

TEST(SlotQueue, FifoWithinOneSlot) {
  sim::SlotQueue<int> queue(64);
  for (int i = 0; i < 100; ++i) queue.push(5, i);
  for (int i = 0; i < 100; ++i) {
    std::int64_t time = -1;
    int payload = -1;
    ASSERT_TRUE(queue.poll(time, payload));
    EXPECT_EQ(time, 5);
    EXPECT_EQ(payload, i);
  }
  EXPECT_TRUE(queue.empty());
}

TEST(SlotQueue, JumpsAcrossAnEmptyHorizon) {
  sim::SlotQueue<int> queue(64);
  queue.push(0, 0);
  queue.push(1'000'000, 1);
  queue.push(1'000'000, 2);
  queue.push(50'000'000, 3);
  std::int64_t time = -1;
  int payload = -1;
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(time, 0);
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(payload, 1);
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(payload, 2);
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(time, 50'000'000);
  EXPECT_TRUE(queue.empty());
}

TEST(SlotQueue, PeekSeesTheRestOfTheCurrentSlot) {
  // peek_same_slot is the run loop's prefetch hook: after a poll it must
  // expose the next payload of the *same* slot, and nothing once the
  // slot is drained (even when later slots still hold events).
  sim::SlotQueue<int> queue(64);
  queue.push(3, 10);
  queue.push(3, 11);
  queue.push(7, 12);
  std::int64_t time = -1;
  int payload = -1;
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(payload, 10);
  const int* next = queue.peek_same_slot();
  ASSERT_NE(next, nullptr);
  EXPECT_EQ(*next, 11);
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(payload, 11);
  EXPECT_EQ(queue.peek_same_slot(), nullptr);  // slot 3 exhausted
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(time, 7);
  EXPECT_EQ(payload, 12);
}

TEST(SlotQueue, ReusesBucketsAcrossLaps) {
  sim::SlotQueue<int> queue(64);
  std::int64_t now = 0;
  std::int64_t time = -1;
  int payload = -1;
  for (int lap = 0; lap < 100; ++lap) {
    queue.push(now, lap);
    queue.push(now + 63, lap);
    ASSERT_TRUE(queue.poll(time, payload));
    EXPECT_EQ(time, now);
    ASSERT_TRUE(queue.poll(time, payload));
    EXPECT_EQ(time, now + 63);
    EXPECT_TRUE(queue.empty());
    now += 64;  // next lap lands on the same bucket indices
    queue.push(now, lap);
    ASSERT_TRUE(queue.poll(time, payload));
    EXPECT_EQ(time, now);
  }
}

TEST(SlotQueue, SizeAndEmptyTrackContents) {
  sim::SlotQueue<int> queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  queue.push(0, 0);
  queue.push(2000, 1);  // far-future for the default window
  EXPECT_FALSE(queue.empty());
  EXPECT_EQ(queue.size(), 2u);
  std::int64_t time = -1;
  int payload = -1;
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_EQ(queue.size(), 1u);
  ASSERT_TRUE(queue.poll(time, payload));
  EXPECT_TRUE(queue.empty());
}

}  // namespace
