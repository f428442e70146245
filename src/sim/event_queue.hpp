#pragma once

#include <bit>
#include <cassert>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

/// \file event_queue.hpp
/// `SlotQueue`, the slot-batched bucket queue that drives the dynamic
/// simulator's discrete-event loop.

namespace optdm::sim {

/// `SlotQueue` — an event queue for producers whose clock never moves
/// backwards and whose payloads carry **no** time or sequence field of
/// their own.
///
/// The dynamic-protocol simulator's event times are slot numbers on a
/// bounded horizon, every event is scheduled at `now + delta` with
/// `delta >= 0`, almost every push lands within a few slots of `now`
/// (control hops, local processing), and pushes within one slot already
/// happen in the exact order pops must replay them.  That is the shape a
/// calendar queue exploits:
///
///  * a **ring of buckets**, one per slot, covering the window
///    `[cursor, cursor + R)` — push appends to bucket `time & (R-1)`;
///    each bucket is a plain `std::vector<Payload>` drained front to
///    back, so **append order is pop order within a slot** and payloads
///    carry no 8-byte `seq` and no 8-byte `time`;
///  * a **non-empty bitmap** over the ring so advancing the cursor across
///    empty slots scans 64 slots per word instead of one per step;
///  * an **overflow heap** (`(time, seq)`-keyed) for the rare event
///    scheduled beyond the window (long payload completions, capped
///    backoffs).  The migration invariant is that every payload with
///    `time < cursor + R` lives in the ring; whenever the cursor
///    advances, far payloads entering the window migrate into their
///    buckets.
///
/// The cursor advances once per *slot*, not once per event: the bitmap
/// scan, the migration check and the bucket retirement all amortize over
/// every event sharing the slot.
///
/// **Ordering contract.**  `poll` returns payloads in exactly the order a
/// `(time, push-index)` heap would: within a bucket direct pushes append
/// in push order; an overflow event for slot `t` migrates at the cursor
/// advance that first makes `t < cursor + R`, which happens before any
/// direct push could target `t` (a direct push requires that same window
/// condition, and pushes only happen while dispatching — after the poll
/// that advanced the cursor); and migration drains the overflow heap in
/// `(time, seq)` order.  Hence every bucket holds its payloads in push
/// order, and cyclic bitmap scanning from the cursor index visits bucket
/// times in increasing order.
///
/// Pushing a payload with `time` earlier than the cursor (the last polled
/// slot) is a contract violation, asserted in debug builds: the bucket for
/// that slot may already have been recycled for `time + R`.
template <typename Payload>
class SlotQueue {
 public:
  /// `window` is the ring size in slots, rounded up to a power of two;
  /// payloads scheduled farther ahead ride the overflow heap.
  explicit SlotQueue(std::size_t window = 1024) {
    std::size_t r = 64;
    while (r < window) r <<= 1;
    ring_.resize(r);
    occupied_.assign(r / 64, 0);
    mask_ = r - 1;
  }

  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  void push(std::int64_t time, Payload p) {
    assert(time >= cursor_ && "payload scheduled in the past");
    if (time < cursor_ + window()) {
      const std::size_t index = static_cast<std::size_t>(time) & mask_;
      ring_[index].push_back(std::move(p));
      occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
      ++ring_size_;
    } else {
      far_.push(Far{time, far_seq_++, std::move(p)});
    }
    ++size_;
  }

  /// Pointer to the payload the next `poll` would return, provided it
  /// lies in the slot currently being drained — else nullptr.  Lets the
  /// consumer software-prefetch the next event's state while handling
  /// the current one; invalidated by any push or poll.
  const Payload* peek_same_slot() const {
    const auto& bucket = ring_[static_cast<std::size_t>(cursor_) & mask_];
    return pos_ < bucket.size() ? &bucket[pos_] : nullptr;
  }

  /// Removes the globally next payload into `out` / its slot into `time`;
  /// returns false when the queue is empty.  Payloads pushed to the slot
  /// being drained are returned within the same drain, in push order.
  bool poll(std::int64_t& time, Payload& out) {
    if (size_ == 0) return false;
    auto* bucket = &ring_[static_cast<std::size_t>(cursor_) & mask_];
    if (pos_ >= bucket->size()) {
      retire_and_advance(*bucket);
      bucket = &ring_[static_cast<std::size_t>(cursor_) & mask_];
    }
    time = cursor_;
    out = (*bucket)[pos_++];
    --ring_size_;
    --size_;
    return true;
  }

 private:
  struct Far {
    std::int64_t time = 0;
    std::int64_t seq = 0;  // push-order tie-break among far payloads
    Payload payload{};

    friend bool operator>(const Far& a, const Far& b) {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::int64_t window() const noexcept {
    return static_cast<std::int64_t>(mask_ + 1);
  }

  /// The current slot is fully drained: recycle its bucket (capacity
  /// kept) and move the cursor to the next slot holding work — the next
  /// occupied ring bucket, or the earliest far payload once the ring is
  /// empty — migrating far payloads that the slide brings into window.
  void retire_and_advance(std::vector<Payload>& bucket) {
    bucket.clear();
    const std::size_t start = static_cast<std::size_t>(cursor_) & mask_;
    occupied_[start >> 6] &= ~(std::uint64_t{1} << (start & 63));
    pos_ = 0;
    if (ring_size_ == 0) {
      // Everything pending is far future: jump straight to it.
      cursor_ = far_.top().time;
      migrate_far();
      return;
    }
    // One cyclic bitmap scan from the cursor index visits candidate slots
    // in increasing time order (all ring payloads lie in [cursor,
    // cursor + R)); far payloads can't beat the find — their times are
    // >= cursor + R by the migration invariant.
    const std::size_t words = occupied_.size();
    std::size_t word = start >> 6;
    std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start & 63));
    for (std::size_t scanned = 0;; ++scanned) {
      if (bits != 0) {
        const auto index =
            (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
        cursor_ += static_cast<std::int64_t>((index - start) & mask_);
        migrate_far();
        return;
      }
      assert(scanned < words && "occupied bitmap disagrees with ring_size_");
      word = word + 1 == words ? 0 : word + 1;
      bits = occupied_[word];
    }
  }

  /// Restores the invariant after a cursor advance: every far payload now
  /// inside the window moves to its bucket, in `(time, seq)` order.
  void migrate_far() {
    const std::int64_t end = cursor_ + window();
    while (!far_.empty() && far_.top().time < end) {
      const std::size_t index =
          static_cast<std::size_t>(far_.top().time) & mask_;
      ring_[index].push_back(far_.top().payload);
      occupied_[index >> 6] |= std::uint64_t{1} << (index & 63);
      ++ring_size_;
      far_.pop();
    }
  }

  std::vector<std::vector<Payload>> ring_;
  std::vector<std::uint64_t> occupied_;
  std::size_t mask_ = 0;
  std::size_t pos_ = 0;
  std::int64_t cursor_ = 0;
  std::size_t ring_size_ = 0;
  std::size_t size_ = 0;
  std::int64_t far_seq_ = 0;
  std::priority_queue<Far, std::vector<Far>, std::greater<>> far_;
};

}  // namespace optdm::sim
