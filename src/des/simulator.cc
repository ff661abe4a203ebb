#include "des/simulator.h"

#include <algorithm>
#include <bit>

namespace sdps::des {

namespace {
constexpr size_t kArity = 4;
}

Simulator::~Simulator() {
  // Drop pending events without running them, then destroy root frames
  // (finished frames park at final suspend; suspended ones cascade-destroy
  // their child frames). Wait-lists in channels/resources never touch
  // handles during their own destruction, so dangling entries are inert.
  overflow_.clear();
  slots_.clear();
  for (auto it = roots_.rbegin(); it != roots_.rend(); ++it) {
    if (*it) it->destroy();
  }
}

void Simulator::Spawn(Task<> task) {
  std::coroutine_handle<> h = task.release();
  roots_.push_back(h);
  h.resume();  // run until first suspension
}

void Simulator::Push(SimTime t, EventFn fn) {
  uint32_t slot;
  if (free_head_ != kNoSlot) {
    slot = free_head_;
    free_head_ = slots_[slot].next;
    slots_[slot].fn = std::move(fn);
  } else {
    if (slots_.empty()) slots_.reserve(kInitialSlots);
    slot = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{std::move(fn), kNoSlot});
  }
  if (t - now_ < kWheelSpan) {
    PushBucket(static_cast<uint32_t>(t) & kWheelMask, slot);
  } else {
    PushOverflow(t, slot);
  }
}

void Simulator::PushBucket(uint32_t bucket, uint32_t slot) {
  ++wheel_events_;
  slots_[slot].next = kNoSlot;
  uint64_t& word = occupied_[bucket / kWordBits];
  const uint64_t bit = uint64_t{1} << (bucket % kWordBits);
  Bucket& b = buckets_[bucket];
  if (word & bit) {
    slots_[b.tail].next = slot;
  } else {
    b.head = slot;
    word |= bit;
    summary_ |= uint64_t{1} << (bucket / kWordBits);
  }
  b.tail = slot;
}

uint32_t Simulator::PopBucket(uint32_t bucket) {
  --wheel_events_;
  Bucket& b = buckets_[bucket];
  const uint32_t head = b.head;
  b.head = slots_[head].next;
  if (b.head == kNoSlot) {
    uint64_t& word = occupied_[bucket / kWordBits];
    word &= ~(uint64_t{1} << (bucket % kWordBits));
    if (word == 0) summary_ &= ~(uint64_t{1} << (bucket / kWordBits));
  }
  return head;
}

uint32_t Simulator::NextWheelDelay() const {
  const uint32_t cur = static_cast<uint32_t>(now_) & kWheelMask;
  const uint32_t w = cur / kWordBits;
  const uint64_t here = occupied_[w] >> (cur % kWordBits);
  if (here != 0) return static_cast<uint32_t>(std::countr_zero(here));
  // First occupied word after w in circular order. Rotating puts word w+1
  // at bit 0 and word w itself at bit 63, so when only w's buckets below
  // `cur` are occupied the search lands back on w, one lap ahead.
  const uint64_t later = std::rotr(summary_, static_cast<int>((w + 1) % kWordBits));
  const uint32_t w2 = (w + 1 + static_cast<uint32_t>(std::countr_zero(later))) % kWordBits;
  const uint32_t bucket =
      w2 * kWordBits + static_cast<uint32_t>(std::countr_zero(occupied_[w2]));
  return (bucket - cur) & kWheelMask;
}

void Simulator::PushOverflow(SimTime t, uint32_t slot) {
  const EventKey key = MakeKey(t, next_seq_++);
  // Sift up with a hole: parents slide down into the hole until the new
  // key's level is found, so each entry is written exactly once.
  size_t i = overflow_.size();
  overflow_.emplace_back();
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (overflow_[parent].key <= key) break;
    overflow_[i] = overflow_[parent];
    i = parent;
  }
  overflow_[i] = HeapEntry{key, slot};
}

uint32_t Simulator::PopOverflow() {
  const uint32_t top = overflow_.front().slot;
  const HeapEntry last = overflow_.back();
  overflow_.pop_back();
  const size_t n = overflow_.size();
  if (n > 0) {
    // Sift the displaced last entry down with a hole at the root.
    size_t i = 0;
    for (;;) {
      const size_t first_child = i * kArity + 1;
      if (first_child >= n) break;
      size_t best = first_child;
      EventKey best_key = overflow_[first_child].key;
      const size_t end = std::min(first_child + kArity, n);
      for (size_t c = first_child + 1; c < end; ++c) {
        const EventKey ck = overflow_[c].key;
        if (ck < best_key) {
          best = c;
          best_key = ck;
        }
      }
      if (best_key >= last.key) break;
      overflow_[i] = overflow_[best];
      i = best;
    }
    overflow_[i] = last;
  }
  return top;
}

bool Simulator::StepUntil(SimTime limit) {
  if (wheel_events_ == 0 && overflow_.empty()) return false;
  SimTime t = wheel_events_ != 0 ? now_ + NextWheelDelay() : INT64_MAX;
  // Same time in both tiers: the overflow event was pushed first.
  const bool overflow_first = !overflow_.empty() && KeyTime(overflow_.front().key) <= t;
  if (overflow_first) t = KeyTime(overflow_.front().key);
  if (t > limit) return false;
  const uint32_t slot =
      overflow_first ? PopOverflow() : PopBucket(static_cast<uint32_t>(t) & kWheelMask);
  now_ = t;
  ++processed_events_;
  // Move the callback out and recycle its slot before running it: the
  // callback may schedule events, which may grow (and move) the slab.
  EventFn fn = std::move(slots_[slot].fn);
  slots_[slot].next = free_head_;
  free_head_ = slot;
  fn();
  return true;
}

void Simulator::RunUntilIdle() {
  stop_requested_ = false;
  while (!stop_requested_ && Step()) {
  }
}

void Simulator::RunUntil(SimTime t) {
  SDPS_CHECK_GE(t, now_);
  stop_requested_ = false;
  while (!stop_requested_ && StepUntil(t)) {
  }
  if (!stop_requested_) now_ = t;
}

}  // namespace sdps::des
