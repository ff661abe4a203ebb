// Discrete-event simulation kernel. A Simulator owns a time-ordered event
// queue and the root coroutine processes spawned onto it. All randomness and
// ordering is deterministic: ties in time are broken by insertion sequence.
#ifndef SDPS_DES_SIMULATOR_H_
#define SDPS_DES_SIMULATOR_H_

#include <coroutine>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/time_util.h"
#include "des/event_fn.h"
#include "des/task.h"
#include "des/time_source.h"

namespace sdps::des {

/// The simulation executor. Not thread-safe: a simulation runs on one
/// thread (parallelism inside the simulated world is modelled, not real;
/// real parallelism runs whole Simulators side by side — see sdps::exec).
///
/// Events live in a two-tier queue. Callbacks (small-buffer-optimized
/// des::EventFn) sit in a free-list slab and are written exactly once;
/// scheduling a callback with a small trivially-copyable capture never
/// touches the allocator.
///  * A timing wheel of kWheelSpan one-microsecond buckets holds every
///    event due before now() + kWheelSpan. A bucket is a FIFO of slab
///    slots linked through the slots themselves; a two-level occupancy
///    bitmap finds the next non-empty bucket with two count-trailing-zeros.
///  * An indexed 4-ary min-heap on a packed (time, seq) key holds the rest
///    (the overflow tier, a few percent of events in the engine models).
/// Extraction order is exactly (time, seq). Wheel entries always lie in
/// [now(), now() + kWheelSpan), so a bucket holds one time and its FIFO is
/// insertion order. An overflow event at time t was pushed while
/// now() <= t - kWheelSpan, before any wheel event at t, so when both
/// tiers hold time t the overflow event runs first; neither tier ever
/// migrates into the other.
class Simulator final : public TimeSource {
 public:
  /// Timing-wheel span in microseconds (one bucket each). A power of two
  /// covering the engine models' delays: >99.9% of paper_b1's pushes are
  /// under 4096 us; later events go to the overflow heap.
  static constexpr SimTime kWheelSpan = 4096;

  Simulator() = default;
  ~Simulator() override;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time (microseconds since simulation start).
  /// Overrides des::TimeSource; `final` keeps calls through a concrete
  /// Simulator& devirtualized, so the event hot loop is unchanged.
  SimTime now() const final { return now_; }

  /// Schedules a callback at absolute simulated time `t` (>= now()).
  /// Accepts any void() callable by forwarding reference; small
  /// trivially-copyable captures are stored inline in the event.
  template <typename F>
  void ScheduleAt(SimTime t, F&& fn) {
    SDPS_CHECK_GE(t, now_);
    Push(t, EventFn(std::forward<F>(fn)));
  }

  /// Schedules a callback `delay` microseconds from now.
  template <typename F>
  void ScheduleAfter(SimTime delay, F&& fn) {
    ScheduleAt(now_ + delay, std::forward<F>(fn));
  }

  /// Schedules a coroutine resumption (hot path: the handle is an 8-byte
  /// inline capture; no allocation).
  void ScheduleResumeAt(SimTime t, std::coroutine_handle<> h) {
    SDPS_CHECK_GE(t, now_);
    Push(t, EventFn([h] { h.resume(); }));
  }
  void ScheduleResumeAfter(SimTime delay, std::coroutine_handle<> h) {
    ScheduleResumeAt(now_ + delay, h);
  }

  /// Starts a root process. The simulator owns the coroutine frame; frames
  /// still suspended when the simulator is destroyed are destroyed with it.
  void Spawn(Task<> task);

  /// Executes the next pending event. Returns false when none remain.
  bool Step() { return StepUntil(INT64_MAX); }

  /// Runs until no event is pending or Stop() is called.
  void RunUntilIdle();

  /// Processes all events with time <= t, then advances now() to t.
  void RunUntil(SimTime t);

  /// Convenience: RunUntil(now() + d).
  void RunFor(SimTime d) { RunUntil(now_ + d); }

  /// Makes the current Run* call return after the in-flight event.
  void Stop() { stop_requested_ = true; }
  bool stop_requested() const { return stop_requested_; }

  /// Total events executed so far (kernel benchmarking / diagnostics).
  uint64_t processed_events() const { return processed_events_; }
  size_t pending_events() const { return wheel_events_ + overflow_.size(); }

 private:
  static constexpr uint32_t kWheelMask = kWheelSpan - 1;
  static constexpr uint32_t kWordBits = 64;
  static constexpr uint32_t kWheelWords = kWheelSpan / kWordBits;
  static_assert(kWheelWords == kWordBits, "summary bitmap is one word");
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  /// Slab capacity reserved on the first push (16 KB), so set-up, which
  /// spawns every process, does not regrow the slab slot by slot.
  static constexpr size_t kInitialSlots = 256;

  /// Overflow-heap key: time in the high 64 bits, insertion seq in the low
  /// 64, so a single unsigned 128-bit compare is exactly (time, seq)
  /// lexicographic order. Valid because simulated time is never negative.
  using EventKey = unsigned __int128;
  static EventKey MakeKey(SimTime t, uint64_t seq) {
    return (static_cast<EventKey>(static_cast<uint64_t>(t)) << 64) | seq;
  }
  static SimTime KeyTime(EventKey k) {
    return static_cast<SimTime>(static_cast<uint64_t>(k >> 64));
  }

  struct HeapEntry {
    EventKey key;
    uint32_t slot;  // index into slots_
  };

  /// A slab entry. `next` links a pending wheel event to the one after it
  /// in its bucket (kNoSlot at the bucket's tail) and a free slot to the
  /// next free one.
  struct Slot {
    EventFn fn;
    uint32_t next;
  };

  struct Bucket {
    uint32_t head;
    uint32_t tail;
  };

  void Push(SimTime t, EventFn fn);
  /// Runs the earliest pending event if its time is <= limit; returns
  /// false (and runs nothing) otherwise or when no event is pending.
  bool StepUntil(SimTime limit);
  /// Microseconds from now() to the earliest non-empty bucket. Requires a
  /// non-empty wheel.
  uint32_t NextWheelDelay() const;
  void PushBucket(uint32_t bucket, uint32_t slot);
  uint32_t PopBucket(uint32_t bucket);
  void PushOverflow(SimTime t, uint32_t slot);
  uint32_t PopOverflow();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_events_ = 0;
  size_t wheel_events_ = 0;
  bool stop_requested_ = false;
  uint64_t summary_ = 0;                 // bit w: occupied_[w] != 0
  uint64_t occupied_[kWheelWords] = {};  // bit b: bucket b non-empty
  // Each bucket's FIFO ends; read only while the bucket's occupancy bit is
  // set, so they are never initialised.
  std::unique_ptr<Bucket[]> buckets_{new Bucket[kWheelSpan]};
  std::vector<HeapEntry> overflow_;  // 4-ary min-heap on key; root at 0
  std::vector<Slot> slots_;          // callback slab
  uint32_t free_head_ = kNoSlot;     // free-slot list through Slot::next
  std::vector<std::coroutine_handle<>> roots_;
};

/// Awaitable that suspends the current coroutine for `delay` simulated
/// microseconds: `co_await Delay(sim, Seconds(1));`
class Delay {
 public:
  Delay(Simulator& sim, SimTime delay) : sim_(sim), delay_(delay) {
    SDPS_CHECK_GE(delay, 0);
  }
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) { sim_.ScheduleResumeAfter(delay_, h); }
  void await_resume() const noexcept {}

 private:
  Simulator& sim_;
  SimTime delay_;
};

}  // namespace sdps::des

#endif  // SDPS_DES_SIMULATOR_H_
