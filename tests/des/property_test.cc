// Property-based tests for the DES kernel: randomized channel workloads
// checked against invariants, whole-simulation determinism, and the event
// queue's exact (time, seq) firing order against a reference queue.
#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "des/channel.h"
#include "des/resource.h"
#include "des/simulator.h"
#include "des/task.h"

namespace sdps::des {
namespace {

struct ChannelRunStats {
  std::vector<int> received;
  int send_failures = 0;
};

Task<> RandomProducer(Simulator& sim, Channel<int>& ch, Rng rng, int n, int base,
                      ChannelRunStats& stats) {
  for (int i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.3) {
      co_await Delay(sim, static_cast<SimTime>(rng.NextBelow(50)));
    }
    if (!co_await ch.Send(base + i)) {
      ++stats.send_failures;
      co_return;
    }
  }
}

Task<> RandomConsumer(Simulator& sim, Channel<int>& ch, Rng rng,
                      ChannelRunStats& stats) {
  for (;;) {
    auto v = co_await ch.Recv();
    if (!v) co_return;
    stats.received.push_back(*v);
    if (rng.NextDouble() < 0.2) {
      co_await Delay(sim, static_cast<SimTime>(rng.NextBelow(30)));
    }
  }
}

class ChannelPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ChannelPropertyTest, NoLossNoDuplicationUnderRandomTiming) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  Rng rng(seed);
  const int producers = 1 + static_cast<int>(rng.NextBelow(4));
  const int consumers = 1 + static_cast<int>(rng.NextBelow(4));
  const int per_producer = 200;
  const size_t capacity = 1 + rng.NextBelow(16);

  Simulator sim;
  Channel<int> ch(sim, capacity);
  ChannelRunStats stats;
  for (int p = 0; p < producers; ++p) {
    sim.Spawn(RandomProducer(sim, ch, rng.Fork(), per_producer, p * per_producer,
                             stats));
  }
  for (int c = 0; c < consumers; ++c) {
    sim.Spawn(RandomConsumer(sim, ch, rng.Fork(), stats));
  }
  // Close long after all sends complete.
  sim.Spawn([](Simulator& s, Channel<int>& c) -> Task<> {
    co_await Delay(s, Seconds(100));
    c.Close();
  }(sim, ch));
  sim.RunUntilIdle();

  ASSERT_EQ(stats.send_failures, 0);
  // Every value delivered exactly once.
  std::vector<int> got = stats.received;
  std::sort(got.begin(), got.end());
  ASSERT_EQ(got.size(), static_cast<size_t>(producers * per_producer));
  for (int i = 0; i < producers * per_producer; ++i) ASSERT_EQ(got[static_cast<size_t>(i)], i);
  // Channel fully drained and quiescent.
  EXPECT_EQ(ch.size(), 0u);
  EXPECT_EQ(ch.pending_senders(), 0u);
  EXPECT_EQ(ch.pending_receivers(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelPropertyTest, ::testing::Range(1, 9));

Task<> BusyProcess(Simulator& sim, Resource& res, Channel<int>& ch, Rng rng,
                   std::vector<int64_t>& trace, int id) {
  for (int i = 0; i < 50; ++i) {
    co_await res.Use(static_cast<SimTime>(1 + rng.NextBelow(20)));
    co_await ch.Send(id * 1000 + i);
    trace.push_back(sim.now() * 131 + id);
    if (rng.NextDouble() < 0.5) {
      co_await Delay(sim, static_cast<SimTime>(rng.NextBelow(10)));
    }
  }
}

TEST(SimulatorPropertyTest, FullWorkloadIsDeterministic) {
  auto run = [](uint64_t seed) {
    Simulator sim;
    Resource res(sim, 3);
    Channel<int> ch(sim, 8);
    Rng rng(seed);
    std::vector<int64_t> trace;
    std::vector<int> sink;
    for (int p = 0; p < 6; ++p) {
      sim.Spawn(BusyProcess(sim, res, ch, rng.Fork(), trace, p));
    }
    sim.Spawn([](Simulator&, Channel<int>& c, std::vector<int>& out) -> Task<> {
      for (;;) {
        auto v = co_await c.Recv();
        if (!v) co_return;
        out.push_back(*v);
      }
    }(sim, ch, sink));
    sim.Spawn([](Simulator& s, Channel<int>& c) -> Task<> {
      co_await Delay(s, Seconds(10));
      c.Close();
    }(sim, ch));
    sim.RunUntilIdle();
    int64_t digest = static_cast<int64_t>(sim.processed_events());
    digest = std::accumulate(trace.begin(), trace.end(), digest);
    digest = std::accumulate(sink.begin(), sink.end(), digest);
    return digest;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_EQ(run(8), run(8));
  EXPECT_NE(run(7), run(9));  // and seeds actually matter
}

TEST(SimulatorPropertyTest, HeavyEventLoadOrdering) {
  Simulator sim;
  Rng rng(21);
  std::vector<SimTime> fire_times;
  for (int i = 0; i < 20000; ++i) {
    const auto t = static_cast<SimTime>(rng.NextBelow(100000));
    sim.ScheduleAt(t, [&fire_times, &sim] { fire_times.push_back(sim.now()); });
  }
  sim.RunUntilIdle();
  ASSERT_EQ(fire_times.size(), 20000u);
  EXPECT_TRUE(std::is_sorted(fire_times.begin(), fire_times.end()));
}

// Random schedules checked event by event against a reference
// (time, insertion seq) priority queue. Delays mix zero, same-microsecond
// bursts, the wheel's bulk, values just below / at / above the wheel span,
// far events of seconds, and absolute "hot" times reused across tiers (an
// event pushed far ahead into the overflow heap meets later wheel pushes
// at the same microsecond). Callbacks push children; the driver mixes
// Step, RunUntil bounds that cut a microsecond's events, and Stop() inside
// a run.
class EventOrderHarness {
 public:
  explicit EventOrderHarness(uint64_t seed) : rng_(seed) {}

  void Run() {
    for (int i = 0; i < 64; ++i) Schedule(DrawTime());
    for (int round = 0; round < 3000 && !::testing::Test::HasFatalFailure(); ++round) {
      switch (rng_.NextBelow(8)) {
        case 0:
        case 1:
        case 2:
          StepOnce();
          break;
        case 3:
        case 4:
          RunUntilBound();
          break;
        case 5:
          ArmStop();
          RunUntilBound();
          break;
        case 6:
          ArmStop();
          RunToIdleOrStop();
          break;
        default:
          for (uint64_t k = rng_.NextBelow(4); k > 0; --k) Schedule(DrawTime());
          break;
      }
      ASSERT_EQ(sim_.pending_events(), ref_.size());
    }
    stop_countdown_ = 0;
    budget_ = 0;
    sim_.RunUntilIdle();
    EXPECT_TRUE(ref_.empty());
    EXPECT_EQ(sim_.pending_events(), 0u);
    EXPECT_EQ(sim_.processed_events(), fired_);
    EXPECT_GT(fired_, 10000u);
  }

 private:
  // (time, insertion seq, event id), smallest first.
  using Entry = std::tuple<SimTime, uint64_t, uint64_t>;

  SimTime DrawTime() {
    constexpr SimTime kSpan = Simulator::kWheelSpan;
    const SimTime now = sim_.now();
    SimTime t = now;
    switch (rng_.NextBelow(10)) {
      case 0:
      case 1:
        break;  // zero delay
      case 2:
        t += static_cast<SimTime>(rng_.NextBelow(3));  // same/next microsecond
        break;
      case 3:
      case 4:
      case 5:
        t += 200 + static_cast<SimTime>(rng_.NextBelow(900));
        break;
      case 6:
        t += kSpan - 2 + static_cast<SimTime>(rng_.NextBelow(5));  // span -2..+2
        break;
      case 7:
        t += static_cast<SimTime>(rng_.NextBelow(3 * kSpan));
        break;
      case 8:
        t += Seconds(1) + static_cast<SimTime>(rng_.NextBelow(Seconds(4)));
        break;
      default:
        if (!hot_.empty()) t = std::max(now, hot_[rng_.NextBelow(hot_.size())]);
        break;
    }
    if (rng_.NextBelow(8) == 0) {
      if (hot_.size() < 16) {
        hot_.push_back(t);
      } else {
        hot_[rng_.NextBelow(hot_.size())] = t;
      }
    }
    return t;
  }

  void Schedule(SimTime t) {
    const uint64_t id = next_id_++;
    ref_.emplace(t, next_seq_++, id);
    sim_.ScheduleAt(t, [this, id] { Fire(id); });
  }

  void Fire(uint64_t id) {
    ASSERT_FALSE(ref_.empty());
    const auto [t, seq, want] = ref_.top();
    ref_.pop();
    ASSERT_EQ(id, want) << "at t=" << t;
    ASSERT_EQ(sim_.now(), t);
    ASSERT_EQ(sim_.pending_events(), ref_.size());
    ++fired_;
    last_fired_ = t;
    if (budget_ > 0) {
      for (uint64_t k = rng_.NextBelow(3); k > 0; --k, --budget_) Schedule(DrawTime());
    }
    if (stop_countdown_ > 0 && --stop_countdown_ == 0) sim_.Stop();
  }

  void StepOnce() {
    const bool had_events = !ref_.empty();
    ASSERT_EQ(sim_.Step(), had_events);
  }

  void ArmStop() { stop_countdown_ = 1 + static_cast<int>(rng_.NextBelow(40)); }

  // A bound at, just below or just after the next pending time (cutting
  // that microsecond's events off from the next), or a random jump.
  void RunUntilBound() {
    SimTime bound = sim_.now() + static_cast<SimTime>(rng_.NextBelow(Seconds(2)));
    if (!ref_.empty() && rng_.NextBelow(2) == 0) {
      bound = std::max(sim_.now(),
                       std::get<0>(ref_.top()) + static_cast<SimTime>(rng_.NextBelow(3)) - 1);
    }
    sim_.RunUntil(bound);
    if (sim_.stop_requested()) {
      ASSERT_EQ(sim_.now(), last_fired_);  // stopped: clock holds at the event
    } else {
      ASSERT_EQ(sim_.now(), bound);
      ASSERT_TRUE(ref_.empty() || std::get<0>(ref_.top()) > bound);
    }
    stop_countdown_ = 0;
  }

  void RunToIdleOrStop() {
    sim_.RunUntilIdle();
    if (!sim_.stop_requested()) {
      ASSERT_TRUE(ref_.empty());
    }
    stop_countdown_ = 0;
  }

  Simulator sim_;
  Rng rng_;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> ref_;
  std::vector<SimTime> hot_;
  uint64_t next_seq_ = 0;
  uint64_t next_id_ = 0;
  uint64_t fired_ = 0;
  SimTime last_fired_ = 0;
  int64_t budget_ = 40000;
  int stop_countdown_ = 0;
};

class EventOrderPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(EventOrderPropertyTest, FiresInExactTimeSeqOrder) {
  EventOrderHarness(static_cast<uint64_t>(GetParam())).Run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderPropertyTest, ::testing::Range(1, 13));

}  // namespace
}  // namespace sdps::des
