#include "cluster/network.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "cluster/cluster.h"
#include "common/random.h"
#include "des/resource.h"
#include "des/simulator.h"
#include "des/task.h"

// Counts every scalar allocation in this test binary, so a test can assert
// that a constructor does not touch the heap.
namespace {
size_t g_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
// GCC pairs the inlined malloc/free across these replacements and warns
// that free() gets memory from operator new; here it is exactly malloc's.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#pragma GCC diagnostic pop

namespace sdps::cluster {
namespace {

/// Reference model of a link: a one-server FIFO des::Resource for the
/// transmission, then a des::Delay for the propagation, one coroutine per
/// hop. Link's busy-until line must reproduce its arrival times and byte
/// counts.
class ReferenceLink {
 public:
  ReferenceLink(des::Simulator& sim, double bytes_per_sec, SimTime latency)
      : sim_(sim), line_(sim, 1), bytes_per_sec_(bytes_per_sec), latency_(latency) {}

  des::Task<> Transfer(int64_t bytes) {
    co_await line_.Use(TxTime(bytes));
    bytes_transferred_ += bytes;
    if (latency_ > 0) co_await des::Delay(sim_, latency_);
  }

  des::Task<> TransferBatch(const int64_t* bytes, size_t n, SimTime* completions) {
    SimTime total_tx = 0;
    int64_t total_bytes = 0;
    for (size_t i = 0; i < n; ++i) {
      total_tx += TxTime(bytes[i]);
      total_bytes += bytes[i];
      if (completions != nullptr) completions[i] = total_tx;
    }
    const SimTime start = co_await line_.Use(total_tx);
    if (completions != nullptr) {
      for (size_t i = 0; i < n; ++i) completions[i] += start + latency_;
    }
    bytes_transferred_ += total_bytes;
    if (latency_ > 0) co_await des::Delay(sim_, latency_);
  }

  int64_t bytes_transferred() const { return bytes_transferred_; }
  void set_rate_scale(double scale) { rate_scale_ = scale; }

 private:
  SimTime TxTime(int64_t bytes) const {
    return static_cast<SimTime>(
        std::llround(static_cast<double>(bytes) / (bytes_per_sec_ * rate_scale_) * 1e6));
  }

  des::Simulator& sim_;
  des::Resource line_;
  double bytes_per_sec_;
  double rate_scale_ = 1.0;
  SimTime latency_;
  int64_t bytes_transferred_ = 0;
};

/// One seeded random workload for a single line: transfers and batches
/// arriving at random times, mid-run rate changes and byte-count probes.
struct Scenario {
  struct Op {
    SimTime arrival;
    bool batch;
    std::vector<int64_t> bytes;
  };
  double bytes_per_sec;
  SimTime latency;
  std::vector<Op> ops;
  std::vector<std::pair<SimTime, double>> rate_changes;
  std::vector<SimTime> probes;
};

struct Outcome {
  std::vector<SimTime> resumed;                   // per op
  std::vector<std::vector<SimTime>> completions;  // per op; batches only
  std::vector<int64_t> probed_bytes;              // per probe
};

Scenario MakeScenario(uint64_t seed) {
  Rng rng(seed);
  Scenario sc;
  sc.bytes_per_sec = rng.NextBelow(2) == 0 ? 1e6 : 125e6 / 97.0;
  const SimTime latencies[] = {0, 37, 200};
  sc.latency = latencies[rng.NextBelow(3)];
  // The offered bytes are about 1.0-1.3x what the line carries in the
  // horizon, so most transfers queue behind others.
  const SimTime horizon = 300000;
  for (int i = 0; i < 300; ++i) {
    Scenario::Op op;
    op.arrival = static_cast<SimTime>(rng.NextBelow(horizon));
    op.batch = rng.NextBelow(4) == 0;
    const size_t n = op.batch ? 1 + rng.NextBelow(8) : 1;
    for (size_t k = 0; k < n; ++k) {
      op.bytes.push_back(rng.NextBelow(10) == 0 ? 0 : static_cast<int64_t>(rng.NextBelow(1500)));
    }
    sc.ops.push_back(std::move(op));
  }
  const double scales[] = {0.25, 0.5, 0.7, 1.0, 2.0};
  for (int i = 0; i < 8; ++i) {
    sc.rate_changes.emplace_back(static_cast<SimTime>(rng.NextBelow(horizon)),
                                 scales[rng.NextBelow(5)]);
  }
  for (int i = 0; i < 400; ++i) {
    sc.probes.push_back(static_cast<SimTime>(rng.NextBelow(2 * horizon)));
  }
  return sc;
}

template <typename L>
des::Task<> RunOp(des::Simulator& sim, L& link, const Scenario::Op& op, SimTime& resumed,
                  std::vector<SimTime>& completions) {
  co_await des::Delay(sim, op.arrival);
  if (op.batch) {
    completions.assign(op.bytes.size(), -1);
    co_await link.TransferBatch(op.bytes.data(), op.bytes.size(), completions.data());
  } else {
    co_await link.Transfer(op.bytes[0]);
  }
  resumed = sim.now();
}

template <typename L>
Outcome RunScenario(const Scenario& sc) {
  des::Simulator sim;
  L link(sim, sc.bytes_per_sec, sc.latency);
  Outcome out;
  out.resumed.assign(sc.ops.size(), -1);
  out.completions.resize(sc.ops.size());
  out.probed_bytes.assign(sc.probes.size(), -1);
  // Everything is scheduled before the run in one fixed order, so both
  // models see the same tie order among arrivals, rate changes and probes.
  for (const auto& [t, scale] : sc.rate_changes) {
    sim.ScheduleAt(t, [&link, scale] { link.set_rate_scale(scale); });
  }
  for (size_t i = 0; i < sc.probes.size(); ++i) {
    int64_t* slot = &out.probed_bytes[i];
    sim.ScheduleAt(sc.probes[i], [&link, slot] { *slot = link.bytes_transferred(); });
  }
  for (size_t i = 0; i < sc.ops.size(); ++i) {
    sim.Spawn(RunOp(sim, link, sc.ops[i], out.resumed[i], out.completions[i]));
  }
  sim.RunUntilIdle();
  return out;
}

TEST(LinkTest, TransferTakesBytesOverBandwidthPlusLatency) {
  des::Simulator sim;
  Link link(sim, /*bytes_per_sec=*/1e6, /*latency=*/200);
  SimTime done_at = -1;
  sim.Spawn([](des::Simulator& s, Link& l, SimTime& t) -> des::Task<> {
    co_await l.Transfer(1000);  // 1000 B at 1 MB/s = 1000 us
    t = s.now();
  }(sim, link, done_at));
  sim.RunUntilIdle();
  EXPECT_EQ(done_at, 1200);
  EXPECT_EQ(link.bytes_transferred(), 1000);
}

TEST(LinkTest, TransfersSerializeFifo) {
  des::Simulator sim;
  Link link(sim, 1e6, 0);
  std::vector<SimTime> done;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn([](des::Simulator& s, Link& l, std::vector<SimTime>& d) -> des::Task<> {
      co_await l.Transfer(1000);
      d.push_back(s.now());
    }(sim, link, done));
  }
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{1000, 2000, 3000}));
}

TEST(LinkTest, SaturationThroughputMatchesBandwidth) {
  des::Simulator sim;
  Link link(sim, 1e6, 0);  // 1 MB/s
  sim.Spawn([](des::Simulator&, Link& l) -> des::Task<> {
    for (int i = 0; i < 100; ++i) co_await l.Transfer(10000);
  }(sim, link));
  sim.RunUntilIdle();
  // 1 MB over a 1 MB/s link = 1 simulated second.
  EXPECT_EQ(sim.now(), Seconds(1));
}

TEST(LinkTest, MatchesResourcePlusDelayReference) {
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    const Scenario sc = MakeScenario(seed);
    const Outcome got = RunScenario<Link>(sc);
    const Outcome want = RunScenario<ReferenceLink>(sc);
    EXPECT_EQ(got.resumed, want.resumed) << "seed " << seed;
    EXPECT_EQ(got.completions, want.completions) << "seed " << seed;
    // Both models count a transmission's bytes when it leaves the line; a
    // probe in the same microsecond may run on either side of that, so
    // only probes between line completions are compared.
    std::set<SimTime> line_done;
    for (size_t i = 0; i < sc.ops.size(); ++i) line_done.insert(want.resumed[i] - sc.latency);
    size_t compared = 0;
    for (size_t i = 0; i < sc.probes.size(); ++i) {
      if (line_done.count(sc.probes[i]) != 0) continue;
      ++compared;
      EXPECT_EQ(got.probed_bytes[i], want.probed_bytes[i])
          << "seed " << seed << " probe at " << sc.probes[i];
    }
    EXPECT_GT(compared, sc.probes.size() / 2) << "seed " << seed;
  }
}

TEST(LinkTest, BytesCountAtLineCompletionNotArrival) {
  des::Simulator sim;
  Link link(sim, 1e6, 200);
  std::vector<int64_t> seen;
  for (SimTime t : {999, 1001, 1199, 1201}) {
    sim.ScheduleAt(t, [&link, &seen] { seen.push_back(link.bytes_transferred()); });
  }
  sim.Spawn([](Link& l) -> des::Task<> { co_await l.Transfer(1000); }(link));
  sim.RunUntilIdle();
  EXPECT_EQ(seen, (std::vector<int64_t>{0, 1000, 1000, 1000}));
}

TEST(LinkTest, RateScaleAppliesFromAdmission) {
  des::Simulator sim;
  Link link(sim, 1e6, 0);
  std::vector<SimTime> done;
  auto transfer = [](des::Simulator& s, Link& l, std::vector<SimTime>& d) -> des::Task<> {
    co_await l.Transfer(1000);
    d.push_back(s.now());
  };
  sim.Spawn(transfer(sim, link, done));  // admitted at full rate, queued behind nothing
  sim.Spawn(transfer(sim, link, done));  // admitted at full rate, queued
  link.set_rate_scale(0.5);
  sim.Spawn(transfer(sim, link, done));  // admitted at half rate
  sim.RunUntilIdle();
  EXPECT_EQ(done, (std::vector<SimTime>{1000, 2000, 4000}));
}

TEST(LinkTest, TransferBatchCostsOneEvent) {
  des::Simulator sim;
  Link link(sim, 1e6, 200);
  const std::vector<int64_t> bytes = {100, 200, 300, 400, 500, 600, 700, 800};
  std::vector<SimTime> arrivals(bytes.size());
  sim.Spawn([](Link& l, const std::vector<int64_t>& b, std::vector<SimTime>& a) -> des::Task<> {
    co_await l.TransferBatch(b.data(), b.size(), a.data());
  }(link, bytes, arrivals));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.processed_events(), 1u);
  EXPECT_EQ(arrivals, (std::vector<SimTime>{300, 500, 800, 1200, 1700, 2300, 3000, 3800}));
  EXPECT_EQ(sim.now(), 3800);
  EXPECT_EQ(link.bytes_transferred(), 3600);
}

TEST(LinkTest, ConstructionDoesNotAllocate) {
  des::Simulator sim;
  const size_t before = g_allocations;
  Link link(sim, 125e6, 200);
  EXPECT_EQ(g_allocations, before);
  EXPECT_EQ(link.bytes_transferred(), 0);
}

class ClusterTest : public ::testing::Test {
 protected:
  ClusterConfig Config() {
    ClusterConfig config;
    config.workers = 2;
    config.drivers = 2;
    config.nic_bytes_per_sec = 1e6;
    config.trunk_bytes_per_sec = 1e6;
    config.link_latency_us = 0;
    return config;
  }
};

TEST_F(ClusterTest, TopologySizes) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  EXPECT_EQ(cluster.num_workers(), 2);
  EXPECT_EQ(cluster.num_drivers(), 2);
  EXPECT_EQ(cluster.master().group(), NodeGroup::kMaster);
  EXPECT_EQ(cluster.worker(0).group(), NodeGroup::kWorker);
  EXPECT_EQ(cluster.driver(1).group(), NodeGroup::kDriver);
  // All node ids distinct.
  EXPECT_NE(cluster.worker(0).id(), cluster.worker(1).id());
  EXPECT_NE(cluster.worker(0).id(), cluster.driver(0).id());
}

TEST_F(ClusterTest, DriversDefaultToWorkerCount) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.drivers = -1;
  config.workers = 4;
  Cluster cluster(sim, config);
  EXPECT_EQ(cluster.num_drivers(), 4);
}

TEST_F(ClusterTest, SameNodeSendIsInstant) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.worker(0), 1 << 20);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.now(), 0);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(0)), 0);
}

TEST_F(ClusterTest, DriverToWorkerCrossesIngestTrunk) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.driver(0), c.worker(1), 1000);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 1000);
  EXPECT_EQ(cluster.trunk_egress().bytes_transferred(), 0);
  // NIC out of the driver + NIC in of the worker.
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.driver(0)), 1000);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 1000);
  // Three store-and-forward hops at 1 MB/s each.
  EXPECT_EQ(sim.now(), 3000);
}

TEST_F(ClusterTest, WorkerToDriverCrossesEgressTrunk) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.driver(0), 500);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.trunk_egress().bytes_transferred(), 500);
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 0);
}

TEST_F(ClusterTest, WorkerToWorkerSkipsTrunk) {
  des::Simulator sim;
  Cluster cluster(sim, Config());
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.worker(1), 700);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(cluster.trunk_ingest().bytes_transferred(), 0);
  EXPECT_EQ(cluster.trunk_egress().bytes_transferred(), 0);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(0)), 700);
  EXPECT_EQ(cluster.NodeNetworkBytes(cluster.worker(1)), 700);
}

TEST_F(ClusterTest, TrunkIsTheSharedBottleneck) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.nic_bytes_per_sec = 100e6;  // fast NICs
  config.trunk_bytes_per_sec = 1e6;  // slow shared trunk
  Cluster cluster(sim, config);
  // Both drivers push 1 MB each through the shared trunk concurrently.
  for (int d = 0; d < 2; ++d) {
    sim.Spawn([](Cluster& c, int from) -> des::Task<> {
      co_await c.Send(c.driver(from), c.worker(from), 1 << 20);
    }(cluster, d));
  }
  sim.RunUntilIdle();
  // 2 MB over the 1 MB/s trunk needs >= ~2.1 simulated seconds.
  EXPECT_GE(sim.now(), Seconds(2));
}

TEST_F(ClusterTest, DriverToWorkerSendCostsThreeEvents) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.link_latency_us = 200;
  Cluster cluster(sim, config);
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.driver(0), c.worker(1), 1000);
  }(cluster));
  sim.RunUntilIdle();
  // One event per hop: driver NIC out, ingest trunk, worker NIC in.
  EXPECT_EQ(sim.processed_events(), 3u);
  EXPECT_EQ(sim.now(), 3 * (1000 + 200));
}

TEST_F(ClusterTest, WorkerToWorkerSendCostsTwoEvents) {
  des::Simulator sim;
  ClusterConfig config = Config();
  config.link_latency_us = 200;
  Cluster cluster(sim, config);
  sim.Spawn([](Cluster& c) -> des::Task<> {
    co_await c.Send(c.worker(0), c.worker(1), 700);
  }(cluster));
  sim.RunUntilIdle();
  EXPECT_EQ(sim.processed_events(), 2u);
  EXPECT_EQ(sim.now(), 2 * (700 + 200));
}

}  // namespace
}  // namespace sdps::cluster
