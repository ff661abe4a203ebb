// Logical-identity and recovery semantics of the batched data plane
// (--batch=N): with the same seed and workload, the output multiset —
// (key, window end, window max-event-time, value) identities with counts —
// must not depend on the batch size. Event-time engines (Flink, Storm)
// guarantee this structurally: sources emit monotone event times
// (max_event_lag = 0) and every channel is FIFO, so a record always
// reaches its window task before the watermark that could fire its window,
// no matter how admissions are coalesced. The GC pause model stays on for
// those runs: pauses back records up in the driver queues, so PopBatch
// genuinely drains multi-record batches.
//
// Spark windows by arrival micro-batch (processing time), so its outputs
// are only batch-invariant while the ingest path stays unclustered (each
// record popped at its arrival instant); its identity runs disable GC and
// stay well under capacity to pin that regime — this still exercises the
// batched fetcher/receiver code paths end to end at --batch=64.
//
// The recovery tests crash a worker mid-run at --batch=1 and --batch=64:
// the delivery guarantee must not depend on the batch size.
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "des/simulator.h"
#include "driver/experiment.h"
#include "driver/sut.h"
#include "workloads/workloads.h"

namespace sdps {
namespace {

using workloads::Engine;
using workloads::EngineTuning;
using workloads::MakeEngineFactory;
using workloads::MakeExperiment;

constexpr int kBatch = 64;

driver::ExperimentConfig IdentityConfig(engine::QueryKind query, double rate,
                                        bool attach_gc) {
  driver::ExperimentConfig config = MakeExperiment(query, 2, rate, Seconds(40));
  config.track_recovery = true;  // record output identities
  config.attach_gc = attach_gc;
  return config;
}

void ExpectBatchInvariantOutputs(Engine engine, engine::QueryKind query, double rate,
                                 bool attach_gc) {
  auto factory = MakeEngineFactory(engine, {query, {}});
  driver::ExperimentConfig config = IdentityConfig(query, rate, attach_gc);
  config.batch = 1;
  const auto serial = driver::RunExperiment(config, factory);
  config.batch = kBatch;
  const auto batched = driver::RunExperiment(config, factory);
  ASSERT_TRUE(serial.failure.ok()) << serial.failure.ToString();
  ASSERT_TRUE(batched.failure.ok()) << batched.failure.ToString();
  ASSERT_GT(serial.output_records, 0u);
  EXPECT_EQ(serial.output_records, batched.output_records);
  EXPECT_EQ(serial.observed_outputs, batched.observed_outputs);
  // The generator-side input is identical too (burst-size invariance).
  EXPECT_DOUBLE_EQ(serial.mean_ingest_rate, batched.mean_ingest_rate);
}

TEST(BatchIdentityTest, FlinkAggregation) {
  ExpectBatchInvariantOutputs(Engine::kFlink, engine::QueryKind::kAggregation,
                              1.0e5, /*attach_gc=*/true);
}

TEST(BatchIdentityTest, FlinkJoin) {
  ExpectBatchInvariantOutputs(Engine::kFlink, engine::QueryKind::kJoin, 2.0e4,
                              /*attach_gc=*/true);
}

TEST(BatchIdentityTest, StormAggregation) {
  ExpectBatchInvariantOutputs(Engine::kStorm, engine::QueryKind::kAggregation,
                              1.0e5, /*attach_gc=*/true);
}

TEST(BatchIdentityTest, StormJoin) {
  ExpectBatchInvariantOutputs(Engine::kStorm, engine::QueryKind::kJoin, 2.0e4,
                              /*attach_gc=*/true);
}

TEST(BatchIdentityTest, SparkAggregation) {
  ExpectBatchInvariantOutputs(Engine::kSpark, engine::QueryKind::kAggregation,
                              2.0e4, /*attach_gc=*/false);
}

TEST(BatchIdentityTest, SparkJoin) {
  ExpectBatchInvariantOutputs(Engine::kSpark, engine::QueryKind::kJoin, 2.0e4,
                              /*attach_gc=*/false);
}

// -- Recovery at --batch=1 and --batch=64 ------------------------------------

constexpr SimTime kRecoveryDuration = Seconds(60);
constexpr SimTime kCrashAt = Seconds(30);
constexpr SimTime kRestartDelay = Seconds(10);

driver::ExperimentConfig RecoveryConfig(engine::QueryKind query, int batch,
                                        bool faulty) {
  driver::ExperimentConfig config = MakeExperiment(query, 2, 2.0e4, kRecoveryDuration);
  config.track_recovery = true;
  config.batch = batch;
  if (faulty) {
    config.faults.Crash("w1", kCrashAt, kRestartDelay);
    config.watchdog_timeout = Seconds(30);
  }
  return config;
}

// Both sizes run the same engine code: at 64 the replay after restore is
// re-popped through PopBatch in full batches; at 1 every record is its own
// batch, so the unsent-floor watermark cap holds a single popped record
// across the crash.
class BatchRecoveryTest : public ::testing::TestWithParam<int> {};

TEST_P(BatchRecoveryTest, FlinkAggregationStaysExactlyOnce) {
  EngineTuning tuning;
  tuning.recovery = true;
  auto factory =
      MakeEngineFactory(Engine::kFlink, {engine::QueryKind::kAggregation, {}}, tuning);
  const auto oracle = driver::RunExperiment(
      RecoveryConfig(engine::QueryKind::kAggregation, GetParam(), false), factory);
  ASSERT_EQ(oracle.recovery.duplicates, 0u);
  driver::ExperimentConfig faulty =
      RecoveryConfig(engine::QueryKind::kAggregation, GetParam(), true);
  faulty.recovery_oracle = &oracle.observed_outputs;
  const auto result = driver::RunExperiment(faulty, factory);
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_EQ(result.recovery.crash_time, kCrashAt);
  EXPECT_GT(result.recovery.outputs_total, 0u);
  // The crash lands mid-stream: retained records are replayed and
  // re-popped, yet no output is duplicated or lost.
  EXPECT_EQ(result.recovery.duplicates, 0u);
  EXPECT_EQ(result.recovery.lost, 0u);
}

TEST_P(BatchRecoveryTest, StormAggregationReplaysAtLeastOnce) {
  EngineTuning tuning;
  tuning.recovery = true;
  auto factory =
      MakeEngineFactory(Engine::kStorm, {engine::QueryKind::kAggregation, {}}, tuning);
  const auto oracle = driver::RunExperiment(
      RecoveryConfig(engine::QueryKind::kAggregation, GetParam(), false), factory);
  ASSERT_EQ(oracle.recovery.duplicates, 0u);
  driver::ExperimentConfig faulty =
      RecoveryConfig(engine::QueryKind::kAggregation, GetParam(), true);
  faulty.recovery_oracle = &oracle.observed_outputs;
  const auto result = driver::RunExperiment(faulty, factory);
  // At-least-once: the ack/replay path re-fires windows, surfacing
  // replayed tuples as duplicate identities.
  EXPECT_EQ(result.recovery.crash_time, kCrashAt);
  EXPECT_GT(result.recovery.duplicates, 0u);
}

INSTANTIATE_TEST_SUITE_P(Batch, BatchRecoveryTest, ::testing::Values(1, kBatch),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "b" + std::to_string(info.param);
                         });

// -- DES cost of the record-at-a-time plane -----------------------------------
//
// --batch=1 runs the same engine code as every other batch size, one record
// per batch. It must cost no more simulator events than the dedicated
// per-record coroutines it replaced: the ceilings are those coroutines'
// event counts for these fixed-seed trials.

/// Forwards to the engine and records the simulator's event count at Stop.
class EventCountingSut : public driver::Sut {
 public:
  EventCountingSut(std::unique_ptr<driver::Sut> inner, uint64_t* events)
      : inner_(std::move(inner)), events_(events) {}
  std::string name() const override { return inner_->name(); }
  Status Start(const driver::SutContext& ctx) override {
    sim_ = ctx.sim;
    return inner_->Start(ctx);
  }
  void Stop() override {
    inner_->Stop();
    *events_ = sim_->processed_events();
  }

 private:
  std::unique_ptr<driver::Sut> inner_;
  uint64_t* events_;
  des::Simulator* sim_ = nullptr;
};

uint64_t RecordAtATimeEvents(Engine engine, engine::QueryKind query) {
  driver::ExperimentConfig config = MakeExperiment(
      query, 2, query == engine::QueryKind::kAggregation ? 1.0e5 : 2.0e4, Seconds(10));
  config.batch = 1;
  config.seed = 7;
  auto inner = MakeEngineFactory(engine, {query, {}});
  uint64_t events = 0;
  const auto result = driver::RunExperiment(
      config, [&](const driver::SutContext& ctx) -> std::unique_ptr<driver::Sut> {
        return std::make_unique<EventCountingSut>(inner(ctx), &events);
      });
  EXPECT_TRUE(result.failure.ok()) << result.failure.ToString();
  EXPECT_GT(result.output_records, 0u);
  return events;
}

TEST(BatchOneCostTest, FlinkEventsDoNotExceedPerRecordPlane) {
  EXPECT_LE(RecordAtATimeEvents(Engine::kFlink, engine::QueryKind::kAggregation), 96388u);
  EXPECT_LE(RecordAtATimeEvents(Engine::kFlink, engine::QueryKind::kJoin), 20256u);
}

TEST(BatchOneCostTest, StormEventsDoNotExceedPerRecordPlane) {
  // One CPU admission for spout + ack work (two before): 96293 and 47871.
  EXPECT_LE(RecordAtATimeEvents(Engine::kStorm, engine::QueryKind::kAggregation), 106287u);
  EXPECT_LE(RecordAtATimeEvents(Engine::kStorm, engine::QueryKind::kJoin), 49869u);
}

TEST(BatchOneCostTest, SparkEventsDoNotExceedPerRecordPlane) {
  EXPECT_LE(RecordAtATimeEvents(Engine::kSpark, engine::QueryKind::kAggregation), 70673u);
  EXPECT_LE(RecordAtATimeEvents(Engine::kSpark, engine::QueryKind::kJoin), 14670u);
}

}  // namespace
}  // namespace sdps
