// The experiment runner: assembles one simulated deployment (cluster,
// generators, queues, sink, SUT), runs it for the configured horizon, and
// judges sustainability per the paper's Definition 5 — the run fails if
// the SUT drops a connection, and the offered rate is unsustainable if the
// driver-queue backlog keeps growing (prolonged backpressure).
#ifndef SDPS_DRIVER_EXPERIMENT_H_
#define SDPS_DRIVER_EXPERIMENT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "chaos/fault_schedule.h"
#include "chaos/recovery.h"
#include "cluster/cluster.h"
#include "cluster/gc.h"
#include "common/status.h"
#include "common/time_util.h"
#include "driver/backpressure.h"
#include "driver/generator.h"
#include "driver/histogram.h"
#include "driver/sut.h"
#include "driver/throughput.h"
#include "driver/timeseries.h"

namespace sdps::driver {

struct ExperimentConfig {
  cluster::ClusterConfig cluster;
  /// Template for the per-node generators. Its `rate` field is ignored;
  /// each generator is given total_rate / num_drivers.
  GeneratorConfig generator;
  /// Offered load across all generators, tuples/s. Ignored when
  /// `rate_profile` is set.
  double total_rate = 1e6;
  /// Optional profiled load (fluctuating workloads); total across all
  /// generators.
  RateProfile rate_profile;
  SimTime duration = Seconds(300);
  /// Paper: "We use 25% of the input data as a warmup."
  double warmup_fraction = 0.25;
  /// Extra simulated time past the horizon. Generation stops at
  /// `duration` as always; the drain window lets the close cascade run —
  /// sources see the closed queues, final watermarks flush every open
  /// window, trailing Spark jobs evaluate the remaining boundaries. 0
  /// (default) keeps the historical behaviour (in-flight windows at the
  /// horizon never fire). Used by the runtime-duality identity tests,
  /// where both backends must emit the *complete* output set.
  SimTime drain = 0;
  uint64_t seed = 42;
  /// JVM GC pause injection on SUT worker nodes.
  bool attach_gc = true;
  cluster::GcConfig gc;
  /// Sustainability thresholds (see DESIGN.md): the backlog may spike, but
  /// must neither trend upward nor exceed `backlog_hard_limit_s` seconds
  /// worth of offered data.
  double backlog_hard_limit_s = 10.0;
  double backlog_end_limit_s = 2.0;
  /// Backlog slope above this fraction of the offered rate counts as
  /// "continuously increasing" (prolonged backpressure).
  double backlog_slope_frac = 0.05;
  /// Data-plane batch size: records per generator wakeup, queue pop,
  /// network admission, and CPU admission. 0 (default) resolves to the
  /// process-wide engine::DefaultDataPlaneBatch() (the --batch flag,
  /// itself defaulting to 1 = one record per admission; every size runs
  /// the same engine code).
  int batch = 0;
  /// Queue/resource sampling period.
  SimTime probe_interval = Millis(250);
  /// Resource-usage (CPU/network) sampling period (Fig. 10 buckets).
  SimTime resource_probe_interval = Seconds(2);
  /// Optional per-output hook (dashboards/alerting built on the driver).
  std::function<void(const engine::OutputRecord&)> output_listener;

  // -- Fault injection & recovery (sdps::chaos) -------------------------
  /// Deterministic fault plan. Empty (the default) installs nothing: no
  /// DES events, no sink hook — the run is bit-identical to a fault-free
  /// build.
  chaos::FaultSchedule faults;
  /// Grace after each fault window during which degradation (backlog
  /// spikes past the hard limit) is excused rather than judged.
  SimTime fault_grace = Seconds(15);
  /// Watchdog: fail the run with DeadlineExceeded when the sink emits no
  /// output for this long outside fault windows (wedged-trial guard).
  /// 0 disables (default; keeps runs event-identical to earlier builds).
  SimTime watchdog_timeout = 0;
  /// Record output identities even without faults — the fault-free run's
  /// counts are the exactly-once oracle for a faulty twin run.
  bool track_recovery = false;
  /// Oracle from a fault-free twin (same seed/config); enables the exact
  /// `lost` metric. Must outlive the run.
  const chaos::RecoveryTracker::OutputCounts* recovery_oracle = nullptr;
};

struct ExperimentResult {
  /// True when the run completed without failure or prolonged backpressure.
  bool sustainable = false;
  /// Why the run is considered unsustainable (human-readable).
  std::string verdict;
  /// Non-OK when the SUT failed hard (connection drop, OOM, stall).
  Status failure;

  Histogram event_latency;
  Histogram processing_latency;
  TimeSeries event_latency_series;
  TimeSeries processing_latency_series;
  /// Ingest rate measured at the driver queues (tuples/s per bucket).
  TimeSeries ingest_rate_series;
  /// Total queued tuples across driver queues over time. (Same samples as
  /// `indicator.backlog`, kept for existing consumers.)
  TimeSeries backlog_series;
  /// The backpressure monitor's full sustainability indicator: backlog,
  /// trailing backlog slope, sink watermark lag, sink latency slope.
  SustainabilityIndicator indicator;
  /// Post-warmup mean ingest rate (tuples/s).
  double mean_ingest_rate = 0.0;
  /// Offered rate (tuples/s) this run was driven at.
  double offered_rate = 0.0;
  uint64_t output_records = 0;

  /// Per-worker CPU utilisation [0,1] and network MB/s over time (Fig. 10).
  std::vector<TimeSeries> worker_cpu_util;
  std::vector<TimeSeries> worker_net_mbps;
  /// Engine-specific diagnostics (e.g., "scheduler_delay_s" for Spark).
  std::map<std::string, TimeSeries> engine_series;

  /// Recovery metrics (populated when faults were injected or
  /// `track_recovery` was set).
  chaos::RecoveryStats recovery;
  /// Sustainable only thanks to fault-window excusal: the backlog spiked
  /// past the hard limit during injection but drained afterwards.
  bool degraded = false;
  /// Observed output identity counts; a fault-free run's counts serve as
  /// the `recovery_oracle` of a faulty twin.
  chaos::RecoveryTracker::OutputCounts observed_outputs;
};

/// Runs one experiment. `factory` builds the SUT against the freshly
/// created simulator and cluster.
ExperimentResult RunExperiment(const ExperimentConfig& config, const SutFactory& factory);

}  // namespace sdps::driver

#endif  // SDPS_DRIVER_EXPERIMENT_H_
