// Measurement taken from outside the program: a SutFactory wrapper that
// times set-up and snapshots what the simulator, queues and sink already
// expose, an output capture fed by ExperimentConfig::output_listener, a
// span log for traced runs, and timed replays of a workload's inputs
// through single layers' public functions.
#ifndef SDPS_E2EBENCH_PROBE_H_
#define SDPS_E2EBENCH_PROBE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "driver/sut.h"
#include "engine/query.h"
#include "engine/record.h"
#include "oracle.h"

namespace e2ebench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// What one DES trial exposed, read by the factory wrapper.
struct TrialProbe {
  double setup_s = 0;           // call start -> Sut::Start returned
  double run_s = 0;             // call start -> Sut::Stop (the whole run)
  uint64_t events = 0;          // Simulator::processed_events()
  uint64_t pushed_tuples = 0;   // generated into the driver queues
  uint64_t popped_tuples = 0;   // taken from the driver queues by the SUT
  uint64_t sink_outputs = 0;    // LatencySink::total_outputs()
};

/// Thread-safe collection of TrialProbes (search trials run on
/// exec::TrialPool workers).
class ProbeLog {
 public:
  void Add(const TrialProbe& p);
  std::vector<TrialProbe> Take();

 private:
  std::mutex mu_;
  std::vector<TrialProbe> probes_;
};

/// Marks the start of a RunExperiment call on this thread. The next trial
/// the wrapped factory builds on this thread measures set-up from here;
/// trials started inside FindSustainableThroughput measure it from the
/// factory call.
void MarkCallStart();

/// Outputs of one DES trial, seen through the experiment's output
/// listener: a digest of all of them, and the records themselves when kept.
struct OutputCapture {
  bool keep = false;
  std::vector<sdps::engine::OutputRecord> outputs;
  OutputDigest digest;

  void Observe(const sdps::engine::OutputRecord& out) {
    digest.Add(out);
    if (keep) outputs.push_back(out);
  }
};

/// Wraps `inner` so each Sut it builds reports a TrialProbe into `log` at
/// Stop().
sdps::driver::SutFactory Probed(sdps::driver::SutFactory inner, ProbeLog* log);

/// In-memory spans around calls into the program, recorded only in traced
/// runs and written out as a Chrome trace at the end.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0;
    double end_s = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  bool enabled() const { return enabled_; }

  int Begin(const std::string& name, int parent = -1);
  void End(int id);
  bool WriteChromeTrace(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the log is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, int parent = -1)
      : log_(log), id_(log.enabled() ? log.Begin(name, parent) : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) log_.End(id_);
  }
  int id() const { return id_; }

 private:
  SpanLog& log_;
  int id_;
};

/// Per-record host cost of single layers, from timed replays of a
/// workload's own input records (event-time order, both sources merged).
struct LayerReplay {
  double stream_ns_per_record = 0;     // RecordStream NextTime + Build
  double agg_ns_per_record = 0;        // AggWindowState
  double buffered_ns_per_record = 0;   // BufferedWindowState
  double join_ns_per_record = 0;       // JoinWindowState
  double partition_ns_per_record = 0;  // RadixPartition over 2 partitions
  double combine_ns_per_record = 0;    // ShuffleCombiner, 32-record runs
  double combine_out_per_in = 0;       // combined records per input record
};
LayerReplay ReplayLayers(const StreamSpec& spec, sdps::engine::WindowSpec window,
                         SpanLog& spans, int parent);

/// Values of the program's own telemetry counters, summed over labels.
std::map<std::string, double> CounterTotals();

/// Peak resident set of this process so far, MB.
double PeakRssMb();

/// Host speed probe: runs a fixed compute-bound loop on `threads` threads
/// at once and returns the mean seconds one loop took. It reads higher
/// while other load on the host slows the cores; the program's code is
/// not involved, so no change to the program moves it.
double HostSpeedProbe(int threads);

}  // namespace e2ebench

#endif  // SDPS_E2EBENCH_PROBE_H_
