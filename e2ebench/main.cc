// SDPS-Bench end-to-end benchmark. One process runs one workload for a
// given time in whole rounds of identical operations, checks every output
// against the independent oracle (oracle.h) and the properties of the
// paper's Definition 5, and prints one JSON result line:
//
//   sdps_e2ebench --workload=<paper_b1|search_b32|shuffle_2m|rt_agg>
//                 --seed=<n> --seconds=<s> --trace=<0|1> --out-dir=<dir>
//                 [--git-sha=<sha>] [--argv=<launcher argv>]
//   sdps_e2ebench --selftest [--seed=<n>] [--out-dir=<dir>]
//
// --trace=0 reports the end-to-end metrics and records no spans and
// enables no telemetry counters. --trace=1 reports the per-layer metrics
// (see README.md for which end-to-end metric each should move). The
// program is driven only through driver::RunExperiment,
// driver::FindSustainableThroughput and rt::RunRtPipeline; the per-layer
// run also times single layers' public functions on the workload's inputs.
#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/experiment.h"
#include "driver/sustainable.h"
#include "engine/group_hash.h"
#include "exec/pool.h"
#include "obs/metrics.h"
#include "oracle.h"
#include "probe.h"
#include "report/table.h"
#include "rt/pipeline.h"
#include "workloads/realtime.h"
#include "workloads/workloads.h"

#ifndef SDPS_E2E_BUILD_TYPE
#define SDPS_E2E_BUILD_TYPE "unknown"
#endif

namespace e2ebench {
namespace {

using sdps::Seconds;
using sdps::driver::ExperimentConfig;
using sdps::driver::ExperimentResult;
using sdps::engine::OutputRecord;
using sdps::engine::QueryConfig;
using sdps::engine::QueryKind;
using sdps::workloads::Engine;
using sdps::workloads::EngineName;
using sdps::workloads::EngineTuning;

// ---------------------------------------------------------------------------
// Workload definitions (see README.md for why each was chosen).

constexpr Engine kEngines[3] = {Engine::kFlink, Engine::kStorm, Engine::kSpark};

// paper_b1: 0.9x each engine model's 2-node Table I / III sustainable rate.
constexpr SimTime kPaperDuration = Seconds(40);
constexpr SimTime kDrain = Seconds(30);
// search_b32: the paper's 2-node Table I values (M tuples/s) and the
// repository's shape band around them (measured within [0.5x, 2x]).
constexpr double kTable1TwoNode[3] = {1.20, 0.40, 0.38};  // Flink, Storm, Spark
constexpr double kShapeBand = 0.5;
constexpr double kSearchStartFactor = 2.0;
constexpr SimTime kSearchTrial = Seconds(30);
// shuffle_2m: the full-scale rate of the shuffle figure.
constexpr double kShuffleRate = 4e5;
constexpr SimTime kShuffleDuration = Seconds(60);
// rt_agg: 1 source, 2 tasks, 1 sink. Unpaced streams of kRtRecords
// records measure capacity; the paced Flink run offers kRtPacedRate.
constexpr uint64_t kRtRecords = 3'000'000;
constexpr double kRtUnpacedRate = 1e7;  // tuples/s: sets event-time spacing only
constexpr double kRtPacedRate = 2e8;    // tuples/s = 2 M records/s
constexpr SimTime kRtPacedDuration = Seconds(4);
// HostSpeedProbe's time on the reference host (README.md) with nothing
// else running; timings are reported at that host speed.
constexpr double kProbeNominalS = 0.014;
// Relative tolerance for sums folded in a different order than the
// oracle's (two sources interleave at the tasks).
constexpr double kFoldTolerance = 1e-9;

uint64_t TrialSeed(uint64_t seed, int index) {
  return seed * 1000003ULL + static_cast<uint64_t>(index) * 7919ULL + 1;
}

int Nproc() { return std::max(1u, std::thread::hardware_concurrency()); }

// Pool workers for trial-parallel work: never more threads than nproc.
int Jobs() { return std::min(4, Nproc()); }

struct DesTrial {
  std::string label;
  Engine engine = Engine::kFlink;
  QueryConfig query;
  EngineTuning tuning;
  ExperimentConfig config;

  StreamSpec Stream() const {
    const int drivers =
        config.cluster.drivers > 0 ? config.cluster.drivers : config.cluster.workers;
    return StreamSpec{config.generator, drivers, config.total_rate, config.duration,
                      config.seed};
  }
  bool exact() const { return engine != Engine::kSpark; }
  double tolerance() const {
    return config.generator.price_min == config.generator.price_max ? 0.0
                                                                    : kFoldTolerance;
  }
};

DesTrial MakeTrial(Engine engine, QueryKind kind, int workers, double rate,
                   SimTime duration, int batch, uint64_t seed) {
  DesTrial t;
  t.engine = engine;
  t.query.kind = kind;
  t.label = EngineName(engine) + (kind == QueryKind::kAggregation ? "_agg" : "_join");
  t.config = sdps::workloads::MakeExperiment(kind, workers, rate, duration);
  t.config.batch = batch;
  t.config.drain = kDrain;
  t.config.seed = seed;
  return t;
}

std::vector<DesTrial> PaperB1Trials(uint64_t seed) {
  const struct {
    Engine engine;
    QueryKind kind;
    double rate;
  } rows[] = {
      {Engine::kFlink, QueryKind::kAggregation, 1.0e6},
      {Engine::kStorm, QueryKind::kAggregation, 0.36e6},
      {Engine::kSpark, QueryKind::kAggregation, 0.33e6},
      {Engine::kFlink, QueryKind::kJoin, 0.7e6},
      {Engine::kSpark, QueryKind::kJoin, 0.32e6},
      {Engine::kStorm, QueryKind::kJoin, 0.117e6},
  };
  std::vector<DesTrial> trials;
  int i = 0;
  for (const auto& row : rows) {
    trials.push_back(MakeTrial(row.engine, row.kind, 2, row.rate, kPaperDuration, 1,
                               TrialSeed(seed, i++)));
  }
  return trials;
}

std::vector<DesTrial> ShuffleTrials(uint64_t seed) {
  std::vector<DesTrial> trials;
  int i = 0;
  for (Engine engine : kEngines) {
    DesTrial t;
    t.engine = engine;
    t.label = EngineName(engine) + "_shuffle";
    t.tuning.shuffle_combine = true;
    t.config = sdps::workloads::MakeShuffle(2, kShuffleRate, kShuffleDuration);
    t.config.batch = 32;
    t.config.drain = kDrain;
    t.config.seed = TrialSeed(seed, i++);
    trials.push_back(std::move(t));
  }
  return trials;
}

// The rt_agg DES twin (traced run only): the same generator on a 1-worker
// cluster, one trial per engine model.
std::vector<DesTrial> RtTwinTrials(uint64_t seed) {
  std::vector<DesTrial> trials;
  int i = 0;
  for (Engine engine : kEngines) {
    trials.push_back(MakeTrial(engine, QueryKind::kAggregation, 1, 0.15e6, Seconds(30),
                               1, TrialSeed(seed, 100 + i++)));
  }
  return trials;
}

sdps::rt::RtPipelineConfig RtConfig(Engine engine, uint64_t seed, bool paced) {
  const double rate = paced ? kRtPacedRate : kRtUnpacedRate;
  const SimTime duration =
      paced ? kRtPacedDuration
            : Seconds(static_cast<double>(kRtRecords) * 100.0 / kRtUnpacedRate);
  sdps::rt::RtPipelineConfig config = sdps::workloads::MakeRealtime(
      engine, QueryKind::kAggregation, 1, rate, duration, seed);
  config.num_tasks = 2;
  config.paced = paced;
  config.capture_outputs = true;
  return config;
}

StreamSpec RtStream(const sdps::rt::RtPipelineConfig& c) {
  return StreamSpec{c.generator, c.num_sources, c.total_rate, c.duration, c.seed};
}

// ---------------------------------------------------------------------------
// Result bookkeeping.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  // Counts one operation; a failed one is reported on stderr.
  void Op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    }
  }
  // A failed output check: a failed operation and an incorrect output.
  void Check(bool ok, const std::string& what) {
    Op(ok, what);
    if (!ok) correct = false;
  }
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// One round of a workload. A round is a fixed list of operations; every
// round of a run repeats it with the same inputs.

struct RoundFigures {
  double round_s = 0;      // wall time of the whole round (paces the run)
  // Host speed probe time around the round over its nominal value: > 1
  // while other load on the host slowed every core.
  double host_slowdown = 1;
  double work_s = 0;       // host seconds the throughput is measured over
  double records = 0;      // input records completed in work_s
  std::vector<double> setups;  // seconds, one per trial or rt run
};

struct DesRun {
  ExperimentResult result;
  double host_s = 0;
  TrialProbe probe;
  OutputCapture capture;
};

// Runs one trial through RunExperiment with the probing factory.
std::unique_ptr<DesRun> RunDesTrial(const DesTrial& t, bool keep, SpanLog& spans,
                                    int parent) {
  auto run = std::make_unique<DesRun>();
  run->capture.keep = keep;
  ExperimentConfig config = t.config;
  OutputCapture* capture = &run->capture;
  config.output_listener = [capture](const OutputRecord& o) { capture->Observe(o); };
  ProbeLog log;
  const sdps::driver::SutFactory factory =
      Probed(sdps::workloads::MakeEngineFactory(t.engine, t.query, t.tuning), &log);
  const ScopedSpan span(spans, "trial." + EngineName(t.engine), parent);
  const auto t0 = Clock::now();
  MarkCallStart();
  run->result = sdps::driver::RunExperiment(config, factory);
  run->host_s = SecondsSince(t0);
  std::vector<TrialProbe> probes = log.Take();
  if (!probes.empty()) run->probe = probes.front();
  return run;
}

double RecordsOf(const TrialProbe& p, const sdps::driver::GeneratorConfig& g) {
  return static_cast<double>(p.pushed_tuples) / static_cast<double>(g.tuples_per_record);
}

// How a round runs. The first round sets the reference digests; the
// round that keeps its outputs hands them to the oracle checks.
struct RoundMode {
  bool first = false;
  bool traced = false;
  bool keep = false;
};

// The outputs the oracle checks and the digests every round must repeat.
struct Reference {
  std::vector<std::vector<OutputRecord>> outputs;  // per checked run
  std::vector<OutputDigest> digests;
};

// Output check of one run in a round: every round after the first must
// reproduce the first round's outputs exactly; the first round's own
// check is the oracle check, made after the timed rounds on the kept
// outputs.
void CheckAgainstReference(Outcome& out, Reference& ref, size_t slot, RoundMode mode,
                           std::vector<OutputRecord>&& outputs, const OutputDigest& digest,
                           const std::string& label) {
  if (ref.outputs.size() <= slot) {
    ref.outputs.resize(slot + 1);
    ref.digests.resize(slot + 1);
  }
  if (mode.keep) ref.outputs[slot] = std::move(outputs);
  if (mode.first) {
    ref.digests[slot] = digest;
  } else {
    out.Check(digest == ref.digests[slot], label + ": outputs differ from round 1");
  }
}

RoundFigures DesRound(const std::vector<DesTrial>& trials, RoundMode mode, Outcome& out,
                      Reference& ref, SpanLog& spans, int parent,
                      std::map<std::string, double>* engine_host_s,
                      std::vector<TrialProbe>* probes) {
  RoundFigures f;
  const auto t0 = Clock::now();
  // The trials run side by side on the pool, as the figure benches run
  // them under --jobs. Per-core speed on a shared host drifts by tens of
  // percent over seconds; summing host time over trials on every core
  // averages that drift, where one core running them in turn follows it.
  std::vector<std::future<std::unique_ptr<DesRun>>> futures;
  {
    sdps::exec::TrialPool pool(Jobs());
    for (const DesTrial& t : trials) {
      futures.push_back(pool.Submit(
          [&t, keep = mode.keep, &spans, parent] { return RunDesTrial(t, keep, spans, parent); }));
    }
    pool.Shutdown();
  }
  for (size_t i = 0; i < trials.size(); ++i) {
    const DesTrial& t = trials[i];
    std::unique_ptr<DesRun> run = futures[i].get();
    const bool ok = run->result.failure.ok() && run->result.sustainable;
    out.Op(ok, t.label + ": " + run->result.verdict);
    f.work_s += run->host_s;
    f.records += RecordsOf(run->probe, t.config.generator);
    f.setups.push_back(run->probe.setup_s);
    if (engine_host_s != nullptr) (*engine_host_s)[EngineName(t.engine)] += run->host_s;
    if (probes != nullptr) probes->push_back(run->probe);
    CheckAgainstReference(out, ref, i, mode, std::move(run->capture.outputs),
                          run->capture.digest, t.label);
  }
  f.round_s = SecondsSince(t0);
  return f;
}

// Checks one reference output set against the oracle of its trial.
void OracleCheck(const StreamSpec& stream, QueryConfig query, bool exact, double tol,
                 const std::vector<OutputRecord>& outputs, const std::string& label,
                 Outcome& out) {
  const Oracle oracle(stream, query);
  const CheckReport report =
      exact ? oracle.CheckExact(outputs, tol) : oracle.CheckProperties(outputs, tol);
  out.Check(report.ok() && !outputs.empty(),
            label + (exact ? " oracle: " : " properties: ") + report.Summary());
}

// Proves the checks can fail: one output dropped and one value altered
// must both be caught. Returns the number of corruptions caught (0..2).
int CorruptionsCaught(const StreamSpec& stream, QueryConfig query,
                      const std::vector<OutputRecord>& outputs, Outcome* counted) {
  if (outputs.size() < 2) return 0;
  const Oracle oracle(stream, query);
  int caught = 0;
  std::vector<OutputRecord> dropped = outputs;
  dropped.erase(dropped.begin() + static_cast<std::ptrdiff_t>(dropped.size() / 2));
  const CheckReport r1 = oracle.CheckExact(dropped, kFoldTolerance);
  if (r1.missing == 1) ++caught;
  std::vector<OutputRecord> altered = outputs;
  altered[altered.size() / 3].value += 1.0;
  const CheckReport r2 = oracle.CheckExact(altered, kFoldTolerance);
  if (r2.value_mismatch == 1) ++caught;
  if (counted != nullptr) {
    const CheckReport clean = oracle.CheckExact(outputs, kFoldTolerance);
    counted->Check(clean.ok(), "clean outputs: " + clean.Summary());
    counted->Check(r1.ok(), "one output dropped: " + r1.Summary());
    counted->Check(r2.ok(), "one value altered: " + r2.Summary());
  }
  return caught;
}

// ---------------------------------------------------------------------------
// Workload runners. Each runs rounds until the time is used, checks the
// first round against the oracle, and fills the end-to-end metrics; in a
// traced run it also fills the per-layer metrics.

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  std::string out_dir = ".";
  std::string git_sha = "unknown";
  std::string launcher_argv;
};

// Per-layer figures a traced run collects. Every workload prints every
// name: layers its own rounds do not reach are measured on a twin over
// the same generator (rt twin of a DES workload, DES twin of rt_agg);
// only the search counts read 0 outside search_b32.
struct Layers {
  std::vector<TrialProbe> probes;           // DES trials of the traced round
  std::map<std::string, double> counters;   // telemetry counters, traced round
  std::map<std::string, double> engine_host_s;
  double des_trial_host_s = 0;  // host time spent on des_timed_events
  double des_timed_events = 0;
  double des_records = 0;
  double search_trials_run = 0;
  double search_trials_kept = 0;
  double serial_s = 0;
  double parallel_s = 0;
  double parallel_busy_s = 0;
  int jobs = 1;
  LayerReplay replay;
  std::map<std::string, sdps::rt::Profiler::StageReport> rt_roles;
  double ring_occupancy_max = 0;
  double paced_overrun_s = 0;
  double trace_overhead = 0;
};

void AddRtProfile(Layers& layers, const sdps::rt::RtResult& r) {
  if (!r.profiled) return;
  for (const auto& stage : r.profile.stages) {
    std::string role = "task";
    if (stage.name.rfind("rt-src", 0) == 0) role = "source";
    if (stage.name == "rt-sink") role = "sink";
    auto& acc = layers.rt_roles[role];
    acc.wall_s += stage.wall_s;
    acc.compute_s += stage.compute_s;
    acc.stall_s += stage.stall_s;
    acc.wait_s += stage.wait_s;
    acc.idle_s += stage.idle_s;
    acc.records += stage.records;
  }
  for (const auto& ring : r.profile.rings) {
    layers.ring_occupancy_max = std::max(layers.ring_occupancy_max, ring.mean_occupancy);
  }
}

// Runs a DES trial list serially and through exec::TrialPool at `jobs`
// workers; fills the exec layer.
void MeasureTrialPool(const std::vector<DesTrial>& trials, int jobs, Layers& layers,
                      SpanLog& spans) {
  const ScopedSpan span(spans, "exec.trial_pool", -1);
  auto t0 = Clock::now();
  for (const DesTrial& t : trials) RunDesTrial(t, false, spans, span.id());
  layers.serial_s = SecondsSince(t0);
  sdps::exec::TrialPool pool(jobs);
  std::vector<std::future<double>> futures;
  t0 = Clock::now();
  for (const DesTrial& t : trials) {
    futures.push_back(pool.Submit([&t] {
      SpanLog quiet(false);
      return RunDesTrial(t, false, quiet, -1)->host_s;
    }));
  }
  double busy = 0;
  for (auto& f : futures) busy += f.get();
  layers.parallel_s = SecondsSince(t0);
  layers.parallel_busy_s = busy;
  pool.Shutdown();
  layers.jobs = jobs;
}

// The rt twin of a DES workload (traced run only): the Flink model on real
// threads over the workload's first stream, unpaced and checked against
// the same oracle, then a short paced run at the same rate.
void RtTwin(const DesTrial& t, Layers& layers, Outcome& out, SpanLog& spans) {
  const ScopedSpan span(spans, "rt.twin", -1);
  sdps::rt::RtPipelineConfig config = sdps::workloads::MakeRealtime(
      Engine::kFlink, t.query.kind, t.Stream().sources, t.config.total_rate,
      t.config.duration, t.config.seed);
  config.generator = t.config.generator;
  config.num_tasks = 2;
  config.capture_outputs = true;
  config.profile = true;
  const sdps::rt::RtResult unpaced = sdps::rt::RunRtPipeline(config);
  AddRtProfile(layers, unpaced);
  OracleCheck(t.Stream(), t.query, true, t.tolerance(), unpaced.outputs,
              t.label + " rt twin", out);
  config.paced = true;
  config.capture_outputs = false;
  config.duration = Seconds(3);
  const sdps::rt::RtResult paced = sdps::rt::RunRtPipeline(config);
  AddRtProfile(layers, paced);
  layers.paced_overrun_s = paced.wall_seconds - sdps::ToSeconds(config.duration);
}

struct Runner {
  const Args& args;
  Outcome& out;
  SpanLog& spans;
  Layers layers;
  std::vector<RoundFigures> rounds;
  std::vector<RoundFigures> traced_rounds;
  double peak_rss_mb = 0;

  // Runs `round` until the time is used (whole rounds only); in a traced
  // run, untraced and traced rounds alternate. With `keep_in_first` the
  // first round keeps its outputs for the oracle. Otherwise the timed
  // rounds keep none (so peak memory is the program's), and one more
  // round after them keeps its outputs and must repeat the digests.
  //
  // With `probe_threads` > 0 each round's timings are scaled by the host
  // speed probe run on that many threads around it (see README.md).
  void RunRounds(bool keep_in_first, int probe_threads,
                 const std::function<RoundFigures(RoundMode)>& round) {
    const auto t0 = Clock::now();
    const double rounds_left_after = keep_in_first ? 1 : 2;
    const auto probe = [probe_threads] {
      return probe_threads > 0 ? HostSpeedProbe(probe_threads) : kProbeNominalS;
    };
    double probe_before = probe();
    for (int i = 0;; ++i) {
      RoundMode mode;
      mode.first = i == 0;
      mode.traced = args.trace && i % 2 == 1;
      mode.keep = keep_in_first && mode.first;
      if (mode.traced) {
        layers.rt_roles.clear();
        layers.ring_occupancy_max = 0;
        sdps::obs::Registry::Default().ResetValues();
        sdps::obs::Registry::Default().set_enabled(true);
      }
      RoundFigures f = round(mode);
      if (mode.traced) {
        sdps::obs::Registry::Default().set_enabled(false);
        layers.counters = CounterTotals();
      }
      const double probe_after = probe();
      f.host_slowdown = 0.5 * (probe_before + probe_after) / kProbeNominalS;
      probe_before = probe_after;
      // The peak of one whole round. Later rounds only add what the
      // allocator keeps from earlier ones, which varies with how rt
      // threads happen to be assigned malloc arenas.
      if (mode.first) peak_rss_mb = PeakRssMb();
      (mode.traced ? traced_rounds : rounds).push_back(f);
      const double elapsed = SecondsSince(t0);
      const bool need_traced = args.trace && traced_rounds.empty();
      if (!need_traced && elapsed + rounds_left_after * f.round_s > args.seconds) break;
    }
    if (!keep_in_first) {
      RoundMode check;
      check.keep = true;
      round(check);
    }
    if (args.trace) {
      std::vector<double> ratios;
      for (size_t i = 0; i < traced_rounds.size() && i < rounds.size(); ++i) {
        ratios.push_back(traced_rounds[i].round_s / rounds[i].round_s);
      }
      layers.trace_overhead = Median(ratios);
    }
  }

  void EndToEnd() {
    std::vector<double> rps, setup, raw_rps, raw_setup, slowdown;
    for (const RoundFigures& f : rounds) {
      raw_rps.push_back(f.records / f.work_s);
      rps.push_back(raw_rps.back() * f.host_slowdown);
      for (double s : f.setups) {
        raw_setup.push_back(s);
        setup.push_back(s / f.host_slowdown);
      }
      slowdown.push_back(f.host_slowdown);
    }
    out.Add("records_per_s", Median(rps), "records/s");
    out.Add("setup_s", Median(setup), "s");
    out.Add("peak_rss_mb", peak_rss_mb, "MB");
    std::fprintf(stderr,
                 "%zu timed rounds; host slowdown %.4f; unscaled records_per_s %.6g, "
                 "setup_s %.6g\n",
                 rounds.size(), Median(slowdown), Median(raw_rps), Median(raw_setup));
  }

  void PerLayer() {
    Layers& l = layers;
    double events = 0, popped = 0, outputs = 0;
    for (const TrialProbe& p : l.probes) {
      events += static_cast<double>(p.events);
      popped += static_cast<double>(p.popped_tuples);
      outputs += static_cast<double>(p.sink_outputs);
    }
    const auto counter = [&l](const std::string& name) {
      const auto it = l.counters.find(name);
      return it == l.counters.end() ? 0.0 : it->second;
    };
    const auto per = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    out.Add("des.events", events, "count");
    out.Add("des.events_per_record", per(events, l.des_records), "ratio");
    out.Add("des.ns_per_event", per(l.des_trial_host_s * 1e9, l.des_timed_events), "ns");
    out.Add("driver.stream_ns_per_record", l.replay.stream_ns_per_record, "ns");
    out.Add("driver.queue_popped_tuples", popped, "count");
    out.Add("driver.sink_outputs", outputs, "count");
    out.Add("driver.search_trials_run", l.search_trials_run, "count");
    out.Add("driver.search_trials_kept", l.search_trials_kept, "count");
    out.Add("driver.search_useful_ratio", per(l.search_trials_kept, l.search_trials_run),
            "ratio");
    const double transfers = counter("cluster.net.transfers");
    out.Add("cluster.net_transfers", transfers, "count");
    out.Add("cluster.net_transfers_per_record", per(transfers, l.des_records), "ratio");
    out.Add("cluster.net_bytes", counter("cluster.net.bytes"), "bytes");
    out.Add("cluster.gc_pauses", counter("cluster.gc.pauses"), "count");
    for (Engine e : kEngines) {
      out.Add("engines." + Lower(EngineName(e)) + "_host_s", l.engine_host_s[EngineName(e)], "s");
    }
    out.Add("engines.records_processed", counter("engine.records.processed"), "count");
    out.Add("engines.windows_fired", counter("engine.window.fired"), "count");
    out.Add("engines.shuffle_bytes", counter("engine.shuffle.bytes"), "bytes");
    out.Add("engines.spark_jobs", counter("engine.batch.jobs"), "count");
    out.Add("state.agg_ns_per_record", l.replay.agg_ns_per_record, "ns");
    out.Add("state.buffered_ns_per_record", l.replay.buffered_ns_per_record, "ns");
    out.Add("state.join_ns_per_record", l.replay.join_ns_per_record, "ns");
    out.Add("shuffle.partition_ns_per_record", l.replay.partition_ns_per_record, "ns");
    out.Add("shuffle.combine_ns_per_record", l.replay.combine_ns_per_record, "ns");
    out.Add("shuffle.combine_out_per_in", l.replay.combine_out_per_in, "ratio");
    out.Add("exec.serial_s", l.serial_s, "s");
    out.Add("exec.speedup", per(l.serial_s, l.parallel_s), "ratio");
    out.Add("exec.efficiency", per(l.parallel_busy_s, l.jobs * l.parallel_s), "ratio");
    // Per role, the profiler's times that are not zero by construction: a
    // source has no input ring to wait on and the sink no output ring to
    // stall on. Stalls are summed over roles into one share of thread
    // wall time, since the rings rarely fill.
    double stall = 0, wall = 0;
    for (const char* role : {"source", "task", "sink"}) {
      const auto& r = l.rt_roles[role];
      const std::string p = std::string("rt.") + role;
      out.Add(p + ".compute_s", r.compute_s, "s");
      if (p != "rt.source") out.Add(p + ".wait_s", r.wait_s, "s");
      if (p == "rt.source") out.Add(p + ".idle_s", r.idle_s, "s");
      out.Add(p + ".records", static_cast<double>(r.records), "count");
      stall += r.stall_s;
      wall += r.wall_s;
    }
    out.Add("rt.stall_share", per(stall, wall), "ratio");
    out.Add("rt.ring_mean_occupancy_max", l.ring_occupancy_max, "envelopes");
    out.Add("rt.paced_overrun_s", l.paced_overrun_s, "s");
    out.Add("obs.trace_overhead", l.trace_overhead, "ratio");
  }

  // Traced-run bookkeeping shared by the DES workloads.
  void NoteDesLayers(const std::vector<TrialProbe>& probes,
                     const sdps::driver::GeneratorConfig& generator) {
    layers.probes = probes;
    layers.des_records = 0;
    layers.des_timed_events = 0;
    for (const TrialProbe& p : probes) {
      layers.des_records += RecordsOf(p, generator);
      layers.des_timed_events += static_cast<double>(p.events);
    }
  }

  void CheckNoLateDrops() {
    const auto it = layers.counters.find("engine.late.dropped_tuples");
    const double late = it == layers.counters.end() ? 0 : it->second;
    out.Check(late == 0, "late-dropped tuples in the traced round: " + std::to_string(late));
  }

  // ---- paper_b1 / shuffle_2m ----------------------------------------------
  void DesWorkload(const std::vector<DesTrial>& trials) {
    Reference ref;
    RunRounds(false, Jobs(), [&](RoundMode mode) {
      const ScopedSpan span(spans, mode.traced ? "round.traced" : "round", -1);
      SpanLog quiet(false);
      std::vector<TrialProbe> probes;
      std::map<std::string, double> host;
      const RoundFigures f = DesRound(trials, mode, out, ref, mode.traced ? spans : quiet,
                                      span.id(), &host, &probes);
      if (mode.traced) {
        layers.engine_host_s = host;
        layers.des_trial_host_s = f.work_s;
        NoteDesLayers(probes, trials.front().config.generator);
      }
      return f;
    });
    for (size_t i = 0; i < trials.size(); ++i) {
      const DesTrial& t = trials[i];
      OracleCheck(t.Stream(), t.query, t.exact(), t.tolerance(), ref.outputs[i], t.label, out);
    }
    SelfCheck(trials.front().Stream(), trials.front().query, ref.outputs.front());
    if (args.trace) {
      CheckNoLateDrops();
      MeasureTrialPool(trials, Jobs(), layers, spans);
      layers.replay = ReplayLayers(Prefix(trials.front().Stream(), 1'000'000),
                                   trials.front().query.window, spans, -1);
      RtTwin(trials.front(), layers, out, spans);
    }
  }

  // Every run also proves its checks are live on one exactly checked
  // (Flink) output set: a dropped output and an altered value must fail.
  void SelfCheck(const StreamSpec& stream, QueryConfig query,
                 const std::vector<OutputRecord>& outputs) {
    const int caught = CorruptionsCaught(stream, query, outputs, nullptr);
    if (caught != 2) {
      out.correct = false;
      std::fprintf(stderr, "check self-test: %d of 2 corruptions caught\n", caught);
    }
  }

  // ---- search_b32 --------------------------------------------------------
  struct Search {
    Engine engine;
    ExperimentConfig base;
    sdps::driver::SearchConfig search;
    double paper_rate;
  };

  std::vector<Search> Searches(int jobs) const {
    std::vector<Search> searches;
    for (int i = 0; i < 3; ++i) {
      Search s;
      s.engine = kEngines[i];
      s.paper_rate = kTable1TwoNode[i] * 1e6;
      const double start = kSearchStartFactor * s.paper_rate;
      s.base = sdps::workloads::MakeExperiment(QueryKind::kAggregation, 2, start);
      s.base.batch = 32;
      s.base.seed = TrialSeed(args.seed, i);
      s.search.initial_rate = start;
      s.search.trial_duration = kSearchTrial;
      s.search.jobs = jobs;
      searches.push_back(s);
    }
    return searches;
  }

  // Def. 5 properties of one finished search.
  void CheckSearch(const Search& s, const sdps::driver::SearchResult& r) {
    const std::string name = EngineName(s.engine) + " search";
    const double rate = r.sustainable_rate;
    bool kept_ok = false;
    double lowest_above = -1;
    for (const auto& t : r.trials) {
      if (t.rate == rate && t.sustainable) kept_ok = true;
      if (!t.sustainable && t.rate > rate && (lowest_above < 0 || t.rate < lowest_above)) {
        lowest_above = t.rate;
      }
    }
    const double resolution = rate * (1.0 / s.search.decrease_factor - 1.0) /
                              std::pow(2.0, s.search.refine_iterations);
    const sdps::report::ShapeCheck band{name, s.paper_rate / 1e6, rate / 1e6, kShapeBand};
    const bool started_high = !r.trials.empty() && !r.trials.front().sustainable;
    const bool ok = rate > 0 && kept_ok && started_high && lowest_above > 0 &&
                    lowest_above - rate <= resolution * (1 + 1e-9) && band.Pass();
    out.Check(ok, name + ": rate " + std::to_string(rate) + " sustained-by-own-trial=" +
                      std::to_string(kept_ok) + " first-trial-unsustainable=" +
                      std::to_string(started_high) + " next-unsustained=" +
                      std::to_string(lowest_above) + " resolution=" +
                      std::to_string(resolution) + " band: " + band.ToString());
  }

  void SearchWorkload() {
    const int jobs = Jobs();
    Reference ref;
    std::vector<sdps::driver::SearchResult> first_results;
    std::vector<DesTrial> confirms;
    RunRounds(true, jobs, [&](RoundMode mode) {
      const ScopedSpan span(spans, mode.traced ? "round.traced" : "round", -1);
      SpanLog quiet(false);
      SpanLog& log = mode.traced ? spans : quiet;
      RoundFigures f;
      std::vector<sdps::driver::SearchResult> results;
      ProbeLog probes;
      std::map<std::string, double> host;
      const auto t0 = Clock::now();
      const std::vector<Search> searches = Searches(jobs);
      for (const Search& s : searches) {
        const ScopedSpan trial_span(log, "search." + EngineName(s.engine), span.id());
        const auto ts = Clock::now();
        results.push_back(sdps::driver::FindSustainableThroughput(
            s.base,
            Probed(sdps::workloads::MakeEngineFactory(
                       s.engine, QueryConfig{QueryKind::kAggregation, {}}, {}),
                   &probes),
            s.search));
        host[EngineName(s.engine)] += SecondsSince(ts);
        out.Op(results.back().sustainable_rate > 0, EngineName(s.engine) + " search ran");
      }
      f.work_s = SecondsSince(t0);
      const std::vector<TrialProbe> run = probes.Take();
      const Search& s = searches.front();
      for (const TrialProbe& p : run) {
        f.records += RecordsOf(p, s.base.generator);
        f.setups.push_back(p.setup_s);
      }
      // Def. 5 properties, and the measurement run at each found rate
      // (drained, so its outputs go to the oracle).
      for (size_t i = 0; i < searches.size(); ++i) {
        CheckSearch(searches[i], results[i]);
        DesTrial confirm;
        confirm.engine = searches[i].engine;
        confirm.label = EngineName(confirm.engine) + "_at_sustainable_rate";
        confirm.config = searches[i].base;
        confirm.config.total_rate = results[i].sustainable_rate;
        confirm.config.duration = kSearchTrial;
        confirm.config.drain = kDrain;
        std::unique_ptr<DesRun> c = RunDesTrial(confirm, mode.keep, log, span.id());
        out.Op(c->result.failure.ok() && c->result.sustainable,
               confirm.label + ": " + c->result.verdict);
        CheckAgainstReference(out, ref, i, mode, std::move(c->capture.outputs),
                              c->capture.digest, confirm.label);
        if (mode.first) confirms.push_back(confirm);
      }
      if (mode.first) first_results = results;
      if (mode.traced) {
        layers.engine_host_s = host;
        layers.probes = run;
        layers.des_records = f.records;
        layers.search_trials_run = static_cast<double>(run.size());
        layers.search_trials_kept = 0;
        for (const auto& r : results) layers.search_trials_kept += r.trials.size();
      } else {
        // The exec figures compare untraced searches with the untraced
        // jobs=1 baseline.
        layers.parallel_s = f.work_s;
        layers.parallel_busy_s = 0;
        for (const TrialProbe& p : run) layers.parallel_busy_s += p.run_s;
      }
      f.round_s = SecondsSince(t0);
      return f;
    });
    for (size_t i = 0; i < confirms.size(); ++i) {
      const DesTrial& t = confirms[i];
      OracleCheck(t.Stream(), t.query, t.exact(), t.tolerance(), ref.outputs[i], t.label, out);
    }
    SelfCheck(confirms.front().Stream(), confirms.front().query, ref.outputs.front());
    if (args.trace) {
      CheckNoLateDrops();
      SerialSearchBaseline(first_results, jobs);
      layers.replay = ReplayLayers(Prefix(confirms.front().Stream(), 1'000'000),
                                   confirms.front().query.window, spans, -1);
      RtTwin(confirms.front(), layers, out, spans);
    }
  }

  // The same searches at jobs=1: the exec layer's single-threaded
  // baseline, which must return the same rates and trial lists.
  void SerialSearchBaseline(const std::vector<sdps::driver::SearchResult>& parallel,
                            int jobs) {
    const ScopedSpan span(spans, "exec.serial_search", -1);
    ProbeLog probes;
    const auto t0 = Clock::now();
    std::vector<Search> searches = Searches(1);
    for (size_t i = 0; i < searches.size(); ++i) {
      const Search& s = searches[i];
      const sdps::driver::SearchResult r = sdps::driver::FindSustainableThroughput(
          s.base,
          Probed(sdps::workloads::MakeEngineFactory(
                     s.engine, QueryConfig{QueryKind::kAggregation, {}}, {}),
                 &probes),
          s.search);
      bool same = r.sustainable_rate == parallel[i].sustainable_rate &&
                  r.trials.size() == parallel[i].trials.size();
      for (size_t k = 0; same && k < r.trials.size(); ++k) {
        same = r.trials[k].rate == parallel[i].trials[k].rate &&
               r.trials[k].sustainable == parallel[i].trials[k].sustainable &&
               r.trials[k].verdict == parallel[i].trials[k].verdict;
      }
      out.Check(same, EngineName(s.engine) + " search: jobs=1 and jobs=" +
                          std::to_string(jobs) + " differ");
    }
    layers.serial_s = SecondsSince(t0);
    layers.jobs = jobs;
    // At jobs=1 every trial runs on this thread back to back: host time
    // per DES event comes from here, not from the overlapping parallel
    // trials.
    layers.des_trial_host_s = 0;
    layers.des_timed_events = 0;
    for (const TrialProbe& p : probes.Take()) {
      layers.des_trial_host_s += p.run_s;
      layers.des_timed_events += static_cast<double>(p.events);
    }
  }

  // ---- rt_agg -------------------------------------------------------------
  void RtWorkload() {
    Reference ref;
    std::vector<sdps::rt::RtPipelineConfig> checked;
    // Unscaled: capacity is bound by one pinned source thread, and it held
    // steady while the all-core probe read three times its nominal time.
    RunRounds(true, 0, [&](RoundMode mode) {
      const ScopedSpan span(spans, mode.traced ? "round.traced" : "round", -1);
      SpanLog quiet(false);
      SpanLog& log = mode.traced ? spans : quiet;
      RoundFigures f;
      const auto t0 = Clock::now();
      size_t slot = 0;
      const auto run_one = [&](Engine engine, bool paced) {
        sdps::rt::RtPipelineConfig config =
            RtConfig(engine, TrialSeed(args.seed, static_cast<int>(slot)), paced);
        config.profile = mode.traced;
        const std::string label =
            EngineName(engine) + (paced ? "_rt_paced" : "_rt_unpaced");
        const ScopedSpan run_span(log, "rt." + label, span.id());
        const auto tc = Clock::now();
        sdps::rt::RtResult r = sdps::rt::RunRtPipeline(config);
        const double call_s = SecondsSince(tc);
        out.Op(r.failure.ok(), label + ": " + r.failure.ToString());
        out.Check(r.late_dropped_tuples == 0,
                  label + ": late-dropped tuples " + std::to_string(r.late_dropped_tuples));
        f.setups.push_back(call_s - r.wall_seconds);
        if (mode.traced) {
          AddRtProfile(layers, r);
          if (paced) {
            layers.paced_overrun_s = r.wall_seconds - sdps::ToSeconds(config.duration);
          }
        }
        OutputDigest digest;
        for (const OutputRecord& o : r.outputs) digest.Add(o);
        if (mode.first) checked.push_back(config);
        CheckAgainstReference(out, ref, slot++, mode, std::move(r.outputs), digest, label);
        return r;
      };
      for (Engine engine : kEngines) {
        const sdps::rt::RtResult r = run_one(engine, false);
        f.records += static_cast<double>(r.input_records);
        f.work_s += r.wall_seconds;
      }
      // The paced run's sink latency is logged only: RtResult reports it
      // at the 5% bucket resolution of obs::QuantileSketch.
      const sdps::rt::RtResult paced = run_one(Engine::kFlink, true);
      std::fprintf(stderr, "paced: %llu outputs, sink latency p50 <= %.1f ms, p99 <= %.1f ms\n",
                   static_cast<unsigned long long>(paced.output_records),
                   paced.event_p50_s * 1e3, paced.event_p99_s * 1e3);
      f.round_s = SecondsSince(t0);
      return f;
    });
    for (size_t i = 0; i < checked.size(); ++i) {
      const auto& c = checked[i];
      const bool exact = c.model != sdps::rt::RtPipelineConfig::Model::kSpark;
      OracleCheck(RtStream(c), c.query, exact, kFoldTolerance, ref.outputs[i],
                  "rt run " + std::to_string(i), out);
    }
    SelfCheck(RtStream(checked.front()), checked.front().query, ref.outputs.front());
    if (args.trace) {
      const std::vector<DesTrial> twin = RtTwinTrials(args.seed);
      sdps::obs::Registry::Default().ResetValues();
      sdps::obs::Registry::Default().set_enabled(true);
      Reference twin_ref;
      std::vector<TrialProbe> probes;
      std::map<std::string, double> host;
      const ScopedSpan span(spans, "des.twin", -1);
      RoundMode twin_mode;
      twin_mode.first = true;
      twin_mode.keep = true;
      const RoundFigures f =
          DesRound(twin, twin_mode, out, twin_ref, spans, span.id(), &host, &probes);
      sdps::obs::Registry::Default().set_enabled(false);
      layers.counters = CounterTotals();
      layers.engine_host_s = host;
      layers.des_trial_host_s = f.work_s;
      NoteDesLayers(probes, twin.front().config.generator);
      for (size_t i = 0; i < twin.size(); ++i) {
        OracleCheck(twin[i].Stream(), twin[i].query, twin[i].exact(), twin[i].tolerance(),
                    twin_ref.outputs[i], twin[i].label + " des twin", out);
      }
      CheckNoLateDrops();
      MeasureTrialPool(twin, Jobs(), layers, spans);
      layers.replay = ReplayLayers(Prefix(RtStream(checked.front()), 1'000'000),
                                   checked.front().query.window, spans, -1);
    }
  }
};

// ---------------------------------------------------------------------------
// Output: the manifest and result files beside each other, and the result
// line on stdout.

std::string JsonEscape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o;
}

std::string ReadFirstLine(const std::string& path, const std::string& prefix) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) return line;
      size_t b = colon + 1;
      while (b < line.size() && line[b] == ' ') ++b;
      return line.substr(b);
    }
  }
  return "unknown";
}

const char* SimdBackend() {
#if defined(SDPS_GROUP_HASH_SSE2)
  return "sse2";
#elif defined(SDPS_GROUP_HASH_NEON)
  return "neon";
#else
  return "swar";
#endif
}

std::string ResultJson(const Outcome& o) {
  std::string s = "{\"correct\": ";
  s += o.correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(o.attempted);
  s += ", \"failed\": " + std::to_string(o.failed);
  s += ", \"metrics\": {";
  for (size_t i = 0; i < o.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", o.metrics[i].value);
    s += (i == 0 ? "\"" : ", \"") + o.metrics[i].name + "\": {\"value\": " + value +
         ", \"unit\": \"" + o.metrics[i].unit + "\"}";
  }
  s += "}}";
  return s;
}

void WriteFiles(const Args& a, const std::string& result, const SpanLog& spans) {
  const std::string stem = a.out_dir + "/" + (a.selftest ? "selftest" : a.workload) +
                           "-seed" + std::to_string(a.seed) + "-trace" +
                           (a.trace ? "1" : "0");
  std::ofstream manifest(stem + ".manifest.json");
  manifest << "{\n"
           << "  \"cpu_model\": \""
           << JsonEscape(ReadFirstLine("/proc/cpuinfo", "model name")) << "\",\n"
           << "  \"nproc\": " << Nproc() << ",\n"
           << "  \"l3_cache\": \""
           << JsonEscape(ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size", ""))
           << "\",\n"
           << "  \"simd_backend\": \"" << SimdBackend() << "\",\n"
           << "  \"build_type\": \"" << SDPS_E2E_BUILD_TYPE << "\",\n"
           << "  \"git_sha\": \"" << JsonEscape(a.git_sha) << "\",\n"
           << "  \"workload\": \"" << JsonEscape(a.workload) << "\",\n"
           << "  \"seed\": " << a.seed << ",\n"
           << "  \"seconds\": " << a.seconds << ",\n"
           << "  \"trace\": " << (a.trace ? 1 : 0) << ",\n"
           << "  \"argv\": \"" << JsonEscape(a.launcher_argv) << "\"\n"
           << "}\n";
  std::ofstream(stem + ".result.json") << result << "\n";
  if (a.trace) spans.WriteChromeTrace(stem + ".spans.json");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&arg](const char* flag, std::string* v) {
      const std::string f = std::string(flag) + "=";
      if (arg.rfind(f, 0) != 0) return false;
      *v = arg.substr(f.size());
      return true;
    };
    std::string v;
    if (value("--workload", &v)) {
      a->workload = v;
    } else if (value("--seed", &v)) {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (value("--seconds", &v)) {
      a->seconds = std::atof(v.c_str());
    } else if (value("--trace", &v)) {
      a->trace = v == "1";
    } else if (value("--out-dir", &v)) {
      a->out_dir = v;
    } else if (value("--git-sha", &v)) {
      a->git_sha = v;
    } else if (value("--argv", &v)) {
      a->launcher_argv = v;
    } else if (arg == "--selftest") {
      a->selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return a->selftest || !a->workload.empty();
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: sdps_e2ebench --workload=paper_b1|search_b32|shuffle_2m|rt_agg "
                 "--seed=N --seconds=S --trace=0|1 --out-dir=DIR | --selftest\n");
    return 2;
  }
  Outcome out;
  SpanLog spans(args.trace);
  if (args.selftest) {
    // Corrupted outputs must fail the checks: the clean set passes, the
    // set with one output dropped and the set with one value altered each
    // count as a failed operation.
    DesTrial t = PaperB1Trials(args.seed).front();
    std::unique_ptr<DesRun> run = RunDesTrial(t, true, spans, -1);
    const int caught = CorruptionsCaught(t.Stream(), t.query, run->capture.outputs, &out);
    out.correct = caught == 2 && out.failed == 2 && out.attempted == 3;
    const std::string result = ResultJson(out);
    WriteFiles(args, result, spans);
    std::printf("%s\n", result.c_str());
    return out.correct ? 0 : 1;
  }
  Runner runner{args, out, spans, {}, {}, {}, 0};
  if (args.workload == "paper_b1") {
    runner.DesWorkload(PaperB1Trials(args.seed));
  } else if (args.workload == "shuffle_2m") {
    runner.DesWorkload(ShuffleTrials(args.seed));
  } else if (args.workload == "search_b32") {
    runner.SearchWorkload();
  } else if (args.workload == "rt_agg") {
    runner.RtWorkload();
  } else {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  if (args.trace) {
    runner.PerLayer();
  } else {
    runner.EndToEnd();
  }
  const std::string result = ResultJson(out);
  WriteFiles(args, result, spans);
  std::printf("%s\n", result.c_str());
  return 0;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) { return e2ebench::Main(argc, argv); }
