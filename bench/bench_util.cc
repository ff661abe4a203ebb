#include "bench_util.h"

#include <sys/stat.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/csv.h"
#include "common/strings.h"
#include "engine/batch.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/lineage.h"
#include "obs/log_bridge.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sdps::bench {

namespace {

/// Strips `--<flag>=` and returns the value, or false if `arg` is some
/// other argument.
bool ConsumeFlag(const char* arg, const char* prefix, std::string* value) {
  const size_t len = std::strlen(prefix);
  if (std::strncmp(arg, prefix, len) != 0) return false;
  *value = arg + len;
  return true;
}

/// File writes that failed anywhere in this process (telemetry dumps,
/// WriteSeries). Exit() folds this into the process exit code so a bench
/// never reports success over silently truncated results. Atomic: series
/// writes can happen from exec::TrialPool workers under --jobs=N.
std::atomic<int> g_write_failures{0};

/// Trial-level parallelism from --jobs=N (TelemetryScope consumes it
/// before any bench code runs).
int g_jobs = 1;

/// Data-plane batch size from --batch=N (1 = one record per admission).
int g_batch = 1;

/// Realtime backend requested via --realtime.
bool g_realtime = false;

/// Realtime observability: --rt-trace=FILE / --rt-profile.
bool g_rt_trace = false;
bool g_rt_profile = false;

/// True when the user passed --jobs=N explicitly (as opposed to the
/// default); --realtime needs to know to print the override diagnostic.
bool g_jobs_explicit = false;

void WriteDump(const char* what, const std::string& path, const Status& status) {
  if (status.ok()) {
    std::fprintf(stderr, "[obs] %s written to %s\n", what, path.c_str());
  } else {
    ++g_write_failures;
    std::fprintf(stderr, "[obs] failed to write %s %s: %s\n", what, path.c_str(),
                 status.ToString().c_str());
  }
}

}  // namespace

TelemetryScope::TelemetryScope(int& argc, char** argv) {
  int kept = 1;
  std::string jobs_value;
  for (int i = 1; i < argc; ++i) {
    if (ConsumeFlag(argv[i], "--trace=", &trace_path_) ||
        ConsumeFlag(argv[i], "--metrics=", &metrics_path_) ||
        ConsumeFlag(argv[i], "--metrics-csv=", &metrics_csv_path_) ||
        ConsumeFlag(argv[i], "--lineage-csv=", &lineage_csv_path_)) {
      continue;
    }
    if (ConsumeFlag(argv[i], "--jobs=", &jobs_value)) {
      g_jobs = exec::ResolveJobs(std::atoi(jobs_value.c_str()));
      g_jobs_explicit = true;
      continue;
    }
    if (std::strcmp(argv[i], "--realtime") == 0) {
      g_realtime = true;
      continue;
    }
    if (ConsumeFlag(argv[i], "--rt-trace=", &rt_trace_path_)) {
      g_rt_trace = true;
      continue;
    }
    if (std::strcmp(argv[i], "--rt-profile") == 0) {
      g_rt_profile = true;
      continue;
    }
    if (ConsumeFlag(argv[i], "--flight-dump=", &flight_dump_path_)) continue;
    std::string batch_value;
    if (ConsumeFlag(argv[i], "--batch=", &batch_value)) {
      g_batch = std::max(1, std::atoi(batch_value.c_str()));
      engine::SetDefaultDataPlaneBatch(g_batch);
      continue;
    }
    argv[kept++] = argv[i];
  }
  argc = kept;

  // Realtime trials measure the hardware itself: every pipeline stage is
  // a pinned OS thread, so running trials in parallel would contend for
  // the cores under measurement and corrupt the numbers. Force serial
  // trials, loudly, rather than silently oversubscribing.
  if (g_realtime && g_jobs != 1) {
    std::fprintf(stderr,
                 "--realtime: overriding %s to --jobs=1 — realtime trials run "
                 "pinned threads on the physical cores and must not share them "
                 "with concurrent trials\n",
                 g_jobs_explicit ? "the explicit --jobs setting" : "--jobs");
    g_jobs = 1;
  }

  if (!trace_path_.empty() || !metrics_path_.empty() || !metrics_csv_path_.empty() ||
      !lineage_csv_path_.empty()) {
    obs::Registry::Default().set_enabled(true);
    obs::InstallLogCounters();
  }
  if (!trace_path_.empty()) obs::Tracer::Default().set_enabled(true);
  if (!lineage_csv_path_.empty()) obs::LineageTracker::Default().set_enabled(true);
  // --rt-trace: the main thread's tracer receives every worker's merged
  // spans at pipeline join; enabling it here makes ClockGuard reset the
  // ring per run, so the dump shows the last pipeline executed.
  if (!rt_trace_path_.empty()) obs::Tracer::Default().set_enabled(true);
  // --rt-profile mirrors sampler readings into the registry gauges;
  // enable the registry so they are live even without --metrics=.
  if (g_rt_profile) obs::Registry::Default().set_enabled(true);
  if (!flight_dump_path_.empty()) {
    obs::FlightRecorder::set_enabled(true);
    obs::FlightRecorder::SetDumpPath(flight_dump_path_);
    obs::FlightRecorder::InstallCrashHandler();
  }
}

TelemetryScope::~TelemetryScope() { (void)Flush(); }

Status TelemetryScope::Flush() {
  if (flushed_) return Status::OK();
  flushed_ = true;
  Status first = Status::OK();
  const auto dump = [&first](const char* what, const std::string& path,
                             const Status& status) {
    WriteDump(what, path, status);
    if (first.ok() && !status.ok()) first = status;
  };
  if (!trace_path_.empty()) {
    dump("trace", trace_path_, obs::WriteChromeTrace(trace_path_, obs::Tracer::Default()));
  }
  if (!metrics_path_.empty()) {
    dump("metrics", metrics_path_,
         obs::WritePrometheusText(metrics_path_, obs::Registry::Default()));
  }
  if (!metrics_csv_path_.empty()) {
    dump("metrics csv", metrics_csv_path_,
         obs::WriteMetricsCsv(metrics_csv_path_, obs::Registry::Default()));
  }
  if (!lineage_csv_path_.empty()) {
    dump("lineage csv", lineage_csv_path_,
         obs::WriteLineageCsv(lineage_csv_path_, obs::LineageTracker::Default()));
  }
  if (!rt_trace_path_.empty()) {
    dump("rt trace", rt_trace_path_,
         obs::WriteChromeTrace(rt_trace_path_, obs::Tracer::Default()));
  }
  if (!flight_dump_path_.empty()) {
    // Unconditional end-of-run dump: the artifact exists even when no
    // watchdog or fault tripped (a triggered dump earlier in the run was
    // a snapshot of the same rings; this one supersedes it).
    dump("flight dump", flight_dump_path_,
         obs::FlightRecorder::DumpTo(flight_dump_path_, "end of run"));
  }
  return first;
}

int Exit(TelemetryScope& telemetry, int code) {
  (void)telemetry.Flush();
  if (code != 0) return code;
  const int failures = g_write_failures.load();
  if (failures > 0) {
    std::fprintf(stderr, "%d result file write(s) failed\n", failures);
    return 2;
  }
  return 0;
}

int Jobs() { return g_jobs; }

int BatchSize() { return g_batch; }

bool Realtime() { return g_realtime; }

bool RtTrace() { return g_rt_trace; }

bool RtProfile() { return g_rt_profile; }

void ParseFlagsOrExit(const FlagParser& parser, int argc, char** argv) {
  const Status status = parser.Parse(argc, argv);
  if (status.ok()) return;
  std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
               parser.Usage(argv[0]).c_str());
  std::exit(2);
}

namespace {

const char* QueryName(engine::QueryKind q) {
  return q == engine::QueryKind::kJoin ? "join" : "agg";
}

std::string CacheKey(workloads::Engine engine, engine::QueryKind query, int workers,
                     const workloads::EngineTuning& tuning) {
  std::string key = workloads::EngineName(engine) + "/" + QueryName(query) + "/" +
                    StrFormat("%d", workers);
  if (!tuning.storm_backpressure) key += "/nobp";
  if (!tuning.spark_tree_aggregate) key += "/notree";
  if (tuning.spark_inverse_reduce) key += "/inv";
  if (!tuning.spark_cache_window) key += "/nocache";
  if (tuning.recovery) key += "/rec";
  return key;
}

}  // namespace

std::string ResultsPath(const std::string& name) {
  ::mkdir("results", 0755);  // ignore EEXIST
  return "results/" + name;
}

namespace {

bool LookupCachedRate(const std::string& cache_path, const std::string& key,
                      double* rate) {
  std::ifstream in(cache_path);
  std::string line;
  while (std::getline(in, line)) {
    const auto fields = StrSplit(line, ',');
    if (fields.size() == 2 && fields[0] == key) {
      *rate = atof(fields[1].c_str());
      return true;
    }
  }
  return false;
}

void AppendCachedRate(const std::string& cache_path, const std::string& key,
                      double rate) {
  std::ofstream out(cache_path, std::ios::app);
  out << key << "," << StrFormat("%.0f", rate) << "\n";
  out.flush();
  if (!out) {
    // The cache is an optimisation, but a truncated line would poison
    // later runs — surface it as a write failure.
    ++g_write_failures;
    std::fprintf(stderr, "failed to append %s to %s\n", key.c_str(), cache_path.c_str());
  }
}

double SearchRate(const RateQuery& q, int search_jobs) {
  driver::ExperimentConfig base = workloads::MakeExperiment(q.query, q.workers, q.hint);
  driver::SearchConfig search;
  search.initial_rate = q.hint;
  search.trial_duration = Seconds(60);
  search.jobs = search_jobs;
  return driver::FindSustainableThroughput(
             base,
             workloads::MakeEngineFactory(q.engine, engine::QueryConfig{q.query, {}},
                                          q.tuning),
             search)
      .sustainable_rate;
}

}  // namespace

double SustainableRate(workloads::Engine engine, engine::QueryKind query, int workers,
                       double hint, workloads::EngineTuning tuning) {
  return SustainableRates({RateQuery{engine, query, workers, hint, tuning}})[0];
}

std::vector<double> SustainableRates(const std::vector<RateQuery>& queries) {
  const std::string cache_path = ResultsPath("rates_cache.csv");
  std::vector<double> rates(queries.size(), 0.0);
  // Misses deduplicated by cache key, preserving first-miss order — the
  // order the serial code would have appended cache lines in.
  std::vector<size_t> unique;  // index of each distinct missed query
  std::vector<std::string> unique_keys;
  std::vector<std::pair<size_t, size_t>> aliases;  // (query idx, unique idx)
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string key =
        CacheKey(queries[i].engine, queries[i].query, queries[i].workers,
                 queries[i].tuning);
    if (LookupCachedRate(cache_path, key, &rates[i])) continue;
    const auto it = std::find(unique_keys.begin(), unique_keys.end(), key);
    if (it != unique_keys.end()) {
      aliases.emplace_back(i, static_cast<size_t>(it - unique_keys.begin()));
      continue;
    }
    aliases.emplace_back(i, unique.size());
    unique.push_back(i);
    unique_keys.push_back(key);
  }
  if (unique.empty()) return rates;

  // One missing search gets the whole --jobs budget inside the search;
  // several run side by side with serial searches (never both, to avoid
  // oversubscribing). Either split yields identical rates.
  std::vector<double> searched(unique.size());
  if (unique.size() == 1) {
    searched[0] = SearchRate(queries[unique[0]], Jobs());
  } else {
    std::vector<std::function<double()>> tasks;
    tasks.reserve(unique.size());
    for (const size_t qi : unique) {
      tasks.emplace_back([&queries, qi] { return SearchRate(queries[qi], 1); });
    }
    searched = RunAll<double>(std::move(tasks));
  }
  for (size_t u = 0; u < unique.size(); ++u) {
    AppendCachedRate(cache_path, unique_keys[u], searched[u]);
  }
  for (const auto& [qi, u] : aliases) rates[qi] = searched[u];
  return rates;
}

driver::ExperimentResult MeasureAt(workloads::Engine engine, engine::QueryKind query,
                                   int workers, double rate, SimTime duration,
                                   workloads::EngineTuning tuning,
                                   driver::RateProfile profile) {
  driver::ExperimentConfig config = workloads::MakeExperiment(query, workers, rate, duration);
  config.rate_profile = std::move(profile);
  return driver::RunExperiment(
      config,
      workloads::MakeEngineFactory(engine, engine::QueryConfig{query, {}}, tuning));
}

Status WriteSeries(const std::string& file, const std::string& value_name,
                   const driver::TimeSeries& series, SimTime bucket) {
  const auto status =
      driver::WriteSeriesCsv(ResultsPath(file), value_name, series.Downsample(bucket));
  if (!status.ok()) {
    ++g_write_failures;
    std::fprintf(stderr, "failed to write %s: %s\n", file.c_str(),
                 status.ToString().c_str());
  }
  return status;
}

double CoefficientOfVariation(const driver::TimeSeries& series, SimTime from, SimTime to) {
  double sum = 0, sumsq = 0;
  int64_t n = 0;
  for (const auto& s : series.samples()) {
    if (s.time < from || s.time >= to) continue;
    sum += s.value;
    sumsq += s.value * s.value;
    ++n;
  }
  if (n < 2 || sum == 0) return 0;
  const double mean = sum / static_cast<double>(n);
  const double var = sumsq / static_cast<double>(n) - mean * mean;
  return std::sqrt(std::max(0.0, var)) / mean;
}

}  // namespace sdps::bench
