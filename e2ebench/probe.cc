#include "probe.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "driver/queue.h"
#include "engine/batch.h"
#include "engine/columnar.h"
#include "engine/partition.h"
#include "engine/window.h"
#include "engine/window_state.h"
#include "obs/metrics.h"

namespace e2ebench {

using sdps::Status;
using sdps::driver::Sut;
using sdps::driver::SutContext;
using sdps::engine::Record;

namespace {

thread_local bool tl_call_marked = false;
thread_local Clock::time_point tl_call_start;

class ProbedSut final : public Sut {
 public:
  ProbedSut(std::unique_ptr<Sut> inner, const SutContext& ctx,
            Clock::time_point t0, ProbeLog* log)
      : inner_(std::move(inner)), ctx_(ctx), t0_(t0), log_(log) {}

  std::string name() const override { return inner_->name(); }

  Status Start(const SutContext& ctx) override {
    const Status status = inner_->Start(ctx);
    probe_.setup_s = SecondsSince(t0_);
    return status;
  }

  void Stop() override {
    inner_->Stop();
    probe_.run_s = SecondsSince(t0_);
    probe_.events = ctx_.sim->processed_events();
    for (sdps::driver::DriverQueue* q : ctx_.queues) {
      probe_.pushed_tuples += q->total_pushed_tuples();
      probe_.popped_tuples += q->total_popped_tuples();
    }
    probe_.sink_outputs = ctx_.sink->total_outputs();
    if (log_ != nullptr) log_->Add(probe_);
  }

  void ExportSeries(std::map<std::string, sdps::driver::TimeSeries>* out) const override {
    inner_->ExportSeries(out);
  }

 private:
  std::unique_ptr<Sut> inner_;
  SutContext ctx_;
  Clock::time_point t0_;
  ProbeLog* log_;
  TrialProbe probe_;
};

// Folds `recs` (event-time order) into State in runs of `run` records,
// firing every window the stream's own progress closes, and returns the
// host seconds it took.
template <typename State>
double TimeStateReplay(const std::vector<Record>& recs, sdps::engine::WindowSpec window,
                       size_t run) {
  const auto t0 = Clock::now();
  State state{sdps::engine::WindowAssigner(window)};
  SimTime next_fire = window.slide;
  for (size_t i = 0; i < recs.size(); i += run) {
    const size_t n = std::min(run, recs.size() - i);
    sdps::engine::AddBatch(state, recs.data() + i, n);
    const SimTime now = recs[i + n - 1].event_time;
    if (now >= next_fire) {
      state.FireUpTo(now);
      next_fire = (now / window.slide + 1) * window.slide;
    }
  }
  state.FireUpTo(std::numeric_limits<SimTime>::max());
  return SecondsSince(t0);
}

}  // namespace

void ProbeLog::Add(const TrialProbe& p) {
  std::lock_guard<std::mutex> lock(mu_);
  probes_.push_back(p);
}

std::vector<TrialProbe> ProbeLog::Take() {
  std::lock_guard<std::mutex> lock(mu_);
  return std::exchange(probes_, {});
}

void MarkCallStart() {
  tl_call_marked = true;
  tl_call_start = Clock::now();
}

sdps::driver::SutFactory Probed(sdps::driver::SutFactory inner, ProbeLog* log) {
  return [inner = std::move(inner), log](const SutContext& ctx) {
    const Clock::time_point t0 = tl_call_marked ? tl_call_start : Clock::now();
    tl_call_marked = false;
    return std::unique_ptr<Sut>(std::make_unique<ProbedSut>(inner(ctx), ctx, t0, log));
  };
}

int SpanLog::Begin(const std::string& name, int parent) {
  std::lock_guard<std::mutex> lock(mu_);
  const double now = std::chrono::duration<double>(Clock::now() - origin_).count();
  spans_.push_back(Span{name, parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - origin_).count();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}\n",
                 i == 0 ? "" : ",", s.name.c_str(), s.start_s * 1e6,
                 (s.end_s - s.start_s) * 1e6, i, s.parent);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

LayerReplay ReplayLayers(const StreamSpec& spec, sdps::engine::WindowSpec window,
                         SpanLog& spans, int parent) {
  LayerReplay out;
  const ScopedSpan root(spans, "layer_replay", parent);

  auto t0 = Clock::now();
  uint64_t n = 0;
  {
    const ScopedSpan span(spans, "driver.record_stream", root.id());
    n = CountRecords(spec);
  }
  out.stream_ns_per_record = SecondsSince(t0) * 1e9 / static_cast<double>(std::max<uint64_t>(n, 1));

  std::vector<Record> recs = ReplayStreams(spec);
  std::stable_sort(recs.begin(), recs.end(), [](const Record& a, const Record& b) {
    return a.event_time < b.event_time;
  });
  const double per = 1e9 / static_cast<double>(std::max<size_t>(recs.size(), 1));
  constexpr size_t kRun = 32;  // the batched data plane's run length
  {
    const ScopedSpan span(spans, "engine.agg_window_state", root.id());
    out.agg_ns_per_record =
        TimeStateReplay<sdps::engine::AggWindowState>(recs, window, kRun) * per;
  }
  {
    const ScopedSpan span(spans, "engine.buffered_window_state", root.id());
    out.buffered_ns_per_record =
        TimeStateReplay<sdps::engine::BufferedWindowState>(recs, window, kRun) * per;
  }
  {
    const ScopedSpan span(spans, "engine.join_window_state", root.id());
    out.join_ns_per_record =
        TimeStateReplay<sdps::engine::JoinWindowState>(recs, window, kRun) * per;
  }

  {
    const ScopedSpan span(spans, "engine.partition", root.id());
    const sdps::engine::Partitioner partitioner(2);
    sdps::engine::PartitionPlan plan;
    std::vector<uint64_t> keys(kRun);
    t0 = Clock::now();
    for (size_t i = 0; i < recs.size(); i += kRun) {
      const size_t m = std::min(kRun, recs.size() - i);
      for (size_t j = 0; j < m; ++j) keys[j] = recs[i + j].key;
      sdps::engine::RadixPartition(keys.data(), m, partitioner, &plan);
    }
    out.partition_ns_per_record = SecondsSince(t0) * per;
  }
  {
    const ScopedSpan span(spans, "engine.combine", root.id());
    sdps::engine::ShuffleCombiner combiner(window.slide);
    sdps::engine::RecordBatch combined;
    uint64_t emitted = 0;
    t0 = Clock::now();
    for (size_t i = 0; i < recs.size(); i += kRun) {
      const size_t m = std::min(kRun, recs.size() - i);
      combined.Clear();
      emitted += combiner.Combine(recs.data() + i, m, &combined);
    }
    out.combine_ns_per_record = SecondsSince(t0) * per;
    out.combine_out_per_in =
        static_cast<double>(emitted) / static_cast<double>(std::max<size_t>(recs.size(), 1));
  }
  return out;
}

std::map<std::string, double> CounterTotals() {
  std::map<std::string, double> totals;
  for (const sdps::obs::MetricRow& row : sdps::obs::Registry::Default().Snapshot()) {
    if (row.kind == sdps::obs::MetricRow::Kind::kHistogram) continue;
    totals[row.name] += row.value;
  }
  return totals;
}

double HostSpeedProbe(int threads) {
  std::vector<double> seconds(static_cast<size_t>(threads));
  {
    std::vector<std::jthread> workers;
    for (int i = 0; i < threads; ++i) {
      workers.emplace_back([&seconds, i] {
        // xorshift-driven read-modify-write over an L1-resident table.
        std::vector<uint64_t> table(4096, 1);
        const auto t0 = Clock::now();
        uint64_t x = 88172645463325252ULL + static_cast<uint64_t>(i);
        for (int k = 0; k < 5'000'000; ++k) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          uint64_t& slot = table[x & 4095];
          slot = slot * 6364136223846793005ULL + x;
        }
        seconds[static_cast<size_t>(i)] = SecondsSince(t0);
        if (table[x & 4095] == 0) std::fprintf(stderr, " ");  // keeps the loop live
      });
    }
  }
  double sum = 0;
  for (double s : seconds) sum += s;
  return sum / static_cast<double>(threads);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2ebench
