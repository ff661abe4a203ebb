#include "oracle.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/random.h"
#include "driver/record_stream.h"

namespace e2ebench {

using sdps::engine::OutputRecord;
using sdps::engine::QueryKind;
using sdps::engine::Record;
using sdps::engine::StreamId;

namespace {

// Calls fn(record) for every record of every source, source by source.
// The seed-fork protocol is the runtimes': one Rng(seed).Fork() per
// source, in source order; each source offers total_rate / sources.
template <typename Fn>
void ForEachRecord(const StreamSpec& spec, Fn&& fn) {
  sdps::Rng root(spec.seed);
  for (int s = 0; s < spec.sources; ++s) {
    sdps::driver::GeneratorConfig gen = spec.generator;
    gen.duration = spec.duration;
    gen.rate = sdps::driver::ConstantRate(spec.total_rate /
                                          static_cast<double>(spec.sources));
    sdps::driver::RecordStream stream(gen, root.Fork());
    SimTime t = 0;
    for (;;) {
      t = stream.NextTime(t);
      if (t >= spec.duration) break;
      fn(stream.Build(t));
    }
  }
}

bool Near(double a, double b, double rel_tol) {
  if (rel_tol == 0) return a == b;
  return std::fabs(a - b) <= rel_tol * std::max({1.0, std::fabs(a), std::fabs(b)});
}

uint64_t Mix(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

// The window ends a timestamp falls in: every multiple of the slide in
// (t, t + range]. Event times are never negative.
template <typename Fn>
void ForEachWindowEnd(SimTime t, const sdps::engine::WindowSpec& w, Fn&& fn) {
  const SimTime first_end = (t / w.slide + 1) * w.slide;
  for (SimTime end = first_end; end <= t + w.range; end += w.slide) fn(end);
}

}  // namespace

std::vector<Record> ReplayStreams(const StreamSpec& spec) {
  std::vector<Record> out;
  ForEachRecord(spec, [&out](const Record& r) { out.push_back(r); });
  return out;
}

uint64_t CountRecords(const StreamSpec& spec) {
  uint64_t n = 0;
  ForEachRecord(spec, [&n](const Record&) { ++n; });
  return n;
}

std::string CheckReport::Summary() const {
  std::ostringstream os;
  os << outputs << " outputs";
  if (missing) os << ", " << missing << " missing";
  if (unexpected) os << ", " << unexpected << " unexpected";
  if (duplicates) os << ", " << duplicates << " duplicate";
  if (value_mismatch) os << ", " << value_mismatch << " value mismatch";
  if (time_mismatch) os << ", " << time_mismatch << " max-event-time mismatch";
  if (total_mismatch) os << ", total value mismatch";
  if (!first_problem.empty()) os << " (first: " << first_problem << ")";
  return os.str();
}

size_t Oracle::GroupHash::operator()(const GroupKey& g) const {
  return static_cast<size_t>(Mix(g.key ^ Mix(static_cast<uint64_t>(g.window_end))));
}

StreamSpec Prefix(StreamSpec spec, uint64_t records) {
  const double horizon_s = static_cast<double>(records) *
                           static_cast<double>(spec.generator.tuples_per_record) /
                           spec.total_rate;
  spec.duration = std::min(spec.duration, sdps::Seconds(horizon_s));
  return spec;
}

Oracle::Oracle(const StreamSpec& spec, sdps::engine::QueryConfig query)
    : query_(query) {
  if (query.kind == QueryKind::kAggregation) {
    BuildAggregation(spec);
  } else {
    BuildJoin(spec);
  }
  for (const auto& [gk, g] : groups_) total_value_ += g.value;
}

void Oracle::BuildAggregation(const StreamSpec& spec) {
  ForEachRecord(spec, [&](const Record& r) {
    ForEachWindowEnd(r.event_time, query_.window, [&](SimTime end) {
      Group& g = groups_[GroupKey{r.key, end}];
      if (g.tuples == 0) g.max_event_time = r.event_time;
      g.value += r.value * static_cast<double>(r.weight);
      g.tuples += r.weight;
      g.max_event_time = std::max(g.max_event_time, r.event_time);
    });
  });
}

void Oracle::BuildJoin(const StreamSpec& spec) {
  // Per window: the max event time over both sides (every join output of
  // the window carries it), and per key the purchases' price sum and count
  // and the ads' count. A window emits |purchases| x |ads| records per key,
  // each with the purchase's price.
  struct Side {
    double purchase_value = 0;
    uint64_t purchases = 0;
    uint64_t ads = 0;
    SimTime max_event_time = 0;
  };
  std::unordered_map<GroupKey, Side, GroupHash> sides;
  std::unordered_map<SimTime, SimTime> window_max;
  ForEachRecord(spec, [&](const Record& r) {
    ForEachWindowEnd(r.event_time, query_.window, [&](SimTime end) {
      auto [it, fresh] = window_max.try_emplace(end, r.event_time);
      if (!fresh) it->second = std::max(it->second, r.event_time);
      Side& s = sides[GroupKey{r.key, end}];
      s.max_event_time = std::max(s.max_event_time, r.event_time);
      if (r.stream == StreamId::kPurchases) {
        s.purchase_value += r.value;
        ++s.purchases;
      } else {
        ++s.ads;
      }
    });
  });
  for (const auto& [gk, s] : sides) {
    if (s.purchases == 0 || s.ads == 0) continue;
    Group& g = groups_[gk];
    g.value = s.purchase_value * static_cast<double>(s.ads);
    g.tuples = s.purchases * s.ads;
    g.max_event_time = window_max.at(gk.window_end);
    g.own_max_event_time = s.max_event_time;
  }
}

CheckReport Oracle::CheckExact(const std::vector<OutputRecord>& outputs,
                               double rel_tol) const {
  CheckReport report;
  report.outputs = outputs.size();
  const bool join = query_.kind == QueryKind::kJoin;
  struct Seen {
    double value = 0;
    uint64_t count = 0;
    bool time_ok = true;
  };
  std::unordered_map<GroupKey, Seen, GroupHash> seen;
  seen.reserve(groups_.size());
  const auto note = [&report](const std::string& what, const GroupKey& gk) {
    if (report.first_problem.empty()) {
      report.first_problem = what + " key=" + std::to_string(gk.key) +
                           " window_end_us=" + std::to_string(gk.window_end);
    }
  };
  for (const OutputRecord& out : outputs) {
    const GroupKey gk{out.key, out.window_end};
    const auto it = groups_.find(gk);
    if (it == groups_.end()) {
      ++report.unexpected;
      note("unexpected output", gk);
      continue;
    }
    Seen& s = seen[gk];
    s.value += out.value;
    ++s.count;
    const Group& g = it->second;
    const bool time_ok = join ? out.max_event_time >= g.own_max_event_time &&
                                    out.max_event_time <= g.max_event_time
                              : out.max_event_time == g.max_event_time;
    if (!time_ok) s.time_ok = false;
  }
  for (const auto& [gk, g] : groups_) {
    const auto it = seen.find(gk);
    if (it == seen.end()) {
      ++report.missing;
      note("missing output", gk);
      continue;
    }
    const Seen& s = it->second;
    const uint64_t want_count = join ? g.tuples : 1;
    if (s.count > want_count && !join) {
      ++report.duplicates;
      note("duplicate output", gk);
    } else if (s.count != want_count || !Near(s.value, g.value, rel_tol)) {
      ++report.value_mismatch;
      note("value mismatch", gk);
    }
    if (!s.time_ok) {
      ++report.time_mismatch;
      note("max event time mismatch", gk);
    }
  }
  return report;
}

CheckReport Oracle::CheckProperties(const std::vector<OutputRecord>& outputs,
                                    double rel_tol) const {
  CheckReport report;
  report.outputs = outputs.size();
  if (query_.kind == QueryKind::kJoin) {
    const SimTime slide = query_.window.slide;
    for (const OutputRecord& out : outputs) {
      bool near = false;
      for (const SimTime end : {out.window_end - slide, out.window_end, out.window_end + slide}) {
        near = near || groups_.count(GroupKey{out.key, end}) > 0;
      }
      if (!near) {
        ++report.unexpected;
        if (report.first_problem.empty()) {
          report.first_problem = "no join partner key=" + std::to_string(out.key) +
                               " window_end_us=" + std::to_string(out.window_end);
        }
      }
    }
    return report;
  }
  std::unordered_map<GroupKey, uint64_t, GroupHash> fired;
  fired.reserve(outputs.size());
  double total = 0;
  for (const OutputRecord& out : outputs) {
    total += out.value;
    const GroupKey gk{out.key, out.window_end};
    if (++fired[gk] == 2) {
      ++report.duplicates;
      if (report.first_problem.empty()) {
        report.first_problem = "fired twice key=" + std::to_string(gk.key) +
                             " window_end_us=" + std::to_string(gk.window_end);
      }
    }
  }
  if (!Near(total, total_value_, rel_tol)) {
    report.total_mismatch = true;
    if (report.first_problem.empty()) {
      std::ostringstream os;
      os.precision(17);
      os << "output total " << total << " vs oracle " << total_value_;
      report.first_problem = os.str();
    }
  }
  return report;
}

void OutputDigest::Add(const OutputRecord& out) {
  uint64_t value_bits = 0;
  std::memcpy(&value_bits, &out.value, sizeof(value_bits));
  uint64_t h = Mix(out.key);
  h = Mix(h ^ static_cast<uint64_t>(out.window_end));
  h = Mix(h ^ static_cast<uint64_t>(out.max_event_time));
  h = Mix(h ^ value_bits);
  h = Mix(h ^ out.weight);
  ++count;
  hash += h;  // commutative: the digest ignores output order
}

}  // namespace e2ebench
