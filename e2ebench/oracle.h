// Independent output oracle. It rebuilds the record streams a run consumes
// from the same public RecordStream and seed-fork order the runtimes use,
// and computes every sliding window with its own arithmetic (window ends
// are the slide multiples in (t, t + range]); engine::WindowAssigner and
// the engines' window state are not used. Checks compare a run's outputs
// with it.
#ifndef SDPS_E2EBENCH_ORACLE_H_
#define SDPS_E2EBENCH_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "driver/generator.h"
#include "engine/query.h"
#include "engine/record.h"

namespace e2ebench {

using sdps::SimTime;

/// Everything a run derives its input streams from: the generator
/// template, the number of sources (driver nodes), the total offered rate
/// split evenly over them, the generation horizon and the run seed.
struct StreamSpec {
  sdps::driver::GeneratorConfig generator;
  int sources = 1;
  double total_rate = 0;
  SimTime duration = 0;
  uint64_t seed = 0;
};

/// Replays every source's stream (source 0 first, each in emission order).
std::vector<sdps::engine::Record> ReplayStreams(const StreamSpec& spec);

/// `spec` cut to the first `records` records' worth of its horizon.
StreamSpec Prefix(StreamSpec spec, uint64_t records);

/// Number of records the streams of `spec` hold, without keeping them.
uint64_t CountRecords(const StreamSpec& spec);

struct CheckReport {
  uint64_t outputs = 0;
  uint64_t missing = 0;         // expected group with no output
  uint64_t unexpected = 0;      // output for a group the oracle lacks
  uint64_t duplicates = 0;      // more than one output for a group
  uint64_t value_mismatch = 0;  // sum (or tuple count) differs
  uint64_t time_mismatch = 0;   // max event time differs (Def. 3)
  bool total_mismatch = false;  // summed output value differs
  std::string first_problem;

  bool ok() const {
    return missing == 0 && unexpected == 0 && duplicates == 0 &&
           value_mismatch == 0 && time_mismatch == 0 && !total_mismatch;
  }
  std::string Summary() const;
};

class Oracle {
 public:
  /// Streams the records of `spec` once; nothing is kept per record.
  Oracle(const StreamSpec& spec, sdps::engine::QueryConfig query);

  /// Exact check (Flink and Storm models): one output per (key, window
  /// end) with the oracle's sum, tuple count and max event time. Values
  /// compare within `rel_tol` (0 = bitwise) because engines fold the two
  /// sources' records in arrival order.
  CheckReport CheckExact(const std::vector<sdps::engine::OutputRecord>& outputs,
                         double rel_tol) const;

  /// Property check (Spark's arrival-time micro-batches). Aggregation:
  /// each (key, window end) fires at most once, and the summed output
  /// value equals the oracle's total. Join (pairs depend on which batch a
  /// record arrived in): every output's key joins in the oracle at the
  /// same window end or one slide before or after it.
  CheckReport CheckProperties(
      const std::vector<sdps::engine::OutputRecord>& outputs,
      double rel_tol) const;

 private:
  struct Group {
    double value = 0;       // aggregate sum, or summed joined price
    uint64_t tuples = 0;    // aggregate: tuples folded; join: output records
    // Aggregation: the max event time of the group's tuples, which the
    // output must carry. Join: outputs carry the max over the window
    // contents of the task that owns the key, which lies between the
    // group's own max (lower) and the whole window's max (upper).
    SimTime max_event_time = 0;
    SimTime own_max_event_time = 0;
  };
  struct GroupKey {
    uint64_t key;
    SimTime window_end;
    bool operator==(const GroupKey& o) const {
      return key == o.key && window_end == o.window_end;
    }
  };
  struct GroupHash {
    size_t operator()(const GroupKey& g) const;
  };

  void BuildAggregation(const StreamSpec& spec);
  void BuildJoin(const StreamSpec& spec);

  sdps::engine::QueryConfig query_;
  std::unordered_map<GroupKey, Group, GroupHash> groups_;
  double total_value_ = 0;
};

/// Order-independent digest of an output multiset; two runs of the same
/// trial must produce equal digests.
struct OutputDigest {
  uint64_t count = 0;
  uint64_t hash = 0;
  void Add(const sdps::engine::OutputRecord& out);
  bool operator==(const OutputDigest& o) const {
    return count == o.count && hash == o.hash;
  }
};

}  // namespace e2ebench

#endif  // SDPS_E2EBENCH_ORACLE_H_
