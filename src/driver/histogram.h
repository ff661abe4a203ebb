// Exact-sample latency statistics: avg, min, max, and quantiles — the
// paper's Table II / Table IV row format. Sample counts per experiment are
// bounded (one per output record), so exact storage beats sketching.
#ifndef SDPS_DRIVER_HISTOGRAM_H_
#define SDPS_DRIVER_HISTOGRAM_H_

#include <cstdint>
#include <cstddef>
#include <vector>

#include "common/time_util.h"

namespace sdps::driver {

class Histogram {
 public:
  void Add(SimTime value) { samples_.push_back(value); sorted_ = false; }

  uint64_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  /// Min/Max/Mean/Stddev of the samples. All statistics are defined on the
  /// empty histogram and return 0 — callers (empty-run summaries, the
  /// zero-activity exporters) rely on that being deterministic rather than
  /// a crash.
  SimTime Min() const;
  SimTime Max() const;
  double Mean() const;
  double Stddev() const;

  /// Quantile in [0, 1] by nearest-rank on the sorted samples. Returns 0 on
  /// an empty histogram and the sole sample (for any q) on a single-sample
  /// histogram.
  SimTime Quantile(double q) const;

  /// Quantile() at each of qs[0..n) (ascending), by partial selection
  /// instead of a full sort: O(samples) for a few quantiles. Reorders the
  /// samples in place like the sort does (Mean() sums in sample order).
  void Quantiles(const double* qs, size_t n, SimTime* out) const;

  /// Convenience for the paper's table row: avg, min, max, p90, p95, p99.
  struct Summary {
    double avg_s = 0, min_s = 0, max_s = 0, p90_s = 0, p95_s = 0, p99_s = 0;
    uint64_t count = 0;
  };
  Summary Summarize() const;

  void Clear() { samples_.clear(); sorted_ = false; }

 private:
  void EnsureSorted() const;

  mutable std::vector<SimTime> samples_;
  mutable bool sorted_ = false;
};

}  // namespace sdps::driver

#endif  // SDPS_DRIVER_HISTOGRAM_H_
