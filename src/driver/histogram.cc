#include "driver/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace sdps::driver {

void Histogram::EnsureSorted() const {
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
}

SimTime Histogram::Min() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.front();
}

SimTime Histogram::Max() const {
  if (samples_.empty()) return 0;
  EnsureSorted();
  return samples_.back();
}

double Histogram::Mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0;
  for (const SimTime v : samples_) sum += static_cast<double>(v);
  return sum / static_cast<double>(samples_.size());
}

double Histogram::Stddev() const {
  if (samples_.empty()) return 0.0;
  const double mean = Mean();
  double acc = 0;
  for (const SimTime v : samples_) {
    const double d = static_cast<double>(v) - mean;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(samples_.size()));
}

SimTime Histogram::Quantile(double q) const {
  SDPS_CHECK_GE(q, 0.0);
  SDPS_CHECK_LE(q, 1.0);
  if (samples_.empty()) return 0;
  EnsureSorted();
  if (samples_.size() == 1) return samples_[0];
  const double rank = q * static_cast<double>(samples_.size() - 1);
  const auto idx = static_cast<size_t>(std::llround(rank));
  return samples_[std::min(idx, samples_.size() - 1)];
}

void Histogram::Quantiles(const double* qs, size_t n, SimTime* out) const {
  size_t lo = 0;  // samples_[0..lo) hold values <= the last one selected
  for (size_t i = 0; i < n; ++i) {
    SDPS_CHECK_GE(qs[i], i == 0 ? 0.0 : qs[i - 1]);
    SDPS_CHECK_LE(qs[i], 1.0);
    if (samples_.empty()) {
      out[i] = 0;
      continue;
    }
    // The same nearest rank as Quantile().
    const size_t idx =
        std::min(static_cast<size_t>(std::llround(
                     qs[i] * static_cast<double>(samples_.size() - 1))),
                 samples_.size() - 1);
    if (!sorted_ && idx >= lo) {
      std::nth_element(samples_.begin() + static_cast<ptrdiff_t>(lo),
                       samples_.begin() + static_cast<ptrdiff_t>(idx), samples_.end());
      lo = idx + 1;
    }
    out[i] = samples_[idx];
  }
}

Histogram::Summary Histogram::Summarize() const {
  Summary s;
  if (samples_.empty()) return s;
  s.avg_s = ToSeconds(static_cast<SimTime>(Mean()));
  s.min_s = ToSeconds(Min());
  s.max_s = ToSeconds(Max());
  s.p90_s = ToSeconds(Quantile(0.90));
  s.p95_s = ToSeconds(Quantile(0.95));
  s.p99_s = ToSeconds(Quantile(0.99));
  s.count = count();
  return s;
}

}  // namespace sdps::driver
