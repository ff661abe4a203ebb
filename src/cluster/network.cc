#include "cluster/network.h"

#include <algorithm>

namespace sdps::cluster {

SimTime Link::TxTime(int64_t bytes) const {
  SDPS_CHECK_GE(bytes, 0);
  // rate_scale_ is exactly 1.0 outside fault windows, so the multiply is an
  // IEEE-754 identity and fault-free runs stay bit-identical to pre-chaos.
  return RoundUs(static_cast<double>(bytes) / (bytes_per_sec_ * rate_scale_) * 1e6);
}

SimTime Link::Occupy(SimTime tx, int64_t bytes) {
  const SimTime now = sim_.now();
  // Count what has left the line, then drop it from the list (all of it
  // when the line has drained; the counted prefix once it is half the list).
  size_t i = head_;
  while (i < in_flight_.size() && in_flight_[i].done <= now) bytes_done_ += in_flight_[i++].bytes;
  if (i == in_flight_.size()) {
    in_flight_.clear();
    i = 0;
  } else if (i >= 64 && 2 * i >= in_flight_.size()) {
    in_flight_.erase(in_flight_.begin(), in_flight_.begin() + static_cast<ptrdiff_t>(i));
    i = 0;
  }
  head_ = i;
  busy_until_ = std::max(now, busy_until_) + tx;
  in_flight_.push_back({busy_until_, bytes});
  return busy_until_;
}

des::Delay Link::Transfer(int64_t bytes) {
  return des::Delay(sim_, Admit(&bytes, 1, nullptr) - sim_.now());
}

des::Delay Link::TransferBatch(const int64_t* bytes, size_t n, SimTime* completions) {
  return des::Delay(sim_, Admit(bytes, n, completions) - sim_.now());
}

SimTime Link::Admit(const int64_t* bytes, size_t n, SimTime* completions) {
  SDPS_CHECK_GT(n, 0u);
  // The line is held once for the integer sum of the per-item times.
  SimTime total_tx = 0;
  int64_t total_bytes = 0;
  for (size_t i = 0; i < n; ++i) {
    total_tx += TxTime(bytes[i]);
    total_bytes += bytes[i];
    if (completions != nullptr) completions[i] = total_tx;  // prefix sum for now
  }
  const SimTime done = Occupy(total_tx, total_bytes);
  if (completions != nullptr) {
    const SimTime offset = done - total_tx + latency_;  // service start + latency
    for (size_t i = 0; i < n; ++i) completions[i] += offset;
  }
  return done + latency_;
}

int64_t Link::bytes_transferred() const {
  const SimTime now = sim_.now();
  int64_t bytes = bytes_done_;
  for (size_t i = head_; i < in_flight_.size() && in_flight_[i].done <= now; ++i) {
    bytes += in_flight_[i].bytes;
  }
  return bytes;
}

}  // namespace sdps::cluster
