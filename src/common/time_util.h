// Time representation shared by the whole project. Simulated time is a
// 64-bit count of microseconds since experiment start.
#ifndef SDPS_COMMON_TIME_UTIL_H_
#define SDPS_COMMON_TIME_UTIL_H_

#include <cstdint>
#include <string>

namespace sdps {

/// Simulated time / duration in microseconds.
using SimTime = int64_t;

inline constexpr SimTime kMicrosPerMilli = 1000;
inline constexpr SimTime kMicrosPerSecond = 1000 * 1000;
inline constexpr SimTime kMicrosPerMinute = 60 * kMicrosPerSecond;

constexpr SimTime Seconds(double s) {
  return static_cast<SimTime>(s * static_cast<double>(kMicrosPerSecond));
}
constexpr SimTime Millis(double ms) {
  return static_cast<SimTime>(ms * static_cast<double>(kMicrosPerMilli));
}
constexpr SimTime Minutes(double m) {
  return static_cast<SimTime>(m * static_cast<double>(kMicrosPerMinute));
}

constexpr double ToSeconds(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerSecond);
}
constexpr double ToMillis(SimTime t) {
  return static_cast<double>(t) / static_cast<double>(kMicrosPerMilli);
}

/// Rounds a microsecond amount to the nearest SimTime, ties away from zero;
/// 0 for x <= 0 and for NaN. Bit-identical to
/// std::max<SimTime>(0, std::llround(x)) for every x below 2^63, without
/// the libm call: x - trunc(x) is exact in double arithmetic.
inline SimTime RoundUs(double x) {
  if (!(x > 0)) return 0;
  const auto i = static_cast<SimTime>(x);
  return i + (x - static_cast<double>(i) >= 0.5);
}

/// Human-readable rendering, e.g. "2.500s" or "750ms".
std::string FormatDuration(SimTime t);

}  // namespace sdps

#endif  // SDPS_COMMON_TIME_UTIL_H_
