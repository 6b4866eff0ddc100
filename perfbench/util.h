// Small shared helpers of xks_perfbench: clocks, sample sets with
// quantiles, seeded random draws and the process's resident set size.

#ifndef XKS_PERFBENCH_UTIL_H_
#define XKS_PERFBENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/common/random.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// A bag of measurements with linear-interpolated quantiles.
class Samples {
 public:
  void Add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void Add(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }

  /// q in [0, 1]; 0 for an empty set.
  double Quantile(double q) const {
    if (values_.empty()) return 0;
    if (!sorted_) {
      std::sort(values_.begin(), values_.end());
      sorted_ = true;
    }
    const double pos = q * static_cast<double>(values_.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values_.size() - 1);
    return values_[lo] + (values_[hi] - values_[lo]) * (pos - lo);
  }
  double Median() const { return Quantile(0.5); }

  double Mean() const {
    if (values_.empty()) return 0;
    double sum = 0;
    for (double v : values_) sum += v;
    return sum / static_cast<double>(values_.size());
  }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// Uniform double in [0, 1).
inline double UniformUnit(xks::Rng* rng) {
  return static_cast<double>(rng->Next() >> 11) * 0x1p-53;
}

/// Exponential inter-arrival gap for a Poisson process of `rate` per second.
inline double ExponentialGap(xks::Rng* rng, double rate) {
  return -std::log(1.0 - UniformUnit(rng)) / rate;
}

/// Resident set size of this process in MiB (from /proc/self/statm).
inline double ResidentMb() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size = 0;
  unsigned long long resident = 0;
  const int read = std::fscanf(f, "%llu %llu", &size, &resident);
  std::fclose(f);
  if (read != 2) return 0;
  return static_cast<double>(resident) *
         static_cast<double>(::sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

}  // namespace perfbench

#endif  // XKS_PERFBENCH_UTIL_H_
