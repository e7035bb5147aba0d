// Wall-clock timer shared by the comparison benches (bench_kernels,
// bench_parallel, bench_scale).
//
// MinTimer keeps the minimum over repeated samples -- the standard noise
// filter on a busy host -- plus the sample mean and standard deviation.
// Legs under comparison must interleave their samples (ref, fast, ref,
// fast, ...) so a load spike lands on both rather than poisoning one
// leg's whole window.  A row whose sd rivals its min was measured through
// noise and should not gate anything.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>

namespace nshot::bench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

struct MinTimer {
  double best = 0.0;
  double sum = 0.0, sumsq = 0.0;
  int n = 0;
  template <typename Body>
  void sample(Body&& body) {
    const auto t0 = Clock::now();
    body();
    const double ms = ms_since(t0);
    if (n++ == 0 || ms < best) best = ms;
    sum += ms;
    sumsq += ms * ms;
  }
  double mean() const { return n > 0 ? sum / n : 0.0; }
  double sd() const {
    if (n < 2) return 0.0;
    const double m = mean();
    return std::sqrt(std::max(0.0, (sumsq - static_cast<double>(n) * m * m) /
                                       static_cast<double>(n - 1)));
  }
};

}  // namespace nshot::bench
