// Summary statistics of the benchmark's samples.
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "obs/percentile.h"

namespace perfbench {

// Nearest-rank percentile, by the program's obs::nearest_rank. Takes the
// samples by value and sorts them; returns 0 for an empty sample.
[[nodiscard]] inline double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  return voltage::obs::nearest_rank(samples, q);
}

[[nodiscard]] inline double median(std::vector<double> samples) {
  return percentile(std::move(samples), 0.5);
}

}  // namespace perfbench
