// Order statistics shared by the end-to-end figures and the obs passes.
#pragma once

#include <algorithm>
#include <vector>

namespace e2e {

/// Median of `v`; -1 when empty.
inline double median(std::vector<double> v) {
  if (v.empty()) return -1;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace e2e
