#include "lacb/core/metrics.h"

#include <algorithm>

namespace lacb::core {

Result<ImprovementStats> CompareBrokerUtility(
    const std::vector<double>& candidate,
    const std::vector<double>& baseline) {
  if (candidate.size() != baseline.size()) {
    return Status::InvalidArgument(
        "CompareBrokerUtility: vectors differ in length");
  }
  ImprovementStats stats;
  size_t improved = 0;
  size_t worsened = 0;
  for (size_t i = 0; i < candidate.size(); ++i) {
    if (candidate[i] == 0.0 && baseline[i] == 0.0) continue;
    ++stats.considered;
    if (candidate[i] > baseline[i] + 1e-12) ++improved;
    if (candidate[i] < baseline[i] - 1e-12) ++worsened;
  }
  if (stats.considered > 0) {
    stats.improved_fraction =
        static_cast<double>(improved) / static_cast<double>(stats.considered);
    stats.worsened_fraction =
        static_cast<double>(worsened) / static_cast<double>(stats.considered);
  }
  return stats;
}

std::vector<double> TopNDescending(const std::vector<double>& values,
                                   size_t n) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  if (sorted.size() > n) sorted.resize(n);
  return sorted;
}

double MaxToMeanRatio(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  double max = values.front();
  for (double v : values) {
    sum += v;
    max = std::max(max, v);
  }
  double mean = sum / static_cast<double>(values.size());
  return mean > 0.0 ? max / mean : 0.0;
}

std::vector<double> CumulativeSeries(const std::vector<double>& daily) {
  std::vector<double> out;
  out.reserve(daily.size());
  double acc = 0.0;
  for (double v : daily) {
    acc += v;
    out.push_back(acc);
  }
  return out;
}

double GiniCoefficient(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  double total = 0.0;
  double weighted = 0.0;
  double n = static_cast<double>(sorted.size());
  for (size_t i = 0; i < sorted.size(); ++i) {
    total += sorted[i];
    weighted += (static_cast<double>(i) + 1.0) * sorted[i];
  }
  if (total <= 0.0) return 0.0;
  // G = (2 Σ i·x_(i) / (n Σ x)) − (n+1)/n, with 1-based ranks.
  return 2.0 * weighted / (n * total) - (n + 1.0) / n;
}

}  // namespace lacb::core
