// Metric helpers shared by the figure-reproduction benches.

#ifndef LACB_CORE_METRICS_H_
#define LACB_CORE_METRICS_H_

#include <vector>

#include "lacb/common/result.h"
#include "lacb/core/engine.h"

namespace lacb::core {

/// \brief Fractions of brokers whose utility improved / worsened vs a
/// baseline run (paper Sec. VII-C: "80.8% brokers in LACB have an
/// improvement in utility compared with Top-K"). Brokers with zero utility
/// under both policies are excluded.
struct ImprovementStats {
  double improved_fraction = 0.0;
  double worsened_fraction = 0.0;
  size_t considered = 0;
};
Result<ImprovementStats> CompareBrokerUtility(
    const std::vector<double>& candidate,
    const std::vector<double>& baseline);

/// \brief The `n` largest values, descending (per-broker utility/workload
/// distributions of Figs. 4, 9, 10).
std::vector<double> TopNDescending(const std::vector<double>& values,
                                   size_t n);

/// \brief Ratio of the maximum value to the mean (the paper's "top-1
/// broker's workload is 12.03× larger than the average" statistic).
/// Zero-mean inputs return 0.
double MaxToMeanRatio(const std::vector<double>& values);

/// \brief Cumulative sums of a per-day series (Fig. 11 running-time axes).
std::vector<double> CumulativeSeries(const std::vector<double>& daily);

/// \brief Gini coefficient of a non-negative distribution in [0, 1]:
/// 0 = perfectly equal, →1 = fully concentrated. Quantifies the Matthew
/// effect the paper describes (top brokers occupying most requests).
/// Returns 0 for empty or all-zero input.
double GiniCoefficient(const std::vector<double>& values);

}  // namespace lacb::core

#endif  // LACB_CORE_METRICS_H_
