// 2-D Gaussian kernel density estimation.
//
// The paper's Fig. 3 fits a 2-D Gaussian KDE over (workload, sign-up rate)
// observations per broker to visualize each broker's accustomed workload
// region, with Silverman's rule-of-thumb bandwidth per dimension.

#ifndef LACB_STATS_KDE_H_
#define LACB_STATS_KDE_H_

#include <vector>

#include "lacb/common/result.h"

namespace lacb::stats {

/// \brief 2-D Gaussian KDE with a diagonal (product-kernel) bandwidth.
class GaussianKde2D {
 public:
  /// \brief Builds the estimator from paired samples; Silverman bandwidths
  /// per dimension when `bw_x`/`bw_y` are non-positive.
  static Result<GaussianKde2D> Fit(const std::vector<double>& xs,
                                   const std::vector<double>& ys,
                                   double bw_x = 0.0, double bw_y = 0.0);

  /// \brief Density estimate at (x, y).
  double Density(double x, double y) const;

  /// \brief The (x, y) grid point of maximum density — the "center of the
  /// performance distribution" highlighted in the paper's Fig. 3.
  struct Mode {
    double x;
    double y;
    double density;
  };
  Mode FindMode(double x_lo, double x_hi, double y_lo, double y_hi,
                size_t grid) const;

  double bandwidth_x() const { return bw_x_; }
  double bandwidth_y() const { return bw_y_; }

 private:
  GaussianKde2D(std::vector<double> xs, std::vector<double> ys, double bw_x,
                double bw_y)
      : xs_(std::move(xs)), ys_(std::move(ys)), bw_x_(bw_x), bw_y_(bw_y) {}

  std::vector<double> xs_;
  std::vector<double> ys_;
  double bw_x_;
  double bw_y_;
};

}  // namespace lacb::stats

#endif  // LACB_STATS_KDE_H_
