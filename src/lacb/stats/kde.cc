#include "lacb/stats/kde.h"

#include <cmath>

#include "lacb/stats/descriptive.h"

namespace lacb::stats {

namespace {

constexpr double kInvSqrt2Pi = 0.3989422804014327;

double SilvermanBandwidth(const std::vector<double>& sample) {
  OnlineStats st;
  for (double v : sample) st.Add(v);
  double n = static_cast<double>(sample.size());
  double sigma = st.stddev();
  if (sigma <= 0.0) sigma = 1.0;  // degenerate sample: any positive width
  return 1.06 * sigma * std::pow(n, -0.2);
}

double GaussKernel(double u) {
  return kInvSqrt2Pi * std::exp(-0.5 * u * u);
}

}  // namespace

Result<GaussianKde2D> GaussianKde2D::Fit(const std::vector<double>& xs,
                                         const std::vector<double>& ys,
                                         double bw_x, double bw_y) {
  if (xs.empty() || xs.size() != ys.size()) {
    return Status::InvalidArgument("2-D KDE requires paired non-empty samples");
  }
  double hx = bw_x > 0.0 ? bw_x : SilvermanBandwidth(xs);
  double hy = bw_y > 0.0 ? bw_y : SilvermanBandwidth(ys);
  return GaussianKde2D(xs, ys, hx, hy);
}

double GaussianKde2D::Density(double x, double y) const {
  double sum = 0.0;
  for (size_t i = 0; i < xs_.size(); ++i) {
    sum += GaussKernel((x - xs_[i]) / bw_x_) * GaussKernel((y - ys_[i]) / bw_y_);
  }
  return sum / (static_cast<double>(xs_.size()) * bw_x_ * bw_y_);
}

GaussianKde2D::Mode GaussianKde2D::FindMode(double x_lo, double x_hi,
                                            double y_lo, double y_hi,
                                            size_t grid) const {
  Mode best{x_lo, y_lo, -1.0};
  if (grid < 2) grid = 2;
  double dx = (x_hi - x_lo) / static_cast<double>(grid - 1);
  double dy = (y_hi - y_lo) / static_cast<double>(grid - 1);
  for (size_t i = 0; i < grid; ++i) {
    for (size_t j = 0; j < grid; ++j) {
      double x = x_lo + dx * static_cast<double>(i);
      double y = y_lo + dy * static_cast<double>(j);
      double d = Density(x, y);
      if (d > best.density) best = Mode{x, y, d};
    }
  }
  return best;
}

}  // namespace lacb::stats
