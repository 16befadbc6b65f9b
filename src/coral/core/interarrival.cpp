#include "coral/core/interarrival.hpp"

#include <algorithm>

#include "coral/common/error.hpp"

namespace coral::core {

std::vector<double> interarrival_seconds(std::span<const TimePoint> times) {
  CORAL_EXPECTS(times.size() >= 3);
  std::vector<TimePoint> sorted(times.begin(), times.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> out;
  out.reserve(sorted.size() - 1);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    out.push_back(static_cast<double>(sorted[i] - sorted[i - 1]) /
                  static_cast<double>(kUsecPerSec));
  }
  return out;
}

InterarrivalFit fit_interarrivals(std::vector<double> samples_sec) {
  CORAL_EXPECTS(samples_sec.size() >= 2);
  InterarrivalFit fit;
  fit.samples_sec = std::move(samples_sec);
  fit.weibull = stats::Weibull::fit_mle(fit.samples_sec);
  fit.exponential = stats::Exponential::fit_mle(fit.samples_sec);
  fit.lrt = stats::likelihood_ratio_test(fit.samples_sec, fit.exponential, fit.weibull);
  std::vector<double> sorted = fit.samples_sec;
  std::sort(sorted.begin(), sorted.end());
  // Clamp zeros like the MLE does so KS sees the same data.
  for (double& x : sorted) x = std::max(x, 1e-9);
  fit.ks_weibull = stats::ks_distance(sorted, fit.weibull);
  fit.ks_exponential = stats::ks_distance(sorted, fit.exponential);
  return fit;
}

}  // namespace coral::core
