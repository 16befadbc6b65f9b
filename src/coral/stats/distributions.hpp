#pragma once

#include <algorithm>
#include <span>

namespace coral::stats {

/// Exponential distribution with mean `mean` (rate 1/mean).
class Exponential {
 public:
  explicit Exponential(double mean);

  double mean() const { return mean_; }
  double rate() const { return 1.0 / mean_; }

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  double variance() const { return mean_ * mean_; }

  /// Maximum-likelihood fit: the sample mean. Requires non-empty positive
  /// samples.
  static Exponential fit_mle(std::span<const double> samples);

  /// Total log-likelihood of `samples` under this distribution.
  double log_likelihood(std::span<const double> samples) const;

 private:
  double mean_;
};

/// Weibull distribution with shape k and scale λ:
/// F(x) = 1 - exp(-(x/λ)^k). Shape < 1 means decreasing hazard rate — the
/// regime the paper finds for both failures and interruptions.
class Weibull {
 public:
  Weibull(double shape, double scale);

  double shape() const { return shape_; }
  double scale() const { return scale_; }

  double pdf(double x) const;
  double log_pdf(double x) const;
  double cdf(double x) const;
  double quantile(double p) const;
  /// E[X] = λ Γ(1 + 1/k).
  double mean() const;
  /// Var[X] = λ² [Γ(1+2/k) − Γ(1+1/k)²].
  double variance() const;
  /// Hazard rate h(x) = f(x)/S(x).
  double hazard(double x) const;

  /// Maximum-likelihood fit via Newton iteration on the profile-likelihood
  /// shape equation, with bisection fallback (always converges for positive
  /// samples with nonzero spread). Zero samples are clamped to a tiny
  /// positive value, matching standard practice for log-based MLE.
  static Weibull fit_mle(std::span<const double> samples);

  double log_likelihood(std::span<const double> samples) const;

 private:
  double shape_;
  double scale_;
};

/// Likelihood-ratio test of Weibull (alternative) against its nested
/// exponential special case (null, shape = 1); the statistic is
/// 2(llW − llE) ~ χ²(1) under the null.
struct LrtResult {
  double ll_exponential = 0;
  double ll_weibull = 0;
  double statistic = 0;
  double p_value = 1;
  /// True when the Weibull fit is a significantly better explanation
  /// (p < alpha).
  bool weibull_preferred = false;
};

/// Test the maximum-likelihood fits of both models to `samples` (as
/// returned by Exponential::fit_mle and Weibull::fit_mle on the same
/// samples; the test does not refit them).
LrtResult likelihood_ratio_test(std::span<const double> samples,
                                const Exponential& exponential, const Weibull& weibull,
                                double alpha = 0.05);

/// Kolmogorov–Smirnov distance between the sample ECDF and a fitted CDF.
template <typename Dist>
double ks_distance(std::span<const double> sorted_samples, const Dist& dist) {
  double d = 0;
  const auto n = static_cast<double>(sorted_samples.size());
  for (std::size_t i = 0; i < sorted_samples.size(); ++i) {
    const double f = dist.cdf(sorted_samples[i]);
    const double lo = static_cast<double>(i) / n;
    const double hi = static_cast<double>(i + 1) / n;
    d = std::max({d, f - lo, hi - f});
  }
  return d;
}

}  // namespace coral::stats
