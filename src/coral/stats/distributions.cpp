#include "coral/stats/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/stats/special.hpp"

namespace coral::stats {

namespace {

constexpr double kTinySample = 1e-9;

// Copy samples, clamping non-positive values to a tiny epsilon so that
// log-based likelihoods stay finite (interarrival data can contain exact
// zeros when two records carry the same timestamp).
std::vector<double> positive_copy(std::span<const double> samples) {
  CORAL_EXPECTS(!samples.empty());
  std::vector<double> xs(samples.begin(), samples.end());
  for (double& x : xs) {
    CORAL_EXPECTS(x >= 0);
    if (x < kTinySample) x = kTinySample;
  }
  return xs;
}

}  // namespace

Exponential::Exponential(double mean) : mean_(mean) { CORAL_EXPECTS(mean > 0); }

double Exponential::pdf(double x) const {
  if (x < 0) return 0;
  return std::exp(-x / mean_) / mean_;
}

double Exponential::log_pdf(double x) const {
  CORAL_EXPECTS(x >= 0);
  return -std::log(mean_) - x / mean_;
}

double Exponential::cdf(double x) const {
  if (x <= 0) return 0;
  return 1.0 - std::exp(-x / mean_);
}

double Exponential::quantile(double p) const {
  CORAL_EXPECTS(p >= 0 && p < 1);
  return -mean_ * std::log1p(-p);
}

Exponential Exponential::fit_mle(std::span<const double> samples) {
  const auto xs = positive_copy(samples);
  double sum = 0;
  for (double x : xs) sum += x;
  return Exponential(sum / static_cast<double>(xs.size()));
}

double Exponential::log_likelihood(std::span<const double> samples) const {
  const auto xs = positive_copy(samples);
  double ll = 0;
  for (double x : xs) ll += log_pdf(x);
  return ll;
}

Weibull::Weibull(double shape, double scale) : shape_(shape), scale_(scale) {
  CORAL_EXPECTS(shape > 0 && scale > 0);
}

double Weibull::pdf(double x) const {
  if (x < 0) return 0;
  if (x == 0) return shape_ >= 1 ? (shape_ == 1 ? 1.0 / scale_ : 0.0)
                                 : std::numeric_limits<double>::infinity();
  const double z = x / scale_;
  return (shape_ / scale_) * std::pow(z, shape_ - 1.0) * std::exp(-std::pow(z, shape_));
}

double Weibull::log_pdf(double x) const {
  CORAL_EXPECTS(x > 0);
  const double z = x / scale_;
  return std::log(shape_ / scale_) + (shape_ - 1.0) * std::log(z) - std::pow(z, shape_);
}

double Weibull::cdf(double x) const {
  if (x <= 0) return 0;
  return 1.0 - std::exp(-std::pow(x / scale_, shape_));
}

double Weibull::quantile(double p) const {
  CORAL_EXPECTS(p >= 0 && p < 1);
  return scale_ * std::pow(-std::log1p(-p), 1.0 / shape_);
}

double Weibull::mean() const { return scale_ * gamma_fn(1.0 + 1.0 / shape_); }

double Weibull::variance() const {
  const double g1 = gamma_fn(1.0 + 1.0 / shape_);
  const double g2 = gamma_fn(1.0 + 2.0 / shape_);
  return scale_ * scale_ * (g2 - g1 * g1);
}

double Weibull::hazard(double x) const {
  CORAL_EXPECTS(x > 0);
  const double z = x / scale_;
  return (shape_ / scale_) * std::pow(z, shape_ - 1.0);
}

Weibull Weibull::fit_mle(std::span<const double> samples) {
  const auto xs = positive_copy(samples);
  const auto n = static_cast<double>(xs.size());
  // log(x) does not depend on the shape, so it is taken once per sample
  // here rather than once per sample in every evaluation of g below.
  std::vector<double> log_xs(xs.size());
  double sum_log = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    log_xs[i] = std::log(xs[i]);
    sum_log += log_xs[i];
  }
  const double mean_log = sum_log / n;

  // Profile-likelihood equation in the shape k:
  //   g(k) = sum(x^k log x)/sum(x^k) - 1/k - mean(log x) = 0,
  // g is increasing in k; bracket then refine with safeguarded Newton.
  const auto g = [&](double k) {
    double swx = 0, sw = 0;
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double w = std::pow(xs[i], k);
      sw += w;
      swx += w * log_xs[i];
    }
    return swx / sw - 1.0 / k - mean_log;
  };

  double lo = 1e-3, hi = 1.0;
  while (g(hi) < 0 && hi < 1e3) hi *= 2;
  while (g(lo) > 0 && lo > 1e-6) lo /= 2;

  double k = std::clamp(1.0, lo, hi);
  for (int iter = 0; iter < 200; ++iter) {
    const double gk = g(k);
    if (std::fabs(gk) < 1e-12) break;
    if (gk > 0) {
      hi = k;
    } else {
      lo = k;
    }
    // Numerical Newton step, safeguarded by the bracket.
    const double h = std::max(1e-8, 1e-6 * k);
    const double dg = (g(k + h) - gk) / h;
    double next = dg > 0 ? k - gk / dg : 0;
    if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
    if (std::fabs(next - k) < 1e-12 * k) {
      k = next;
      break;
    }
    k = next;
  }

  double swk = 0;
  for (double x : xs) swk += std::pow(x, k);
  const double scale = std::pow(swk / n, 1.0 / k);
  return Weibull(k, scale);
}

double Weibull::log_likelihood(std::span<const double> samples) const {
  const auto xs = positive_copy(samples);
  double ll = 0;
  for (double x : xs) ll += log_pdf(x);
  return ll;
}

LrtResult likelihood_ratio_test(std::span<const double> samples,
                                const Exponential& exponential, const Weibull& weibull,
                                double alpha) {
  LrtResult r;
  r.ll_exponential = exponential.log_likelihood(samples);
  r.ll_weibull = weibull.log_likelihood(samples);
  r.statistic = std::max(0.0, 2.0 * (r.ll_weibull - r.ll_exponential));
  r.p_value = chi2_sf(r.statistic, 1.0);
  r.weibull_preferred = r.p_value < alpha;
  return r;
}

}  // namespace coral::stats
