#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/common/rng.hpp"
#include "coral/stats/correlation.hpp"
#include "coral/stats/descriptive.hpp"
#include "coral/stats/distributions.hpp"
#include "coral/stats/ecdf.hpp"
#include "coral/stats/infogain.hpp"
#include "coral/stats/special.hpp"
#include "frozen_infogain.hpp"

namespace coral::stats {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// ---------------------------------------------------------------------------
// Frozen kernels: the refitting likelihood-ratio test and the Weibull Newton
// loop as they were before the fit-once interarrival path (the column-scan
// gain ratio is in frozen_infogain.hpp). Copied verbatim (only renamed); the
// tests below pin the library to them bit for bit. Do not "improve" these.
namespace frozen_fits {

constexpr double kTinySample = 1e-9;

std::vector<double> positive_copy(std::span<const double> samples) {
  CORAL_EXPECTS(!samples.empty());
  std::vector<double> xs(samples.begin(), samples.end());
  for (double& x : xs) {
    CORAL_EXPECTS(x >= 0);
    if (x < kTinySample) x = kTinySample;
  }
  return xs;
}

Weibull weibull_fit_mle(std::span<const double> samples) {
  const auto xs = positive_copy(samples);
  const auto n = static_cast<double>(xs.size());
  double sum_log = 0;
  for (double x : xs) sum_log += std::log(x);
  const double mean_log = sum_log / n;

  const auto g = [&](double k) {
    double swx = 0, sw = 0;
    for (double x : xs) {
      const double w = std::pow(x, k);
      sw += w;
      swx += w * std::log(x);
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

LrtResult likelihood_ratio_test(std::span<const double> samples, double alpha = 0.05) {
  LrtResult r;
  const Exponential e = Exponential::fit_mle(samples);
  const Weibull w = weibull_fit_mle(samples);
  r.ll_exponential = e.log_likelihood(samples);
  r.ll_weibull = w.log_likelihood(samples);
  r.statistic = std::max(0.0, 2.0 * (r.ll_weibull - r.ll_exponential));
  r.p_value = chi2_sf(r.statistic, 1.0);
  r.weibull_preferred = r.p_value < alpha;
  return r;
}

}  // namespace frozen_fits

TEST(Special, GammaPQComplement) {
  for (double a : {0.5, 1.0, 2.5, 10.0}) {
    for (double x : {0.1, 1.0, 5.0, 20.0}) {
      EXPECT_NEAR(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
    }
  }
}

TEST(Special, GammaPKnownValues) {
  // P(1, x) = 1 - e^-x.
  EXPECT_NEAR(gamma_p(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-12);
  // Chi2(1) CDF at 3.841 ~ 0.95 (the classic 5% critical value).
  EXPECT_NEAR(chi2_sf(3.841, 1.0), 0.05, 1e-3);
  // Chi2(2) survival is exp(-x/2).
  EXPECT_NEAR(chi2_sf(4.0, 2.0), std::exp(-2.0), 1e-12);
}

TEST(Special, BoundaryBehaviour) {
  EXPECT_DOUBLE_EQ(gamma_p(2.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gamma_q(2.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(chi2_sf(-1.0, 3.0), 1.0);
  EXPECT_THROW(gamma_p(-1.0, 1.0), InvalidArgument);
}

TEST(Descriptive, MeanVarianceQuantiles) {
  const std::vector<double> xs = {1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(mean(xs), 3.0);
  EXPECT_DOUBLE_EQ(variance(xs), 2.5);
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(xs, 1.0), 5.0);
  EXPECT_THROW(mean(std::vector<double>{}), InvalidArgument);
}

TEST(Descriptive, Summary) {
  const std::vector<double> xs = {4, 1, 3, 2};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
}

TEST(Exponential, PdfCdfQuantileConsistency) {
  const Exponential e(100.0);
  EXPECT_NEAR(e.cdf(e.quantile(0.7)), 0.7, 1e-12);
  EXPECT_NEAR(e.pdf(0.0), 1.0 / 100.0, 1e-12);
  EXPECT_DOUBLE_EQ(e.cdf(0.0), 0.0);
  EXPECT_THROW(Exponential(0.0), InvalidArgument);
}

TEST(Exponential, MleRecoversMean) {
  Rng rng(42);
  std::vector<double> xs(20000);
  for (double& x : xs) x = rng.exponential(250.0);
  const Exponential fit = Exponential::fit_mle(xs);
  EXPECT_NEAR(fit.mean(), 250.0, 8.0);
}

TEST(Weibull, AnalyticMomentsMatchFormulas) {
  const Weibull w(2.0, 100.0);
  // Gamma(1.5) = sqrt(pi)/2.
  EXPECT_NEAR(w.mean(), 100.0 * std::sqrt(M_PI) / 2.0, 1e-9);
  const Weibull w1(1.0, 100.0);
  EXPECT_NEAR(w1.mean(), 100.0, 1e-9);
  EXPECT_NEAR(w1.variance(), 10000.0, 1e-6);
}

TEST(Weibull, CdfQuantileRoundTrip) {
  const Weibull w(0.5, 8000.0);
  for (double p : {0.1, 0.5, 0.9, 0.99}) {
    EXPECT_NEAR(w.cdf(w.quantile(p)), p, 1e-10);
  }
}

TEST(Weibull, DecreasingHazardWhenShapeBelowOne) {
  const Weibull w(0.4, 1000.0);
  EXPECT_GT(w.hazard(10.0), w.hazard(100.0));
  EXPECT_GT(w.hazard(100.0), w.hazard(1000.0));
  const Weibull w2(2.0, 1000.0);
  EXPECT_LT(w2.hazard(10.0), w2.hazard(100.0));
}

struct WeibullCase {
  double shape;
  double scale;
};

class WeibullMleP : public ::testing::TestWithParam<WeibullCase> {};

TEST_P(WeibullMleP, RecoversParameters) {
  const auto [shape, scale] = GetParam();
  Rng rng(static_cast<std::uint64_t>(shape * 7919 + scale));
  std::vector<double> xs(30000);
  for (double& x : xs) x = rng.weibull(shape, scale);
  const Weibull fit = Weibull::fit_mle(xs);
  EXPECT_NEAR(fit.shape() / shape, 1.0, 0.05) << "shape " << shape;
  EXPECT_NEAR(fit.scale() / scale, 1.0, 0.07) << "scale " << scale;
}

INSTANTIATE_TEST_SUITE_P(
    ParameterGrid, WeibullMleP,
    ::testing::Values(WeibullCase{0.35, 23075.0},  // Table V system failures
                      WeibullCase{0.39, 8116.7},   // Table IV before filtering
                      WeibullCase{0.57, 68465.9},  // Table IV after filtering
                      WeibullCase{0.30, 23801.7},  // Table V application errors
                      WeibullCase{1.0, 100.0}, WeibullCase{2.5, 10.0}));

TEST(Lrt, PrefersWeibullForWeibullData) {
  Rng rng(11);
  std::vector<double> xs(5000);
  for (double& x : xs) x = rng.weibull(0.4, 8000.0);
  const LrtResult r =
      likelihood_ratio_test(xs, Exponential::fit_mle(xs), Weibull::fit_mle(xs));
  EXPECT_TRUE(r.weibull_preferred);
  EXPECT_GT(r.ll_weibull, r.ll_exponential);
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(Lrt, DoesNotPreferWeibullForExponentialData) {
  Rng rng(12);
  std::vector<double> xs(5000);
  for (double& x : xs) x = rng.exponential(500.0);
  const LrtResult r =
      likelihood_ratio_test(xs, Exponential::fit_mle(xs), Weibull::fit_mle(xs));
  // Under the null the statistic is chi2(1); p should not be tiny.
  EXPECT_GT(r.p_value, 1e-4);
}

// Three sample sets for the bit-exact fit pins: Weibull interarrivals at a
// Table V shape, exponential ones, and a set with exact zeros (two records
// on one timestamp) that exercises the 1e-9 clamp.
std::vector<std::vector<double>> pinned_sample_sets() {
  Rng rng(31);
  std::vector<double> weibull(4000), exponential(2500), with_zeros(1500);
  for (double& x : weibull) x = rng.weibull(0.35, 23075.0);
  for (double& x : exponential) x = rng.exponential(600.0);
  for (std::size_t i = 0; i < with_zeros.size(); ++i) {
    with_zeros[i] = i % 7 == 0 ? 0.0 : rng.weibull(0.57, 68465.9);
  }
  return {weibull, exponential, with_zeros};
}

TEST(Lrt, ModelTakingTestMatchesFrozenRefittingTestBitForBit) {
  for (const std::vector<double>& xs : pinned_sample_sets()) {
    const LrtResult want = frozen_fits::likelihood_ratio_test(xs);
    const LrtResult got =
        likelihood_ratio_test(xs, Exponential::fit_mle(xs), Weibull::fit_mle(xs));
    EXPECT_EQ(bits(want.ll_exponential), bits(got.ll_exponential));
    EXPECT_EQ(bits(want.ll_weibull), bits(got.ll_weibull));
    EXPECT_EQ(bits(want.statistic), bits(got.statistic));
    EXPECT_EQ(bits(want.p_value), bits(got.p_value));
    EXPECT_EQ(want.weibull_preferred, got.weibull_preferred);
  }
}

TEST(WeibullMle, MatchesFrozenNewtonLoopBitForBit) {
  for (const std::vector<double>& xs : pinned_sample_sets()) {
    const Weibull want = frozen_fits::weibull_fit_mle(xs);
    const Weibull got = Weibull::fit_mle(xs);
    EXPECT_EQ(bits(want.shape()), bits(got.shape()));
    EXPECT_EQ(bits(want.scale()), bits(got.scale()));
  }
}

TEST(Ks, SmallerForTrueModel) {
  Rng rng(13);
  std::vector<double> xs(4000);
  for (double& x : xs) x = rng.weibull(0.5, 1000.0);
  std::sort(xs.begin(), xs.end());
  const Weibull w = Weibull::fit_mle(xs);
  const Exponential e = Exponential::fit_mle(xs);
  EXPECT_LT(ks_distance(xs, w), ks_distance(xs, e));
}

TEST(Ecdf, BasicProperties) {
  const std::vector<double> xs = {3.0, 1.0, 2.0, 2.0};
  const EmpiricalCdf cdf(xs);
  EXPECT_DOUBLE_EQ(cdf(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf(1.0), 0.25);
  EXPECT_DOUBLE_EQ(cdf(2.0), 0.75);
  EXPECT_DOUBLE_EQ(cdf(3.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf(99.0), 1.0);
  EXPECT_EQ(cdf.size(), 4u);
}

TEST(Ecdf, PointsAreMonotone) {
  Rng rng(14);
  std::vector<double> xs(1000);
  for (double& x : xs) x = rng.uniform(0, 100);
  const EmpiricalCdf cdf(xs);
  const auto pts = cdf.points(32);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].first, pts[i].first);
    EXPECT_LE(pts[i - 1].second, pts[i].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Pearson, PerfectAndAnticorrelation) {
  const std::vector<double> x = {1, 2, 3, 4};
  const std::vector<double> y = {2, 4, 6, 8};
  const std::vector<double> z = {8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  EXPECT_NEAR(pearson(x, z), -1.0, 1e-12);
  const std::vector<double> flat = {5, 5, 5, 5};
  EXPECT_DOUBLE_EQ(pearson(x, flat), 0.0);
}

TEST(Pearson, EventTimeCorrelation) {
  // Two event streams firing in the same windows correlate strongly.
  std::vector<TimePoint> a, b, c;
  const TimePoint t0(0);
  for (int i = 0; i < 10; ++i) {
    a.push_back(t0 + i * 2 * kUsecPerHour);
    b.push_back(t0 + i * 2 * kUsecPerHour + kUsecPerMin);
    c.push_back(t0 + (i * 2 + 1) * kUsecPerHour);
  }
  const TimePoint end = t0 + 20 * kUsecPerHour;
  const double r_ab = event_time_correlation(a, b, t0, end, kUsecPerHour);
  const double r_ac = event_time_correlation(a, c, t0, end, kUsecPerHour);
  EXPECT_GT(r_ab, 0.9);
  EXPECT_LT(r_ac, 0.0);
}

TEST(InfoGain, PerfectPredictorGetsFullGain) {
  // Values {0, 0, 1, 1} against labels {0, 0, 1, 1}.
  const FeatureTable f{"perfect", {{2, 0}, {0, 2}}};
  const GainScore s = gain_ratio(f);
  EXPECT_NEAR(s.info_gain, 1.0, 1e-12);  // H(class)=1 bit, fully explained
  EXPECT_NEAR(s.gain_ratio, 1.0, 1e-12);
}

TEST(InfoGain, UselessPredictorGetsZero) {
  // Values {0, 1, 0, 1} against labels {0, 0, 1, 1}.
  const FeatureTable f{"useless", {{1, 1}, {1, 1}}};
  const GainScore s = gain_ratio(f);
  EXPECT_NEAR(s.info_gain, 0.0, 1e-12);
}

TEST(InfoGain, RankOrdersByGainRatio) {
  // Labels {0, 0, 1, 1}; the partial feature's values are {0, 0, 0, 1}.
  const std::vector<FeatureTable> features = {
      {"useless", {{1, 1}, {1, 1}}},
      {"perfect", {{2, 0}, {0, 2}}},
      {"partial", {{2, 1}, {0, 1}}},
  };
  const auto ranked = rank_features(features);
  EXPECT_EQ(ranked[0].name, "perfect");
  EXPECT_EQ(ranked.back().name, "useless");
}

TEST(InfoGain, RejectsAnEmptyTable) {
  EXPECT_THROW(gain_ratio(FeatureTable{"empty", {}}), InvalidArgument);
  EXPECT_THROW(gain_ratio(FeatureTable{"zeros", {{0, 0}, {0, 0}}}), InvalidArgument);
}

// The table kernel against the frozen column scan, bit for bit: the
// table is built the way a caller counts a column (one row per distinct
// value, ascending), and every score must carry the same bits. Value
// ranges cover the old flat-array path ([0, 256)) and its std::map
// fallback (negative values, values >= 256).
TEST(InfoGain, TableKernelMatchesFrozenColumnScanBitForBit) {
  Rng rng(2011);
  struct Range {
    int lo, hi;
  };
  for (const Range range : {Range{0, 1}, Range{0, 8}, Range{0, 255}, Range{-40, 40},
                            Range{200, 700}, Range{-1000, 1000}}) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::size_t n = 1 + rng.uniform_index(3000);
      const double pos_rate = rng.uniform();
      frozen::FeatureColumn column{"f", {}};
      std::vector<std::uint8_t> labels;
      std::map<int, ClassCounts> by_value;
      for (std::size_t i = 0; i < n; ++i) {
        const int v = static_cast<int>(rng.uniform_int(range.lo, range.hi));
        const std::uint8_t label = rng.bernoulli(pos_rate) ? 1 : 0;
        column.values.push_back(v);
        labels.push_back(label);
        by_value[v][label] += 1;
      }
      FeatureTable table{"f", {}};
      for (const auto& [value, counts] : by_value) table.counts.push_back(counts);
      const GainScore want = frozen::gain_ratio(column, labels);
      const GainScore got = gain_ratio(table);
      SCOPED_TRACE(testing::Message() << "values [" << range.lo << ", " << range.hi
                                      << "], trial " << trial << ", n " << n);
      EXPECT_EQ(bits(want.info_gain), bits(got.info_gain));
      EXPECT_EQ(bits(want.split_info), bits(got.split_info));
      EXPECT_EQ(bits(want.gain_ratio), bits(got.gain_ratio));
    }
  }
}

TEST(Entropy, KnownValues) {
  const std::size_t even[] = {5, 5};
  EXPECT_NEAR(entropy(even), 1.0, 1e-12);
  const std::size_t pure[] = {10, 0};
  EXPECT_NEAR(entropy(pure), 0.0, 1e-12);
  const std::size_t empty[] = {0, 0};
  EXPECT_NEAR(entropy(empty), 0.0, 1e-12);
}

}  // namespace
}  // namespace coral::stats
