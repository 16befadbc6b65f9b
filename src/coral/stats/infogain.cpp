#include "coral/stats/infogain.hpp"

#include <algorithm>
#include <cmath>

#include "coral/common/error.hpp"

namespace coral::stats {

double entropy(std::span<const std::size_t> counts) {
  std::size_t total = 0;
  for (std::size_t c : counts) total += c;
  if (total == 0) return 0.0;
  double h = 0;
  for (std::size_t c : counts) {
    if (c == 0) continue;
    const double p = static_cast<double>(c) / static_cast<double>(total);
    h -= p * std::log2(p);
  }
  return h;
}

GainScore gain_ratio(const FeatureTable& feature) {
  GainScore score;
  score.name = feature.name;

  std::size_t n = 0, pos = 0;
  for (const ClassCounts& c : feature.counts) {
    n += c[0] + c[1];
    pos += c[1];
  }
  CORAL_EXPECTS(n != 0);
  const std::size_t class_counts[2] = {n - pos, pos};
  const double h_class = entropy(class_counts);

  // H(class|feature) accumulates over the non-empty values in ascending
  // value order, the order a scan of per-instance values into an ordered
  // map would visit them.
  double h_cond = 0;
  std::vector<std::size_t> value_counts;
  value_counts.reserve(feature.counts.size());
  for (const ClassCounts& c : feature.counts) {
    const std::size_t group_n = c[0] + c[1];
    if (group_n == 0) continue;
    value_counts.push_back(group_n);
    const double w = static_cast<double>(group_n) / static_cast<double>(n);
    h_cond += w * entropy(c);
  }

  score.info_gain = h_class - h_cond;
  score.split_info = entropy(value_counts);
  score.gain_ratio = score.split_info > 0 ? score.info_gain / score.split_info : 0.0;
  return score;
}

std::vector<GainScore> rank_features(std::span<const FeatureTable> features) {
  std::vector<GainScore> out;
  out.reserve(features.size());
  for (const auto& f : features) out.push_back(gain_ratio(f));
  std::stable_sort(out.begin(), out.end(),
                   [](const GainScore& a, const GainScore& b) {
                     return a.gain_ratio > b.gain_ratio;
                   });
  return out;
}

}  // namespace coral::stats
