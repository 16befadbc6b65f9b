// Frozen column-scan information-gain kernel: the per-instance feature
// column and its scorer, as the vulnerability stage ranked features before
// it moved to contingency tables (stats::FeatureTable). Copied verbatim
// (only renamed). test_stats pins the table kernel to it bit for bit, and
// the vulnerability reference in test_characterization ranks through it,
// so that reference shares no kernel with the library. Do not "improve"
// this — its value is that it is the old code.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/stats/infogain.hpp"

namespace coral::frozen {

struct FeatureColumn {
  std::string name;
  std::vector<int> values;  ///< categorical value per instance
};

inline stats::GainScore gain_ratio(const FeatureColumn& feature,
                                   std::span<const std::uint8_t> labels) {
  CORAL_EXPECTS(feature.values.size() == labels.size());
  CORAL_EXPECTS(!labels.empty());
  stats::GainScore score;
  score.name = feature.name;

  const auto n = labels.size();
  std::size_t pos = 0;
  for (std::uint8_t l : labels) pos += l ? 1 : 0;
  const std::size_t class_counts[2] = {n - pos, pos};
  const double h_class = stats::entropy(class_counts);

  double h_cond = 0;
  std::vector<std::size_t> value_counts;
  constexpr int kFlatLimit = 256;
  bool flat = true;
  for (std::size_t i = 0; i < n; ++i) {
    const int v = feature.values[i];
    if (v < 0 || v >= kFlatLimit) {
      flat = false;
      break;
    }
  }
  if (flat) {
    std::array<std::array<std::size_t, 2>, kFlatLimit> counts{};
    int max_v = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int v = feature.values[i];
      counts[static_cast<std::size_t>(v)][labels[i] ? 1 : 0] += 1;
      max_v = std::max(max_v, v);
    }
    for (int v = 0; v <= max_v; ++v) {
      const auto& c = counts[static_cast<std::size_t>(v)];
      const std::size_t group_n = c[0] + c[1];
      if (group_n == 0) continue;
      value_counts.push_back(group_n);
      const double w = static_cast<double>(group_n) / static_cast<double>(n);
      h_cond += w * stats::entropy(c);
    }
  } else {
    std::map<int, std::array<std::size_t, 2>> groups;
    for (std::size_t i = 0; i < n; ++i) {
      groups[feature.values[i]][labels[i] ? 1 : 0] += 1;
    }
    value_counts.reserve(groups.size());
    for (const auto& [value, counts] : groups) {
      (void)value;
      const std::size_t group_n = counts[0] + counts[1];
      value_counts.push_back(group_n);
      const double w = static_cast<double>(group_n) / static_cast<double>(n);
      h_cond += w * stats::entropy(counts);
    }
  }

  score.info_gain = h_class - h_cond;
  score.split_info = stats::entropy(value_counts);
  score.gain_ratio = score.split_info > 0 ? score.info_gain / score.split_info : 0.0;
  return score;
}

inline std::vector<stats::GainScore> rank_features(std::span<const FeatureColumn> features,
                                                   std::span<const std::uint8_t> labels) {
  std::vector<stats::GainScore> out;
  out.reserve(features.size());
  for (const auto& f : features) out.push_back(gain_ratio(f, labels));
  std::stable_sort(out.begin(), out.end(),
                   [](const stats::GainScore& a, const stats::GainScore& b) {
                     return a.gain_ratio > b.gain_ratio;
                   });
  return out;
}

}  // namespace coral::frozen
