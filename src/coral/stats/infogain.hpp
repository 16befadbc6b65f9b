#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace coral::stats {

/// Shannon entropy (bits) of a discrete label distribution given counts.
double entropy(std::span<const std::size_t> counts);

/// Class counts of the instances sharing one feature value:
/// [0] = negative instances, [1] = positive instances.
using ClassCounts = std::array<std::size_t, 2>;

/// A categorical feature against a binary class, as a contingency table:
/// one row of class counts per feature value, in ascending value order.
/// Rows with no instances are allowed and contribute nothing.
struct FeatureTable {
  std::string name;
  std::vector<ClassCounts> counts;
};

/// Information-gain-ratio scores for one feature against binary labels
/// (the feature-ranking method of §VI-D / [26]).
struct GainScore {
  std::string name;
  double info_gain = 0;       ///< H(class) − H(class|feature)
  double split_info = 0;      ///< H(feature)
  double gain_ratio = 0;      ///< info_gain / split_info (0 if split_info==0)
};

/// Score one feature from its contingency table. The table must hold at
/// least one instance.
GainScore gain_ratio(const FeatureTable& feature);

/// Score and rank several features, highest gain ratio first (ties keep
/// their input order).
std::vector<GainScore> rank_features(std::span<const FeatureTable> features);

}  // namespace coral::stats
