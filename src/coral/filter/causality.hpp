#pragma once

#include <utility>

#include "coral/common/time.hpp"
#include "coral/ras/catalog.hpp"

namespace coral::filter {

/// Causality-related filtering [7]: different ERRCODEs that co-occur
/// frequently within a short window are causally coupled (e.g. an L1 cache
/// parity error dragging a kernel panic). The filter first *mines* the
/// frequently co-occurring code pairs from the data, then merges each
/// follower group into the leader group it trails.
struct CausalityFilterConfig {
  Usec window = 120 * kUsecPerSec;  ///< co-occurrence window
  int min_support = 5;              ///< occurrences needed to accept a pair
};

/// An accepted causally-coupled pair, smaller errcode first.
using CausalPair = std::pair<ras::ErrcodeId, ras::ErrcodeId>;

}  // namespace coral::filter
