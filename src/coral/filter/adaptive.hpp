#pragma once

#include <map>

#include "coral/filter/groups.hpp"
#include "coral/filter/temporal.hpp"

namespace coral::filter {

/// Adaptive temporal filtering, after Liang et al.'s adaptive semantic
/// filter [4] (cited as the more flexible alternative to the constant
/// thresholds of [12]/[9] that this repo uses by default): instead of one
/// global threshold, each ERRCODE gets its own, learned from the gap
/// statistics of its *own* record stream. Records of one underlying event
/// re-report at second-to-minute gaps while independent events are hours
/// apart, so the sorted same-code-same-location gap sequence has a sharp
/// knee; the filter places the threshold at the largest multiplicative
/// jump.
struct AdaptiveFilterConfig {
  /// Thresholds are clamped to this range (a code with too few samples or
  /// no clear knee falls back to `fallback`).
  Usec min_threshold = 10 * kUsecPerSec;
  Usec max_threshold = 2 * kUsecPerHour;
  Usec fallback = 300 * kUsecPerSec;
  /// Minimum same-key gap samples needed to fit a per-code threshold.
  std::size_t min_samples = 8;
};

/// The learned per-errcode thresholds plus bookkeeping for inspection.
struct AdaptiveThresholds {
  std::map<ras::ErrcodeId, Usec> by_code;
  Usec fallback = 300 * kUsecPerSec;

  Usec threshold_for(ras::ErrcodeId code) const {
    const auto it = by_code.find(code);
    return it == by_code.end() ? fallback : it->second;
  }
};

/// Learn per-errcode thresholds from the (time-sorted) event stream.
AdaptiveThresholds learn_adaptive_thresholds(std::span<const ras::RasEvent> events,
                                             const AdaptiveFilterConfig& config = {});

/// Temporal filtering with per-errcode thresholds (same grouping semantics
/// as temporal_filter).
std::vector<EventGroup> adaptive_temporal_filter(std::span<const ras::RasEvent> events,
                                                 std::vector<EventGroup> groups,
                                                 const AdaptiveThresholds& thresholds);

}  // namespace coral::filter
