#pragma once

#include <span>
#include <vector>

#include "coral/common/time.hpp"

namespace coral::stream {

/// A partition of the time axis into shards for parallel streaming runs.
/// Shard i covers [cuts[i-1], cuts[i]) (with open ends at the extremes).
struct ShardPlan {
  std::vector<TimePoint> cuts;  ///< ascending, strictly inside quiesce gaps

  std::size_t shard_count() const { return cuts.size() + 1; }
  /// Shard index owning time `t`.
  std::size_t shard_of(TimePoint t) const;
};

/// The quiesce gap that makes cutting *exact*: a cut placed at the midpoint
/// of a fatal-record gap strictly larger than this can be crossed by no
/// temporal/spatial/causality chain, no mined co-occurrence, and no RAS<->
/// job match window — so per-shard streaming results concatenate to the
/// unsharded result bit-for-bit. The `2*match + 1` term ensures the *floored*
/// half-gap on either side of a cut still exceeds the match window.
Usec quiesce_gap(Usec temporal_threshold, Usec spatial_threshold, Usec causality_window,
                 Usec match_window);

/// Choose up to `target_shards - 1` cuts at midpoints of qualifying gaps in
/// the (sorted) fatal-record times, as close to an even time split as the
/// gaps allow. Fewer cuts (possibly none) are returned when the log has too
/// few quiesce gaps — correctness never depends on reaching the target.
ShardPlan plan_shards(std::span<const TimePoint> fatal_times, int target_shards,
                      Usec quiesce);

}  // namespace coral::stream
