#include "coral/core/propagation.hpp"

#include <algorithm>
#include <limits>
#include <span>

namespace coral::core {

PropagationResult analyze_propagation(const filter::FilterPipelineResult& filtered,
                                      const MatchResult& matches,
                                      const joblog::JobLog& jobs, const CharColumns& cols,
                                      const PropagationConfig& config,
                                      par::ThreadPool* pool) {
  (void)filtered;
  (void)pool;  // both passes are O(groups + interruptions); they run serially
  PropagationResult result;
  const std::size_t n_groups = cols.group_count();
  const joblog::JobColumns& jc = jobs.columns();

  // --- Spatial propagation: one event, several victim jobs elsewhere ----
  // A pair of victims with non-overlapping partitions exists iff the
  // largest range start is >= the smallest range end: if the extremes come
  // from two different victims they are that pair, and they cannot come
  // from one victim (its own start < its own end). One pass per group
  // instead of the pairwise scan.
  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto& victims = matches.jobs_by_group[g];
    if (victims.size() < 2) continue;
    std::int32_t max_first = std::numeric_limits<std::int32_t>::min();
    std::int32_t min_end = std::numeric_limits<std::int32_t>::max();
    for (const std::size_t j : victims) {
      max_first = std::max(max_first, jc.part_first[j]);
      min_end = std::min(min_end, jc.part_end[j]);
    }
    if (max_first >= min_end) {
      result.propagating_groups.push_back(g);
      result.propagating_codes.insert(cols.group_code[g]);
    }
  }
  if (n_groups != 0) {
    result.propagating_event_fraction =
        static_cast<double>(result.propagating_groups.size()) /
        static_cast<double>(n_groups);
  }

  // --- Temporal propagation: resubmission placement ----------------------
  // A run that follows an interrupted run of the same executable within
  // the gap is its resubmission. Each executable's runs are a start-ordered
  // chain of ascending job indices, so an interrupted run finds its
  // successor by binary search in its own chain; the tallies are integer
  // sums, independent of the order the interruptions are visited in.
  for (const Interruption& in : matches.interruptions) {
    const std::uint32_t prev = static_cast<std::uint32_t>(in.job);
    const std::span<const std::uint32_t> chain =
        jc.chain(static_cast<std::size_t>(jobs[prev].exec_id));
    const auto it = std::lower_bound(chain.begin(), chain.end(), prev);
    if (it + 1 >= chain.end()) continue;  // the executable's last run
    const std::uint32_t next = *(it + 1);
    if (jc.queue[next] - jc.end[prev] > config.resubmit_gap) continue;
    result.resubmissions_after_interruption += 1;
    if (jc.part_first[next] == jc.part_first[prev] && jc.part_end[next] == jc.part_end[prev]) {
      result.resubmissions_same_partition += 1;
    }
  }
  return result;
}

}  // namespace coral::core
