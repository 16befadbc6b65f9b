#include "coral/core/jobfilter.hpp"

#include <algorithm>

#include "coral/joblog/interval_index.hpp"

namespace coral::core {

namespace {

/// Interrupting groups bucketed by errcode (CSR). Groups are ordered by
/// representative time, so the stable scatter keeps every bucket
/// time-ordered — the order the redundancy chains are followed in.
struct GroupBuckets {
  std::vector<ras::ErrcodeId> codes;  ///< ascending, one per non-empty bucket
  std::vector<std::uint32_t> offset;
  std::vector<std::uint32_t> group;  ///< group indices, time-ordered per bucket
};

GroupBuckets bucket_interrupting_groups(const MatchResult& matches,
                                        const CharColumns& cols) {
  GroupBuckets b;
  const std::size_t n_groups = cols.group_count();
  std::vector<std::uint32_t> interrupting;
  ras::ErrcodeId max_code = 0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (matches.jobs_by_group[g].empty()) continue;
    interrupting.push_back(static_cast<std::uint32_t>(g));
    max_code = std::max(max_code, cols.group_code[g]);
  }
  if (interrupting.empty()) {
    b.offset.assign(1, 0);
    return b;
  }
  std::vector<std::int32_t> bucket_of(static_cast<std::size_t>(max_code) + 1, -1);
  for (const std::uint32_t g : interrupting) {
    bucket_of[static_cast<std::size_t>(cols.group_code[g])] = 0;
  }
  for (std::size_t c = 0; c < bucket_of.size(); ++c) {
    if (bucket_of[c] < 0) continue;
    bucket_of[c] = static_cast<std::int32_t>(b.codes.size());
    b.codes.push_back(static_cast<ras::ErrcodeId>(c));
  }
  b.offset.assign(b.codes.size() + 1, 0);
  for (const std::uint32_t g : interrupting) {
    b.offset[static_cast<std::size_t>(
        bucket_of[static_cast<std::size_t>(cols.group_code[g])]) + 1] += 1;
  }
  for (std::size_t i = 0; i < b.codes.size(); ++i) b.offset[i + 1] += b.offset[i];
  b.group.resize(interrupting.size());
  std::vector<std::uint32_t> cursor(b.offset.begin(), b.offset.end() - 1);
  for (const std::uint32_t g : interrupting) {
    b.group[cursor[static_cast<std::size_t>(
        bucket_of[static_cast<std::size_t>(cols.group_code[g])])]++] = g;
  }
  return b;
}

}  // namespace

JobFilterResult job_related_filter(const filter::FilterPipelineResult& filtered,
                                   const MatchResult& matches,
                                   const ClassificationResult& classification,
                                   const joblog::JobLog& jobs, const CharColumns& cols,
                                   const JobFilterConfig& config, par::ThreadPool* pool) {
  (void)filtered;
  JobFilterResult result;
  const std::size_t n_groups = cols.group_count();

  const GroupBuckets buckets = bucket_interrupting_groups(matches, cols);

  // Did any untroubled job run *on the failed hardware itself* between the
  // two reports? (The paper's "no job executed between these two events".)
  // The per-midplane interval index narrows the candidates to jobs whose
  // partition contains one of the midplanes the location touches (the
  // codec's midplane rule), and the start-ordered slice turns the time
  // window into a binary search plus a contiguous scan.
  const joblog::IntervalIndex& index = jobs.interval_index();
  const machine::LocCodec codec = jobs.machine().codec();
  const auto untroubled_job_between = [&](std::uint32_t loc_key, TimePoint a, TimePoint b) {
    const machine::MidplaneRange r = codec.midplanes(loc_key);
    for (bgp::MidplaneId m = r.first; m < r.end; ++m) {
      const joblog::IntervalIndex::StartSlice s = index.starts(m);
      std::size_t i = static_cast<std::size_t>(
          std::upper_bound(s.start_time.begin(), s.start_time.end(), a) -
          s.start_time.begin());
      for (; i < s.start_time.size() && s.start_time[i] < b; ++i) {
        if (s.end_time[i] < b && cols.job_group[s.job[i]] < 0) return true;
      }
    }
    return false;
  };

  // Each errcode's redundancy chain is independent of every other code's
  // (a group belongs to exactly one bucket), so the buckets fan over the
  // pool; the (removed, anchor) pairs land in per-bucket vectors and merge
  // serially in ascending-code order.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> removed(buckets.codes.size());
  par::parallel_for_chunks(buckets.codes.size(), 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t bkt = lo; bkt < hi; ++bkt) {
      const std::uint32_t* v = buckets.group.data() + buckets.offset[bkt];
      const std::size_t len = buckets.offset[bkt + 1] - buckets.offset[bkt];
      const auto cit = classification.by_code.find(buckets.codes[bkt]);
      const bool app_error =
          cit != classification.by_code.end() && cit->second.cause == Cause::ApplicationError;

      // red[i] = observation i is redundant; transitivity: the anchor of a
      // redundant observation is the anchor of its predecessor.
      std::vector<std::uint8_t> red(len, 0);
      for (std::size_t i = 1; i < len; ++i) {
        for (std::size_t k = i; k-- > 0;) {
          if (cols.group_time[v[i]] - cols.group_time[v[k]] > config.horizon) break;
          if (red[k]) continue;  // compare against anchors only
          bool is_redundant = false;
          if (app_error) {
            // Same executable interrupted by the same code before.
            for (const std::size_t ji : matches.jobs_by_group[v[i]]) {
              for (const std::size_t jk : matches.jobs_by_group[v[k]]) {
                if (jobs[ji].exec_id == jobs[jk].exec_id) {
                  is_redundant = true;
                  break;
                }
              }
              if (is_redundant) break;
            }
          } else {
            // Same failed hardware, and no untroubled job ran on it in
            // between.
            if (cols.group_loc[v[i]] == cols.group_loc[v[k]] &&
                !untroubled_job_between(cols.group_loc[v[k]], cols.group_time[v[k]],
                                  cols.group_time[v[i]])) {
              is_redundant = true;
            }
          }
          if (is_redundant) {
            red[i] = 1;
            removed[bkt].push_back({v[i], v[k]});
            break;
          }
        }
      }
    }
  }, pool);

  std::vector<std::uint8_t> redundant(n_groups, 0);
  for (const auto& pairs : removed) {
    for (const auto& [g, anchor] : pairs) {
      redundant[g] = 1;
      result.redundant_to[g] = anchor;
    }
  }
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (!redundant[g]) result.kept.push_back(g);
  }
  return result;
}

}  // namespace coral::core
