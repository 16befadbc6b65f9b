// Frozen reference implementation of the paper's front end (Fig. 1):
// temporal -> spatial -> causality filtering of the FATAL records, then
// RAS<->job matching. These are the serial array-of-structs passes the
// library shipped before its columnar rewrite (hash maps keyed per group,
// an ordered pair-count map, a std::set per group and an all-jobs scan),
// kept deliberately naive so they are easy to audit. The library's only
// front end is the streaming engine in src/coral/stream/; the differential
// tests pin it byte-identical to this oracle. Nothing here may change to
// make a streaming result pass.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coral/context.hpp"
#include "coral/core/matching.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/log.hpp"

namespace coral::oracle {

using filter::CausalPair;
using filter::EventGroup;

/// Same ERRCODE at the same LOCATION within the renewing threshold.
inline std::vector<EventGroup> temporal_filter(std::span<const ras::RasEvent> events,
                                               std::vector<EventGroup> groups,
                                               const filter::TemporalFilterConfig& config) {
  struct Open {
    std::size_t out_index;
    TimePoint last;
  };
  std::unordered_map<std::uint64_t, Open> open;
  std::vector<EventGroup> out;
  for (EventGroup& g : groups) {
    const ras::RasEvent& rep = events[g.rep];
    const std::uint64_t key =
        (static_cast<std::uint64_t>(static_cast<std::uint32_t>(rep.errcode)) << 32) |
        rep.location.packed();
    const auto it = open.find(key);
    if (it != open.end() && rep.event_time - it->second.last <= config.threshold) {
      it->second.last = rep.event_time;  // the chain renews its window
      filter::merge_groups(out[it->second.out_index], std::move(g));
      continue;
    }
    open[key] = Open{out.size(), rep.event_time};
    out.push_back(std::move(g));
  }
  return out;
}

/// Same ERRCODE at any location within the renewing threshold.
inline std::vector<EventGroup> spatial_filter(std::span<const ras::RasEvent> events,
                                              std::vector<EventGroup> groups,
                                              const filter::SpatialFilterConfig& config) {
  struct Open {
    std::size_t out_index;
    TimePoint last;
  };
  std::unordered_map<ras::ErrcodeId, Open> open;
  std::vector<EventGroup> out;
  for (EventGroup& g : groups) {
    const ras::RasEvent& rep = events[g.rep];
    const auto it = open.find(rep.errcode);
    if (it != open.end() && rep.event_time - it->second.last <= config.threshold) {
      it->second.last = rep.event_time;
      filter::merge_groups(out[it->second.out_index], std::move(g));
      continue;
    }
    open[rep.errcode] = Open{out.size(), rep.event_time};
    out.push_back(std::move(g));
  }
  return out;
}

/// Distinct-code pairs whose group representatives co-occur within the
/// window at least min_support times (each pair of groups counted once).
inline std::vector<CausalPair> mine_causal_pairs(std::span<const ras::RasEvent> events,
                                                 std::span<const EventGroup> groups,
                                                 const filter::CausalityFilterConfig& config) {
  std::map<CausalPair, int> counts;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const ras::RasEvent& a = events[groups[i].rep];
    for (std::size_t j = i + 1; j < groups.size(); ++j) {
      const ras::RasEvent& b = events[groups[j].rep];
      if (b.event_time - a.event_time > config.window) break;
      if (a.errcode == b.errcode) continue;
      counts[std::minmax(a.errcode, b.errcode)] += 1;
    }
  }
  std::vector<CausalPair> pairs;
  for (const auto& [key, n] : counts) {
    if (n >= config.min_support) pairs.push_back(key);
  }
  return pairs;
}

/// Merge each group into the most recent group of a causally paired code
/// within the window (ties: first partner code in ascending order wins).
/// Leader windows do not renew.
inline std::vector<EventGroup> causality_filter(std::span<const ras::RasEvent> events,
                                                std::vector<EventGroup> groups,
                                                std::span<const CausalPair> pairs,
                                                const filter::CausalityFilterConfig& config) {
  std::unordered_map<ras::ErrcodeId, std::set<ras::ErrcodeId>> partner;
  for (const auto& [a, b] : pairs) {
    partner[a].insert(b);
    partner[b].insert(a);
  }
  struct Open {
    std::size_t out_index;
    TimePoint last;
  };
  std::unordered_map<ras::ErrcodeId, Open> open;  // last unmerged group per code
  std::vector<EventGroup> out;
  for (EventGroup& g : groups) {
    const ras::RasEvent& rep = events[g.rep];
    bool merged = false;
    if (const auto pit = partner.find(rep.errcode); pit != partner.end()) {
      std::size_t best_out = 0;
      TimePoint best_time;
      bool found = false;
      for (const ras::ErrcodeId p : pit->second) {
        const auto oit = open.find(p);
        if (oit == open.end()) continue;
        if (rep.event_time - oit->second.last > config.window) continue;
        if (!found || oit->second.last > best_time) {
          found = true;
          best_time = oit->second.last;
          best_out = oit->second.out_index;
        }
      }
      if (found) {
        filter::merge_groups(out[best_out], std::move(g));
        merged = true;
      }
    }
    if (!merged) {
      open[rep.errcode] = Open{out.size(), rep.event_time};
      out.push_back(std::move(g));
    }
  }
  return out;
}

/// The three filter stages over the FATAL records of `log`, with the
/// per-stage bookkeeping of Fig. 1.
inline filter::FilterPipelineResult run_filter_pipeline(
    const ras::RasLog& log, const filter::FilterPipelineConfig& config = {}) {
  filter::FilterPipelineResult result;
  result.fatal_events = log.fatal_events();
  const std::vector<ras::RasEvent>& events = result.fatal_events;

  std::vector<EventGroup> groups = filter::singleton_groups(events.size());
  result.stages.push_back({"raw FATAL records", events.size(), groups.size()});

  const std::size_t before_temporal = groups.size();
  groups = oracle::temporal_filter(events, std::move(groups), config.temporal);
  result.stages.push_back({"temporal", before_temporal, groups.size()});

  const std::size_t before_spatial = groups.size();
  groups = oracle::spatial_filter(events, std::move(groups), config.spatial);
  result.stages.push_back({"spatial", before_spatial, groups.size()});

  if (config.enable_causality) {
    const std::size_t before_causality = groups.size();
    result.causal_pairs = oracle::mine_causal_pairs(events, groups, config.causality);
    groups = oracle::causality_filter(events, std::move(groups), result.causal_pairs,
                              config.causality);
    result.stages.push_back({"causality", before_causality, groups.size()});
  }
  result.groups = std::move(groups);
  return result;
}

/// A job is interrupted by a group when it ends within `window` of the
/// representative record, was already running by rep + window, and its
/// partition covers any member record's location. A job belongs to the
/// first group (in group order) that matches it.
inline core::MatchResult match_interruptions(const filter::FilterPipelineResult& filtered,
                                             const joblog::JobLog& jobs, Usec window) {
  const machine::LocCodec codec = jobs.machine().codec();
  core::MatchResult result;
  result.jobs_by_group.resize(filtered.groups.size());
  result.group_by_job.assign(jobs.size(), std::nullopt);
  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    const EventGroup& group = filtered.groups[g];
    const TimePoint rep_time = filtered.fatal_events[group.rep].event_time;
    const TimePoint lo = rep_time - window;
    const TimePoint hi = rep_time + window;
    std::set<std::size_t> matched;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (jobs[j].end_time < lo || jobs[j].end_time > hi) continue;
      if (jobs[j].start_time > hi) continue;
      for (const std::size_t member : group.members) {
        if (jobs[j].partition.covers_key(filtered.fatal_events[member].location.packed(),
                                         codec)) {
          matched.insert(j);
          break;
        }
      }
    }
    result.jobs_by_group[g].assign(matched.begin(), matched.end());
  }
  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    for (const std::size_t job : result.jobs_by_group[g]) {
      if (!result.group_by_job[job]) {
        result.group_by_job[job] = g;
        result.interruptions.push_back({g, job, jobs[job].end_time});
      }
    }
  }
  std::sort(result.interruptions.begin(), result.interruptions.end(),
            [](const core::Interruption& a, const core::Interruption& b) {
              return a.time < b.time;
            });
  return result;
}

/// The whole co-analysis with the oracle front end in place of the
/// streaming one: what core::run_coanalysis must reproduce exactly.
inline core::CoAnalysisResult run_coanalysis(const ras::RasLog& ras,
                                             const joblog::JobLog& jobs,
                                             const core::CoAnalysisConfig& config = {},
                                             const Context& ctx = {}) {
  filter::FilterPipelineResult filtered = oracle::run_filter_pipeline(ras, config.filters);
  core::MatchResult matches = oracle::match_interruptions(filtered, jobs, config.matching.window);
  return core::complete_coanalysis(std::move(filtered), std::move(matches), jobs, config, ctx);
}

}  // namespace coral::oracle
