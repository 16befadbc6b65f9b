#include "coral/stream/coanalysis.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "coral/obs/obs.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/stream/matcher.hpp"

namespace coral::stream {

FrontEndResult run_streaming_frontend(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                      const FrontEndConfig& config, const Context& ctx) {
  obs::Collector* obs = ctx.obs();
  FrontEndResult r;
  // The SoA view drives the hot loops; fatal_events is only the materialised
  // copy downstream reports expect, gathered through the severity index
  // maintained at ingest (RasLog::finalize) instead of re-scanning the log.
  const ras::FatalColumns& cols = ras.fatal_columns();
  {
    obs::Span span(obs, "fatal_view");
    r.filtered.fatal_events = ras.fatal_events();
    span.counts(ras.size(), r.filtered.fatal_events.size());
  }
  const std::size_t fatal_count = cols.size();
  const auto& all_jobs = jobs.jobs();
  // Members of every group in flight, over the fatal-record indices; the
  // merge reads it once both phases are done.
  MemberChain chain(fatal_count);
  const bool causality = config.filters.enable_causality;

  // Job terminations in end-time order (ties by index; per-group match sets
  // are index-sorted downstream, so the tie rule cannot change results).
  // The order is likewise prebuilt at ingest.
  const std::vector<std::size_t>& by_end = jobs.by_end_time();

  // ---- Phase 1: temporal -> spatial coalescing, pair mining tapped off the
  // spatial output, groups buffered for phase 2 (one pass over the log).
  // Min-support is global, so the mined pairs are accepted once the whole
  // log has passed. ----
  GroupBuffer buffer;
  std::size_t temporal_out = 0, spatial_out = 0, peak_phase1 = 0;
  {
    obs::Span span(obs, "filter.coalesce");
    StreamingFilter::Options opt;
    opt.temporal = config.filters.temporal;
    opt.spatial = config.filters.spatial;
    opt.causality = config.filters.causality;
    opt.mine_pairs = causality;
    StreamingFilter filter(opt, chain, buffer);
    for (std::size_t i = 0; i < fatal_count; ++i) {
      filter.on_fatal(cols.event_time[i], cols.errcode[i], cols.loc_key[i], i);
    }
    filter.flush();
    temporal_out = filter.temporal().out_count();
    spatial_out = filter.spatial().out_count();
    peak_phase1 = filter.peak_buffered();
    span.counts(fatal_count, spatial_out);
    span.end();
    if (causality) {
      obs::Span mine(obs, "mine.merge");
      const PairMiner::Counts& counts = filter.miner()->counts();
      r.filtered.causal_pairs =
          PairMiner::accept(counts, config.filters.causality.min_support);
      mine.counts(counts.size(), r.filtered.causal_pairs.size());
    }
  }

  // ---- Phase 2: [causality ->] windowed matcher, merge-walking buffered
  // groups against job terminations in end-time order. A termination is
  // delivered only when some spatial group's rep lies within +/-window of
  // it: every final group's rep is a spatial rep, so no other termination
  // can match, and withholding one only delays watermarks — when a group
  // is emitted, never which jobs it matches. ----
  const Usec window = config.match_window;
  std::vector<StreamGroup> final_groups;
  std::size_t peak_phase2 = 0;
  {
    obs::Span span(obs, "filter.match");
    StreamingMatcher matcher(window,
                             [&](StreamingMatcher::GroupMatch&& m) {
                               final_groups.push_back(m.group);
                               r.matches.jobs_by_group.push_back(std::move(m.jobs));
                             },
                             chain, cols.loc_key, jobs.machine().codec());
    std::optional<CausalityCoalescer> caus;
    GroupSink* stage_sink = &matcher;
    if (causality) {
      caus.emplace(config.filters.causality.window, r.filtered.causal_pairs, chain, &matcher);
      stage_sink = &*caus;
    }
    const std::span<const StreamGroup> groups(buffer.groups);
    std::size_t gi = 0;  // next group to deliver
    std::size_t wi = 0;  // first group whose window does not end before the walk
    std::size_t delivered = 0;
    std::size_t k = 0;
    while (k < by_end.size()) {
      const std::size_t job_index = by_end[k];
      const TimePoint t = all_jobs[job_index].end_time;
      while (wi < groups.size() && groups[wi].rep_time + window < t) ++wi;
      if (wi == groups.size()) break;  // every later termination is out of reach
      const TimePoint lo = groups[wi].rep_time - window;
      if (t < lo) {
        // Jump to the first termination inside that group's window.
        const auto first = by_end.begin() + static_cast<std::ptrdiff_t>(k);
        k += static_cast<std::size_t>(
            std::partition_point(first, by_end.end(),
                                 [&](std::size_t j) { return all_jobs[j].end_time < lo; }) -
            first);
        continue;
      }
      while (gi < groups.size() && groups[gi].rep_time <= t) {
        stage_sink->on_group(StreamGroup(groups[gi]));
        ++gi;
      }
      // Every group at or before this termination has been delivered, so
      // the matcher may evict job ends that fell out of all match windows.
      stage_sink->on_watermark(t);
      matcher.on_job_end(all_jobs[job_index], job_index);
      ++delivered;
      ++k;
    }
    for (; gi < groups.size(); ++gi) stage_sink->on_group(StreamGroup(groups[gi]));
    stage_sink->flush();  // cascades into the matcher
    peak_phase2 = matcher.peak_buffered() + (caus ? caus->peak_chains() : 0);
    span.counts(groups.size(), final_groups.size());
    CORAL_OBS_COUNT(obs, "stream.terminations_walked", by_end.size());
    CORAL_OBS_COUNT(obs, "stream.terminations_delivered", delivered);
  }
  buffer.groups.clear();
  buffer.groups.shrink_to_fit();

  obs::Span merge_span(obs, "merge");
  const std::size_t groups_total = final_groups.size();
  r.filtered.stages.push_back({"raw FATAL records", fatal_count, fatal_count});
  r.filtered.stages.push_back({"temporal", fatal_count, temporal_out});
  r.filtered.stages.push_back({"spatial", temporal_out, spatial_out});
  if (causality) {
    r.filtered.stages.push_back({"causality", spatial_out, groups_total});
  }

  r.filtered.groups.reserve(groups_total);
  for (const StreamGroup& g : final_groups) {
    r.filtered.groups.push_back(chain.to_event_group(g));
  }

  // Global job assignment: a job belongs to its *first* matching group in
  // group order, decided here because the matcher hands a job to every
  // group whose window holds its termination.
  r.matches.group_by_job.assign(all_jobs.size(), -1);
  for (std::size_t g = 0; g < r.matches.jobs_by_group.size(); ++g) {
    for (std::size_t job_idx : r.matches.jobs_by_group[g]) {
      if (r.matches.group_by_job[job_idx] < 0) {
        r.matches.group_by_job[job_idx] = static_cast<std::int32_t>(g);
        r.matches.interruptions.push_back({g, job_idx, all_jobs[job_idx].end_time});
      }
    }
  }
  std::sort(r.matches.interruptions.begin(), r.matches.interruptions.end(),
            [](const core::Interruption& a, const core::Interruption& b) {
              return a.time < b.time;
            });

  r.peak_stage_state = std::max(peak_phase1, peak_phase2);
  merge_span.counts(groups_total, r.matches.interruptions.size());
  CORAL_OBS_VALUE(obs, "stream.peak_state", static_cast<double>(r.peak_stage_state));
  return r;
}

}  // namespace coral::stream
