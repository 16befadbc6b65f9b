#include "coral/stream/coanalysis.hpp"

#include <algorithm>
#include <optional>
#include <span>

#include "coral/common/parallel.hpp"
#include "coral/obs/obs.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/stream/matcher.hpp"

namespace coral::stream {

namespace {

/// Everything one shard produces; slots are disjoint across workers.
struct ShardOutput {
  // Phase 1.
  std::vector<StreamGroup> spatial_groups;  ///< buffered for phase 2
  PairMiner::Counts counts;
  std::size_t temporal_out = 0;
  std::size_t spatial_out = 0;
  std::size_t peak_phase1 = 0;
  // Phase 2.
  std::vector<StreamGroup> final_groups;
  std::vector<std::vector<std::size_t>> matched_jobs;
  std::size_t peak_phase2 = 0;
};

}  // namespace

FrontEndResult run_streaming_frontend(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                      const FrontEndConfig& config, const Context& ctx) {
  InstrumentationSink* sink = ctx.sink();
  FrontEndResult r;
  // The SoA view drives the hot loops; fatal_events is only the materialised
  // copy downstream reports expect, gathered through the severity index
  // maintained at ingest (RasLog::finalize) instead of re-scanning the log.
  const ras::FatalColumns& cols = ras.fatal_columns();
  {
    StageTimer timer(sink, "ingest");
    r.filtered.fatal_events = ras.fatal_events();
    timer.counts(ras.size(), r.filtered.fatal_events.size());
  }
  const std::size_t fatal_count = cols.size();
  const auto& all_jobs = jobs.jobs();
  // Members of every group in flight, over the fatal-record indices. Each
  // shard's groups link only that shard's index range, so the shards share
  // one chain without synchronisation; the merge reads it after they join.
  MemberChain chain(fatal_count);
  const bool causality = config.filters.enable_causality;

  // Job terminations in end-time order (ties by index; per-group match sets
  // are index-sorted downstream, so the tie rule cannot change results).
  // The order is likewise prebuilt at ingest.
  const std::vector<std::size_t>& by_end = jobs.by_end_time();

  // Shard plan: cuts only at quiesce gaps, so shard concatenation is exact.
  // The planner reads the event-time column in place — no gather copy.
  ShardPlan plan;
  if (config.shards > 1 && fatal_count >= 2) {
    const Usec quiesce =
        quiesce_gap(config.filters.temporal.threshold, config.filters.spatial.threshold,
                    causality ? config.filters.causality.window : 0, config.match_window);
    plan = plan_shards(cols.event_time, config.shards, quiesce);
  }
  const std::size_t nshards = plan.shard_count();
  r.shards_used = nshards;

  // Per-shard half-open index ranges over the fatal records and the
  // end-ordered job list.
  std::vector<std::size_t> fatal_begin(nshards + 1, 0);
  std::vector<std::size_t> ends_begin(nshards + 1, 0);
  fatal_begin[nshards] = fatal_count;
  ends_begin[nshards] = by_end.size();
  for (std::size_t s = 1; s < nshards; ++s) {
    const TimePoint cut = plan.cuts[s - 1];
    fatal_begin[s] = static_cast<std::size_t>(
        std::partition_point(cols.event_time.begin(), cols.event_time.end(),
                             [cut](TimePoint t) { return t < cut; }) -
        cols.event_time.begin());
    ends_begin[s] = static_cast<std::size_t>(
        std::partition_point(by_end.begin(), by_end.end(),
                             [&all_jobs, cut](std::size_t j) {
                               return all_jobs[j].end_time < cut;
                             }) -
        by_end.begin());
  }

  std::vector<ShardOutput> shard(nshards);
  par::ThreadPool* pool = ctx.pool();
  const auto run_sharded = [&](auto&& body) {
    if (nshards > 1 && pool != nullptr && pool->thread_count() > 1) {
      par::parallel_for_chunks(nshards, 1, body, pool);
    } else {
      body(std::size_t{0}, nshards);
    }
  };

  // ---- Phase 1: temporal -> spatial coalescing, pair mining tapped off the
  // spatial output, groups buffered for phase 2 (one pass over the log). ----
  obs::Collector* obs = ctx.obs();

  StageTimer phase1_timer(sink, "filter.coalesce");
  run_sharded([&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      // One span per shard, reported from the worker that ran it, so a
      // Chrome trace shows the shard schedule across pool threads.
      obs::Span span(obs, "stream.shard.phase1");
      GroupBuffer buffer;
      StreamingFilter::Options opt;
      opt.temporal = config.filters.temporal;
      opt.spatial = config.filters.spatial;
      opt.causality = config.filters.causality;
      opt.mine_pairs = causality;
      StreamingFilter filter(std::move(opt), chain, buffer);
      for (std::size_t i = fatal_begin[s]; i < fatal_begin[s + 1]; ++i) {
        filter.on_fatal(cols.event_time[i], cols.errcode[i], cols.loc_key[i], i);
      }
      filter.flush();
      ShardOutput& out = shard[s];
      out.spatial_groups = std::move(buffer.groups);
      if (filter.miner() != nullptr) out.counts = filter.miner()->take_counts();
      out.temporal_out = filter.temporal().out_count();
      out.spatial_out = filter.spatial().out_count();
      out.peak_phase1 = filter.peak_buffered();
      span.counts(fatal_begin[s + 1] - fatal_begin[s], out.spatial_out);
      CORAL_OBS_VALUE(obs, "stream.shard.peak_state",
                      static_cast<double>(out.peak_phase1));
    }
  });

  {
    std::size_t spatial_out = 0;
    for (const ShardOutput& s : shard) spatial_out += s.spatial_out;
    phase1_timer.counts(fatal_count, spatial_out);
    phase1_timer.report();
  }

  // ---- Merge mined counts; min-support is global, so acceptance must run
  // on the merged table (no co-occurrence spans a quiesce cut). ----
  if (causality) {
    StageTimer timer(sink, "mine.merge");
    PairMiner::Counts total;
    for (ShardOutput& s : shard) {
      PairMiner::merge_counts(total, s.counts);
      s.counts.clear();
    }
    r.filtered.causal_pairs = PairMiner::accept(total, config.filters.causality.min_support);
    timer.counts(total.size(), r.filtered.causal_pairs.size());
  }

  // ---- Phase 2: [causality ->] windowed matcher, merge-walking buffered
  // groups against job terminations in end-time order. A termination is
  // delivered only when some spatial group's rep lies within +/-window of
  // it: every final group's rep is a spatial rep, so no other termination
  // can match, and withholding one only delays watermarks — when a group
  // is emitted, never which jobs it matches. ----
  const Usec window = config.match_window;
  StageTimer phase2_timer(sink, "filter.match");
  run_sharded([&](std::size_t begin, std::size_t end) {
    for (std::size_t s = begin; s < end; ++s) {
      obs::Span span(obs, "stream.shard.phase2");
      ShardOutput& out = shard[s];
      StreamingMatcher matcher(window,
                               [&out](StreamingMatcher::GroupMatch&& m) {
                                 out.final_groups.push_back(m.group);
                                 out.matched_jobs.push_back(std::move(m.jobs));
                               },
                               chain, cols.loc_key, jobs.machine().codec());
      std::optional<CausalityCoalescer> caus;
      GroupSink* stage_sink = &matcher;
      if (causality) {
        caus.emplace(config.filters.causality.window, r.filtered.causal_pairs, chain,
                     &matcher);
        stage_sink = &*caus;
      }
      const std::span<const StreamGroup> groups(out.spatial_groups);
      std::size_t gi = 0;  // next group to deliver
      std::size_t wi = 0;  // first group whose window does not end before the walk
      std::size_t delivered = 0;
      std::size_t k = ends_begin[s];
      while (k < ends_begin[s + 1]) {
        const std::size_t job_index = by_end[k];
        const TimePoint t = all_jobs[job_index].end_time;
        while (wi < groups.size() && groups[wi].rep_time + window < t) ++wi;
        if (wi == groups.size()) break;  // every later termination is out of reach
        const TimePoint lo = groups[wi].rep_time - window;
        if (t < lo) {
          // Jump to the first termination inside that group's window.
          const auto first = by_end.begin() + static_cast<std::ptrdiff_t>(k);
          const auto last = by_end.begin() + static_cast<std::ptrdiff_t>(ends_begin[s + 1]);
          k += static_cast<std::size_t>(
              std::partition_point(first, last,
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
        matcher.on_job_end(t, all_jobs[job_index], job_index);
        ++delivered;
        ++k;
      }
      for (; gi < groups.size(); ++gi) stage_sink->on_group(StreamGroup(groups[gi]));
      stage_sink->flush();  // cascades into the matcher
      out.peak_phase2 = matcher.peak_buffered() + (caus ? caus->peak_chains() : 0);
      span.counts(out.spatial_groups.size(), out.final_groups.size());
      CORAL_OBS_VALUE(obs, "stream.shard.peak_state",
                      static_cast<double>(out.peak_phase2));
      CORAL_OBS_COUNT(obs, "stream.shard.terminations_walked",
                      ends_begin[s + 1] - ends_begin[s]);
      CORAL_OBS_COUNT(obs, "stream.shard.terminations_delivered", delivered);
      out.spatial_groups.clear();
      out.spatial_groups.shrink_to_fit();
    }
  });

  // ---- Deterministic merge: shard order equals time order, so plain
  // concatenation reproduces the unsharded group order. ----
  std::size_t temporal_total = 0, spatial_total = 0, groups_total = 0;
  for (const ShardOutput& s : shard) {
    temporal_total += s.temporal_out;
    spatial_total += s.spatial_out;
    groups_total += s.final_groups.size();
  }
  phase2_timer.counts(spatial_total, groups_total);
  phase2_timer.report();
  StageTimer merge_timer(sink, "merge");
  obs::Span merge_span(obs, "stream.merge");
  r.filtered.stages.push_back({"raw FATAL records", fatal_count, fatal_count});
  r.filtered.stages.push_back({"temporal", fatal_count, temporal_total});
  r.filtered.stages.push_back({"spatial", temporal_total, spatial_total});
  if (causality) {
    r.filtered.stages.push_back({"causality", spatial_total, groups_total});
  }

  r.filtered.groups.reserve(groups_total);
  r.matches.jobs_by_group.reserve(groups_total);
  for (ShardOutput& s : shard) {
    for (std::size_t i = 0; i < s.final_groups.size(); ++i) {
      r.filtered.groups.push_back(chain.to_event_group(s.final_groups[i]));
      r.matches.jobs_by_group.push_back(std::move(s.matched_jobs[i]));
    }
    s.final_groups.clear();
    s.matched_jobs.clear();
  }

  // Global job assignment: a job belongs to its *first* matching group in
  // global group order, decided at merge time so a job near a shard boundary
  // cannot be claimed twice.
  r.matches.group_by_job.assign(all_jobs.size(), std::nullopt);
  for (std::size_t g = 0; g < r.matches.jobs_by_group.size(); ++g) {
    for (std::size_t job_idx : r.matches.jobs_by_group[g]) {
      if (!r.matches.group_by_job[job_idx]) {
        r.matches.group_by_job[job_idx] = g;
        r.matches.interruptions.push_back({g, job_idx, all_jobs[job_idx].end_time});
      }
    }
  }
  std::sort(r.matches.interruptions.begin(), r.matches.interruptions.end(),
            [](const core::Interruption& a, const core::Interruption& b) {
              return a.time < b.time;
            });

  for (const ShardOutput& s : shard) {
    r.peak_stage_state = std::max({r.peak_stage_state, s.peak_phase1, s.peak_phase2});
  }
  merge_span.counts(groups_total, r.matches.interruptions.size());
  CORAL_OBS_VALUE(obs, "stream.peak_state", static_cast<double>(r.peak_stage_state));
  CORAL_OBS_COUNT(obs, "stream.shards_used", static_cast<std::int64_t>(nshards));
  merge_timer.counts(groups_total, r.matches.interruptions.size());
  return r;
}

}  // namespace coral::stream
