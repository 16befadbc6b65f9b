// Live consumption of the RAS/job event stream (the CiFTS-style feed of
// SS VII) through the streaming stages: mine causal pairs in a warm-up
// window, then run the windowed filter -> causality -> matcher pipeline
// incrementally, alerting on each job interruption as soon as its match
// window closes — with state bounded by the windows, not the log.
//
// The stages take the columnar inputs the front end
// (stream::run_streaming_frontend) feeds them: FATAL records from
// ras::FatalColumns into StreamingFilter::on_fatal, and job terminations in
// JobLog::by_end_time() order into StreamingMatcher::on_job_end.
//
//   $ ./example_streaming_consumer [seed] [days] [warmup_days]
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <vector>

#include "coral/ras/catalog.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/stream/matcher.hpp"
#include "coral/synth/intrepid.hpp"

int main(int argc, char** argv) {
  using namespace coral;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const int days = argc > 2 ? std::atoi(argv[2]) : 30;
  const int warmup_days = argc > 3 ? std::atoi(argv[3]) : days / 3;

  const synth::ScenarioConfig scenario = synth::small_scenario(seed, days);
  const synth::SynthResult data = synth::generate(scenario);
  std::printf("Generated %d days: %zu RAS records, %zu jobs\n", days, data.ras.size(),
              data.jobs.size());

  // Group members are linked through the FATAL-record rows of the columns;
  // one chain per pass over the records.
  const ras::FatalColumns& fatal = data.ras.fatal_columns();
  const std::vector<std::size_t>& by_end = data.jobs.by_end_time();

  // --- Warm-up: mine causal errcode pairs over the first warmup_days. ---
  const TimePoint warmup_end = scenario.start + warmup_days * kUsecPerDay;
  stream::MemberChain warmup_members(fatal.size());
  stream::GroupBuffer warmup_groups;
  stream::StreamingFilter::Options mine_options;
  mine_options.mine_pairs = true;
  stream::StreamingFilter mining_filter(mine_options, warmup_members, warmup_groups);
  for (std::size_t i = 0; i < fatal.size() && fatal.event_time[i] < warmup_end; ++i) {
    mining_filter.on_fatal(fatal.event_time[i], fatal.errcode[i], fatal.loc_key[i], i);
  }
  mining_filter.flush();

  const filter::CausalityFilterConfig causality;
  const auto pairs =
      stream::PairMiner::accept(mining_filter.miner()->counts(), causality.min_support);
  std::printf("Warm-up (%d days): %zu groups seen, %zu causal pairs mined\n\n",
              warmup_days, warmup_groups.groups.size(), pairs.size());

  // --- Live pipeline: filter, then causality merging with the mined pairs
  // into the matcher (phase 2 of the front end); every resolved group with
  // matched jobs becomes an alert. ---
  std::size_t alerts = 0, quiet_groups = 0;
  stream::MemberChain members(fatal.size());
  stream::StreamingMatcher matcher(
      120 * kUsecPerSec, [&](stream::StreamingMatcher::GroupMatch&& m) {
        if (m.jobs.empty()) {
          ++quiet_groups;  // fatal event, but it interrupted nothing
          return;
        }
        ++alerts;
        if (alerts <= 10) {
          std::printf("ALERT %s  %-28s %-10s killed %zu job(s):",
                      m.group.rep_time.to_ras_string().c_str(),
                      ras::Catalog::instance().info(m.group.errcode).name.c_str(),
                      data.ras.machine().location_from_packed(m.group.rep_key).to_string().c_str(),
                      m.jobs.size());
          for (const std::size_t j : m.jobs) {
            std::printf(" %lld", static_cast<long long>(data.jobs[j].job_id));
          }
          std::printf("\n");
        }
      },
      members, fatal.loc_key, data.jobs.machine().codec());
  stream::CausalityCoalescer live_causality(causality.window, pairs, members, &matcher);
  stream::StreamingFilter live_filter({}, members, live_causality);

  // Deliver the stream one day at a time, as a daemon tailing the logs
  // would: each day's FATAL records and job terminations merged in time
  // order, a record before a termination at the same time. One final
  // catch-up window collects stragglers, then flush.
  std::size_t next_fatal = 0, next_end = 0;
  const auto deliver_until = [&](TimePoint until) {
    for (;;) {
      const bool fatal_due = next_fatal < fatal.size() && fatal.event_time[next_fatal] < until;
      const joblog::JobRecord* job =
          next_end < by_end.size() ? &data.jobs[by_end[next_end]] : nullptr;
      const bool end_due = job != nullptr && job->end_time < until;
      if (fatal_due && (!end_due || fatal.event_time[next_fatal] <= job->end_time)) {
        live_filter.on_fatal(fatal.event_time[next_fatal], fatal.errcode[next_fatal],
                             fatal.loc_key[next_fatal], next_fatal);
        ++next_fatal;
      } else if (end_due) {
        matcher.on_job_end(*job, by_end[next_end]);
        ++next_end;
      } else {
        return;
      }
    }
  };
  for (int day = 1; day <= days; ++day) deliver_until(scenario.start + day * kUsecPerDay);
  deliver_until(TimePoint(std::numeric_limits<Usec>::max()));
  live_filter.flush();

  if (alerts > 10) std::printf("... and %zu more alerts\n", alerts - 10);
  std::printf("\n%zu interruption alerts, %zu quiet fatal groups\n", alerts,
              quiet_groups);
  std::printf("live causality stage: %zu of %zu spatial groups merged into a causal "
              "partner\n",
              live_filter.spatial().out_count() - live_causality.out_count(),
              live_filter.spatial().out_count());
  std::printf("peak buffered state: filter %zu groups, matcher %zu entries "
              "(vs %zu raw records)\n",
              live_filter.peak_buffered() + live_causality.peak_chains(),
              matcher.peak_buffered(), data.ras.size());
  return 0;
}
