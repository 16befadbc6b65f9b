// Live consumption of the merged RAS/job event stream (the CiFTS-style feed
// of SS VII) through the streaming stages: mine causal pairs in a warm-up
// window, then run the windowed filter -> matcher pipeline incrementally,
// alerting on each job interruption as soon as its match window closes —
// with state bounded by the windows, not the log.
//
//   $ ./example_streaming_consumer [seed] [days] [warmup_days]
#include <cstdio>
#include <cstdlib>
#include <limits>

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

  // Group members are linked through the FATAL-record indices StageDriver
  // numbers records with; one chain per pass over the records.
  const ras::FatalColumns& fatal = data.ras.fatal_columns();

  // --- Warm-up: mine causal errcode pairs over the first warmup_days. ---
  stream::MemberChain warmup_members(fatal.size());
  stream::GroupBuffer warmup_groups;
  stream::StreamingFilter::Options mine_options;
  mine_options.mine_pairs = true;
  stream::StreamingFilter mining_filter(mine_options, warmup_members, warmup_groups);
  stream::StageDriver warmup(data.ras, data.jobs);
  warmup.attach(mining_filter);
  warmup.replay(scenario.start, scenario.start + warmup_days * kUsecPerDay);
  warmup.flush();

  const filter::CausalityFilterConfig causality;
  const auto pairs =
      stream::PairMiner::accept(mining_filter.miner()->counts(), causality.min_support);
  std::printf("Warm-up (%d days): %zu groups seen, %zu causal pairs mined\n\n",
              warmup_days, warmup_groups.groups.size(), pairs.size());

  // --- Live pipeline: filter (using the mined pairs) into the matcher;
  // every resolved group with matched jobs becomes an alert. ---
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
      members, fatal.loc_key);

  stream::StreamingFilter::Options live_options;
  live_options.pairs = pairs;
  stream::StreamingFilter live_filter(live_options, members, matcher);
  stream::StageDriver live(data.ras, data.jobs);
  live.attach(live_filter);
  live.attach(matcher);

  // Deliver the stream one day at a time, as a daemon tailing the logs
  // would; one final catch-up window collects stragglers, then flush.
  for (int day = 0; day < days; ++day) {
    live.replay(scenario.start + day * kUsecPerDay,
                scenario.start + (day + 1) * kUsecPerDay);
  }
  live.replay(scenario.start + days * kUsecPerDay,
              TimePoint(std::numeric_limits<Usec>::max()));
  live.flush();

  if (alerts > 10) std::printf("... and %zu more alerts\n", alerts - 10);
  std::printf("\n%zu interruption alerts, %zu quiet fatal groups\n", alerts,
              quiet_groups);
  std::printf("peak buffered state: filter %zu groups, matcher %zu entries "
              "(vs %zu raw records)\n",
              live_filter.peak_buffered(), matcher.peak_buffered(), data.ras.size());
  return 0;
}
