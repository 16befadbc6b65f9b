// Baseline comparison: the constant-threshold temporal filter of [12]/[9]
// (this repo's default) against the adaptive per-errcode filter in the
// spirit of Liang et al. [4], scored against generator ground truth.
#include <cstdio>
#include <set>

#include "coral/filter/adaptive.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/stream/filter_stages.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

/// A temporal stage's output as stream groups (rep first, members after),
/// their members linked in `members`.
std::vector<stream::StreamGroup> to_stream(const std::vector<filter::EventGroup>& groups,
                                           std::span<const ras::RasEvent> events,
                                           stream::MemberChain& members) {
  const auto single = [&events](std::size_t i) {
    return stream::StreamGroup::single(i, events[i].event_time, events[i].errcode,
                                       events[i].location.packed());
  };
  std::vector<stream::StreamGroup> out;
  for (const filter::EventGroup& g : groups) {
    stream::StreamGroup sg = single(g.rep);
    for (std::size_t k = 1; k < g.members.size(); ++k) members.absorb(sg, single(g.members[k]));
    out.push_back(sg);
  }
  return out;
}

std::size_t pipeline_after(std::vector<stream::StreamGroup> groups,
                           stream::MemberChain& members) {
  // Finish with the standard spatial + causality stages so the comparison
  // isolates the temporal stage: spatial coalescing with the pair miner
  // tapping its output, then causality coalescing on the mined pairs.
  const filter::FilterPipelineConfig config;
  stream::GroupBuffer spatial_out;
  stream::PairMiner miner(config.causality.window, &spatial_out);
  stream::SpatialCoalescer spatial(config.spatial.threshold, members, &miner);
  for (stream::StreamGroup& g : groups) spatial.on_group(std::move(g));
  spatial.flush();
  const auto pairs = stream::PairMiner::accept(miner.counts(), config.causality.min_support);

  stream::GroupBuffer out;
  stream::CausalityCoalescer causality(config.causality.window, pairs, members, &out);
  for (stream::StreamGroup& g : spatial_out.groups) causality.on_group(std::move(g));
  causality.flush();
  return out.groups.size();
}

}  // namespace

int main() {
  const synth::SynthResult data = synth::generate(synth::intrepid_scenario(42));
  const auto events = data.ras.fatal_events();
  std::size_t truth = 0;
  for (const auto& f : data.truth.faults) truth += f.redundant_of < 0 ? 1 : 0;
  std::printf("%zu raw FATAL records; %zu independent ground-truth faults\n\n",
              events.size(), truth);

  std::printf("%-28s %10s %14s\n", "temporal stage", "after-temp", "after-pipeline");
  for (const Usec t : {60L * kUsecPerSec, 300L * kUsecPerSec, 1800L * kUsecPerSec}) {
    stream::MemberChain members(events.size());
    stream::GroupBuffer groups;
    stream::TemporalCoalescer temporal(t, members, &groups);
    for (stream::StreamGroup& g :
         to_stream(filter::singleton_groups(events.size()), events, members)) {
      temporal.on_group(std::move(g));
    }
    temporal.flush();
    const std::size_t after_temporal = groups.groups.size();
    const std::size_t final_count = pipeline_after(std::move(groups.groups), members);
    std::printf("constant %-19lld %10zu %14zu\n",
                static_cast<long long>(t / kUsecPerSec), after_temporal, final_count);
  }

  const auto thresholds = filter::learn_adaptive_thresholds(events, {});
  auto groups = filter::adaptive_temporal_filter(
      events, filter::singleton_groups(events.size()), thresholds);
  const std::size_t after_temporal = groups.size();
  stream::MemberChain members(events.size());
  const std::size_t final_count = pipeline_after(to_stream(groups, events, members), members);
  std::printf("%-28s %10zu %14zu\n", "adaptive (per-errcode knee)", after_temporal,
              final_count);

  std::printf("\nLearned thresholds for %zu of %zu fatal errcodes (others fall back "
              "to 300 s):\n",
              thresholds.by_code.size(), ras::Catalog::instance().fatal_ids().size());
  int shown = 0;
  for (const auto& [code, t] : thresholds.by_code) {
    if (++shown > 10) break;
    std::printf("  %-34s %6lld s\n", ras::Catalog::instance().info(code).name.c_str(),
                static_cast<long long>(t / kUsecPerSec));
  }
  std::printf("\nReading: the adaptive filter lands near the constant-300 s result\n"
              "without hand-picking the constant — the paper's justification for\n"
              "using the simpler filter plus job-related post-processing.\n");
  return 0;
}
