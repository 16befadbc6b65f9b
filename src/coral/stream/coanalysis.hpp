#pragma once

#include <cstddef>

#include "coral/context.hpp"
#include "coral/core/matching.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/log.hpp"

namespace coral::stream {

/// Configuration of the streaming front-end (filtering + matching).
struct FrontEndConfig {
  filter::FilterPipelineConfig filters;
  Usec match_window = 120 * kUsecPerSec;
  /// Ignored: the front end is one serial pass. Kept because the e2e
  /// benchmark package compiles against it.
  int shards = 1;
};

/// The streaming front-end's output, assembled into the whole-log
/// representations the characterization stages (complete_coanalysis) read.
struct FrontEndResult {
  filter::FilterPipelineResult filtered;
  core::MatchResult matches;
  /// Always 1. Kept because the e2e benchmark package compiles against it.
  std::size_t shards_used = 1;
  /// Largest simultaneously buffered stage state (chains + pending groups +
  /// buffered job ends) — bounded by the windows, not the log.
  std::size_t peak_stage_state = 0;
};

/// Run the filtering + matching methodology as streaming stages with
/// bounded windowed state, in one serial pass per phase (see DESIGN.md
/// "Streaming architecture"). The tests pin it byte-identical to a frozen
/// whole-log reference of the paper's filter passes and matcher.
///
/// Two phases when causality filtering is enabled, because causal-pair
/// support is a *global* min-support threshold: phase 1 streams FATAL
/// records through temporal -> spatial coalescing with a windowed pair
/// miner tapping the output, and accepts the pairs once the whole log has
/// passed; phase 2 streams the buffered spatial groups through causality
/// coalescing into the windowed matcher, merge-walked against job
/// terminations in end-time order.
///
/// The context's collector receives one span per stage with the stage's
/// record counts; it does not change results. The context's pool is
/// ignored.
FrontEndResult run_streaming_frontend(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                      const FrontEndConfig& config,
                                      const Context& ctx = {});

}  // namespace coral::stream
