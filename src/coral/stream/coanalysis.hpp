#pragma once

#include <cstddef>

#include "coral/context.hpp"
#include "coral/core/matching.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/log.hpp"
#include "coral/stream/shard.hpp"

namespace coral::stream {

/// Configuration of the streaming front-end (filtering + matching).
struct FrontEndConfig {
  filter::FilterPipelineConfig filters;
  Usec match_window = 120 * kUsecPerSec;
  /// Target shard count for time-axis parallelism. Shards are cut only at
  /// quiesce gaps (see shard.hpp), so results are exact for any value; 1
  /// disables sharding. Shards run concurrently on the context's pool.
  int shards = 1;
};

/// The streaming front-end's output, assembled into the whole-log
/// representations the characterization stages (complete_coanalysis) read.
struct FrontEndResult {
  filter::FilterPipelineResult filtered;
  core::MatchResult matches;
  std::size_t shards_used = 1;
  /// Largest simultaneously buffered stage state (chains + pending groups +
  /// buffered job ends) across shards — bounded by the windows, not the log.
  std::size_t peak_stage_state = 0;
};

/// Run the filtering + matching methodology as streaming stages with
/// bounded windowed state, optionally sharded over the time axis on `pool`,
/// and merge deterministically: the result is the same for any shard count
/// and pool (see DESIGN.md "Streaming architecture" for the argument). The
/// tests pin it byte-identical to a frozen whole-log reference of the
/// paper's filter passes and matcher.
///
/// Two phases when causality filtering is enabled, because causal-pair
/// support is a *global* min-support threshold: phase 1 streams FATAL
/// records through temporal -> spatial coalescing with a windowed pair
/// miner tapping the output (per-shard counts merge exactly — no
/// co-occurrence spans a quiesce cut); phase 2 streams the buffered
/// spatial groups through causality coalescing into the windowed matcher,
/// merge-walked against job terminations in end-time order.
///
/// The context's pool (if any) runs shards concurrently; its collector
/// receives one span per stage, or per shard of a sharded stage, with the
/// stage's record counts. Neither changes results.
FrontEndResult run_streaming_frontend(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                      const FrontEndConfig& config,
                                      const Context& ctx = {});

}  // namespace coral::stream
