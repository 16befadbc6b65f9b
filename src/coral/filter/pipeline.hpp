#pragma once

#include <string>

#include "coral/filter/causality.hpp"
#include "coral/filter/groups.hpp"
#include "coral/filter/spatial.hpp"
#include "coral/filter/temporal.hpp"

namespace coral::filter {

/// Per-stage bookkeeping for the filtering pipeline of Fig. 1.
struct StageStats {
  std::string name;
  std::size_t input = 0;
  std::size_t output = 0;
  double compression() const { return compression_ratio(input, output); }
};

/// Output of the RAS-only filtering stages (temporal → spatial →
/// causality), applied to the FATAL records of a log. The job-related
/// filter (§IV-C) is applied later by the co-analysis core because it needs
/// the job log.
struct FilterPipelineResult {
  std::vector<ras::RasEvent> fatal_events;  ///< time-sorted FATAL records
  std::vector<EventGroup> groups;           ///< indices into fatal_events
  std::vector<CausalPair> causal_pairs;     ///< mined by the causality stage
  std::vector<StageStats> stages;

  /// Overall records→groups compression (paper: 33,370 → 549 = 98.35%).
  double total_compression() const {
    return compression_ratio(fatal_events.size(), groups.size());
  }
};

/// Knobs of the temporal-spatial + causality filtering; the streaming front
/// end (stream/coanalysis.hpp) runs the stages.
struct FilterPipelineConfig {
  TemporalFilterConfig temporal;
  SpatialFilterConfig spatial;
  CausalityFilterConfig causality;
  bool enable_causality = true;
};

}  // namespace coral::filter
