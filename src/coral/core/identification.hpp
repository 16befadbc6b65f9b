#pragma once

#include <map>

#include "coral/core/matching.hpp"
#include "coral/filter/pipeline.hpp"
#include "coral/joblog/log.hpp"

namespace coral::core {

/// The three cases of §IV-A for one fatal event.
enum class EventCase : std::uint8_t {
  InterruptsJob,    ///< case 1: one or more jobs terminated with the event
  NoJobAtLocation,  ///< case 2: the location was idle
  JobSurvives,      ///< case 3: a job ran atop and kept running
};

/// Per-ERRCODE verdict of the identification rules.
enum class ErrcodeVerdict : std::uint8_t {
  InterruptionRelated,  ///< truly interrupts user jobs
  NonFatalToJobs,       ///< FATAL severity but jobs survive
  Undetermined,         ///< never observed with a job atop (or conflicting)
};

const char* to_string(EventCase c);
const char* to_string(ErrcodeVerdict v);

struct IdentificationConfig {
  /// Case-noise tolerance: a code still counts as interruption-related
  /// (resp. non-fatal) when the conflicting case is at most this fraction
  /// of the case-1 + case-3 observations. The paper applies the rule
  /// strictly on hand-checked data; a real pipeline needs slack for
  /// coincidental matches.
  double noise_tolerance = 0.2;
};

/// Identification output: the per-event case census and per-errcode
/// verdicts (§IV-A; Observation 1).
struct IdentificationResult {
  std::vector<EventCase> event_cases;  ///< per filtered group
  std::map<ras::ErrcodeId, ErrcodeVerdict> verdicts;

  int count(ErrcodeVerdict v) const;
  /// Fraction of fatal events whose code is NonFatalToJobs (Obs. 1:
  /// 20.84%).
  double nonfatal_event_fraction = 0;
  /// Fraction of events with no job at the location (§VI-B: 45.45%).
  double idle_event_fraction = 0;
};

/// Apply the three-case rules to the filtered events and the matching.
IdentificationResult identify_interruption_related(
    const filter::FilterPipelineResult& filtered, const MatchResult& matches,
    const joblog::JobLog& jobs, const IdentificationConfig& config = {});

}  // namespace coral::core
