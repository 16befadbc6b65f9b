#pragma once

#include <map>
#include <set>

#include "coral/core/characterization.hpp"
#include "coral/core/identification.hpp"

namespace coral::core {

/// Cause assigned to an ERRCODE by the §IV-B rules.
enum class Cause : std::uint8_t { SystemFailure, ApplicationError };

/// Which rule produced the verdict (for explainability and tests).
enum class CauseRule : std::uint8_t {
  NeverWithJob,        ///< rule 1: events only on idle hardware → system
  RepeatSameLocation,  ///< rule 2: consecutive jobs killed at one location → system
  FollowsResubmission, ///< rule 3: error follows the exec file, not the nodes → application
  CorrelationFallback, ///< rule 4: Pearson correlation with labeled codes
};

const char* to_string(Cause c);
const char* to_string(CauseRule r);

struct ClassificationConfig {
  /// Two interruptions by the same code on overlapping partitions within
  /// this horizon count as "the scheduler reassigned the failed nodes".
  Usec same_location_horizon = 7 * kUsecPerDay;
  /// Bucket width for the Pearson-correlation fallback.
  Usec correlation_window = 6 * kUsecPerHour;
  /// Independent follows-the-executable observations required before a code
  /// is labeled an application error (guards against coincidences).
  int min_follow_evidence = 2;
  /// The re-interruption of the executable must happen within this gap of
  /// the original interruption to count as the Fig.-2 resubmission pattern
  /// (two kills of a popular binary months apart are coincidence).
  Usec follow_gap = 3 * kUsecPerDay;
};

struct CodeCause {
  Cause cause = Cause::SystemFailure;
  CauseRule rule = CauseRule::NeverWithJob;
  double correlation = 0;  ///< only for CorrelationFallback
};

/// Classification output (§IV-B; Observation 2).
struct ClassificationResult {
  std::map<ras::ErrcodeId, CodeCause> by_code;

  int system_type_count() const;
  int application_type_count() const;
  /// Fraction of fatal events attributed to application errors (paper:
  /// 17.73%).
  double application_event_fraction = 0;

  Cause cause_of(ras::ErrcodeId code) const { return by_code.at(code).cause; }
};

/// Distinguish system failures from application errors. The rules run
/// over CharColumns and JobLog::columns() (per-code CSR interruption
/// buckets, a binary search into the start-ordered jobs for rule 3(b)),
/// one code at a time in ascending order. `pool` is ignored; it stays
/// because the e2e benchmark package compiles against it.
ClassificationResult classify_causes(const filter::FilterPipelineResult& filtered,
                                     const MatchResult& matches,
                                     const IdentificationResult& identification,
                                     const joblog::JobLog& jobs,
                                     const CharColumns& cols,
                                     const ClassificationConfig& config = {},
                                     par::ThreadPool* pool = nullptr);

}  // namespace coral::core
