#pragma once

#include "coral/core/classification.hpp"

namespace coral::core {

/// Job-related filtering (§IV-C) — the paper's novel third preprocessing
/// step. Temporal-spatial filtering cannot remove redundancy caused by the
/// scheduler reallocating failed nodes or by users resubmitting buggy
/// codes, because the gap between re-reports is set by job arrival, not by
/// a fixed threshold.
struct JobFilterConfig {
  /// Redundancy chains are only followed within this horizon (a repeat of
  /// the same code at the same location months later is a new fault).
  Usec horizon = 14 * kUsecPerDay;
};

struct JobFilterResult {
  /// Groups that survive job-related filtering (indices into the original
  /// group vector of the filter pipeline).
  std::vector<std::size_t> kept;
  /// For each removed group: the earlier group it is redundant to.
  std::map<std::size_t, std::size_t> redundant_to;

  std::size_t removed_count() const { return redundant_to.size(); }
};

/// Identify job-related redundant event groups:
///   - system failures: a later interruption by the same code on the same
///     nodes with *no successfully completed job* on those nodes in between
///     is the same fault re-reported (transitively);
///   - application errors: a later interruption of the *same executable* by
///     the same code is the same bug re-reported.
/// The per-code chains run serially, in ascending code order. `pool` is
/// ignored; it stays because the e2e benchmark package compiles against it.
JobFilterResult job_related_filter(const filter::FilterPipelineResult& filtered,
                                   const MatchResult& matches,
                                   const ClassificationResult& classification,
                                   const joblog::JobLog& jobs,
                                   const CharColumns& cols,
                                   const JobFilterConfig& config = {},
                                   par::ThreadPool* pool = nullptr);

}  // namespace coral::core
