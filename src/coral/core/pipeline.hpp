#pragma once

#include <iosfwd>

#include "coral/common/ingest.hpp"
#include "coral/context.hpp"
#include "coral/core/interarrival.hpp"
#include "coral/core/propagation.hpp"
#include "coral/core/vulnerability.hpp"
#include "coral/ras/log.hpp"

namespace coral::core {

/// A log pair loaded through the hardened ingest layer, with the per-log
/// ingest-health ledgers. In strict mode the reports are trivially clean
/// (the load would have thrown otherwise); in lenient mode they say exactly
/// how many records were skipped and why.
struct IngestedLogs {
  ras::RasLog ras;
  joblog::JobLog jobs;
  IngestReport ras_report;
  IngestReport jobs_report;

  bool clean() const { return ras_report.clean() && jobs_report.clean(); }
};

/// Load a RAS CSV + job CSV pair under one parse mode, resolving errcodes
/// against the context's catalog and recording ingest spans plus
/// malformed-record counters in the context's collector.
IngestedLogs ingest_csv_logs(std::istream& ras_in, std::istream& jobs_in,
                             ParseMode mode = ParseMode::Strict,
                             const Context& ctx = {});

struct ExecutionConfig {
  /// Target time-axis shard count for the streaming front end (cut only at
  /// quiesce gaps, so any value is exact).
  int shards = 1;
};

/// Every knob of the co-analysis, in one place. The worker pool is not a
/// config knob: select it via coral::Context::with_pool (the deprecated
/// `pool` member was removed after its one-cycle grace period).
struct CoAnalysisConfig {
  filter::FilterPipelineConfig filters;
  MatchConfig matching;
  IdentificationConfig identification;
  ClassificationConfig classification;
  JobFilterConfig job_filter;
  PropagationConfig propagation;
  VulnerabilityConfig vulnerability;
  ExecutionConfig execution;
};

/// Complete output of the paper's methodology (Fig. 1) over one log pair.
struct CoAnalysisResult {
  filter::FilterPipelineResult filtered;     ///< temporal+spatial+causality
  MatchResult matches;                       ///< RAS ↔ job interruptions
  IdentificationResult identification;       ///< §IV-A
  ClassificationResult classification;       ///< §IV-B
  JobFilterResult job_filter;                ///< §IV-C
  PropagationResult propagation;             ///< §VI-C
  VulnerabilityResult vulnerability;         ///< §VI-D

  // Interarrival fits (Fig. 3 / Table IV): fatal events before and after
  // job-related filtering.
  InterarrivalFit fatal_before_jobfilter;
  InterarrivalFit fatal_after_jobfilter;
  // Interruption interarrival fits by cause (Fig. 6 / Table V).
  InterarrivalFit interruptions_system;
  InterarrivalFit interruptions_application;

  // Fig. 5: interruptions per day (index = day since log start).
  std::vector<int> interruptions_per_day;
  // Fig. 4 inputs, per midplane (vectors sized machine().midplane_count()):
  // fatal-event count, total workload (midplane-seconds of jobs), and
  // wide-job workload (>= the machine's wide threshold; 32 on BG/P).
  std::vector<double> fatal_events_per_midplane;
  std::vector<double> workload_per_midplane;
  std::vector<double> wide_workload_per_midplane;

  /// The machine the analyzed logs belong to (taken from the job log).
  const machine::MachineModel& machine() const { return *machine_; }
  const machine::MachineModel* machine_ = &machine::bgp_model();

  // Convenience census.
  std::size_t interruption_count() const { return matches.interruptions.size(); }
  std::size_t system_interruptions = 0;
  std::size_t application_interruptions = 0;
  std::size_t distinct_interrupted_jobs = 0;  ///< distinct executables

  // Execution trace of the front end that produced `filtered`/`matches`.
  std::size_t shards_used = 1;
  /// Largest simultaneously buffered stage state — bounded by the
  /// coalescing/matching windows, not the log length.
  std::size_t peak_stage_state = 0;
};

/// Run the identification / classification / job-filter steps and the §V/§VI
/// characterization analyses on an already filtered + matched log pair. This
/// is the back half of run_coanalysis, exposed so callers can complete a
/// front end they drove themselves. Throws InvalidArgument when `jobs` is
/// empty.
CoAnalysisResult complete_coanalysis(filter::FilterPipelineResult filtered,
                                     MatchResult matches, const joblog::JobLog& jobs,
                                     const CoAnalysisConfig& config = {},
                                     const Context& ctx = {});

/// Run the full co-analysis (all three methodology steps plus the §V/§VI
/// characterization analyses) on a RAS log + job log pair. A thin
/// composition: stream::run_streaming_frontend produces the filtered groups
/// and the RAS↔job matches, then complete_coanalysis derives everything
/// else.
/// The context supplies the worker pool for the data-parallel stages and
/// the collector for per-stage spans; results are identical with or
/// without either. Throws InvalidArgument when `jobs` is empty.
CoAnalysisResult run_coanalysis(const ras::RasLog& ras, const joblog::JobLog& jobs,
                                const CoAnalysisConfig& config = {},
                                const Context& ctx = {});

}  // namespace coral::core
