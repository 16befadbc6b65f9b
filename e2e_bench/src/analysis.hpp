#pragma once

#include <cstdint>
#include <vector>

#include "coral/core/pipeline.hpp"
#include "trace.hpp"

namespace e2e {

/// A reference analysis computed in set-up by a different path (serial,
/// from the generated logs).
struct Reference {
  std::uint64_t result_fp = 0;
  std::size_t groups = 0;         ///< filtered fatal-event groups
  std::size_t interruptions = 0;  ///< matched job interruptions

  static Reference of(const coral::core::CoAnalysisResult& r);
  bool matches(const coral::core::CoAnalysisResult& r) const;
};

/// One co-analysis. Untraced: core::run_coanalysis. Traced: the public
/// calls run_coanalysis composes — the streaming front-end, the
/// identification step, the shared CharColumns, the CharColumns overloads
/// of the four characterization stages, the interarrival fits and the
/// Fig. 4/5 census accumulators — in the same order, with the same configs
/// and pool, each inside its own span.
coral::core::CoAnalysisResult analyse(coral::obs::Collector* trace,
                                      const coral::ras::RasLog& ras,
                                      const coral::joblog::JobLog& jobs,
                                      const coral::core::CoAnalysisConfig& config,
                                      const coral::Context& ctx);

/// Span names of the analysis calls, for the per-layer rows.
inline constexpr const char* kFrontEnd = "stream::run_streaming_frontend";
inline constexpr const char* kIdentify = "core::identify_interruption_related";
inline constexpr const char* kCharColumns = "core::build_char_columns";
inline constexpr const char* kClassify = "core::classify_causes";
inline constexpr const char* kJobFilter = "core::job_related_filter";
inline constexpr const char* kPropagation = "core::analyze_propagation";
inline constexpr const char* kVulnerability = "core::analyze_vulnerability";
inline constexpr const char* kInterarrivalSeconds = "core::interarrival_seconds";
inline constexpr const char* kFitInterarrivals = "core::fit_interarrivals";
inline constexpr const char* kDailyCounter = "stream::DailyCounter";
inline constexpr const char* kMidplaneTallies = "stream::MidplaneTallies";

/// Report the stream/core per-layer rows from traced ops that ran analyse().
void report_analysis_layers(Report& report, const std::vector<TracedOp>& ops);

}  // namespace e2e
