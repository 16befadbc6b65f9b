#include "coral/core/markdown.hpp"

#include "coral/common/strings.hpp"
#include "coral/core/report.hpp"

namespace coral::core {

namespace {

std::string fit_row(const char* name, const InterarrivalFit& fit) {
  return strformat("| %s | %zu | %.3f | %.1f | %.0f | %.3e | %s |\n", name,
                   fit.samples_sec.size(), fit.weibull.shape(), fit.weibull.scale(),
                   fit.weibull.mean(), fit.weibull.variance(),
                   fit.lrt.weibull_preferred ? "Weibull" : "exponential");
}

}  // namespace

std::string render_markdown_report(const CoAnalysisResult& r,
                                   const ras::RasLogSummary& ras,
                                   const joblog::JobLogSummary& jobs) {
  std::string md;
  md += "# CORAL co-analysis report\n\n";

  md += "## Input logs\n\n";
  md += strformat("- RAS: %zu records (%zu FATAL, %zu errcode types), %s to %s\n",
                  ras.total_records, ras.fatal_records, ras.fatal_errcode_types,
                  ras.first_time.to_display_string().c_str(),
                  ras.last_time.to_display_string().c_str());
  md += strformat("- Jobs: %zu (%zu distinct executables, %zu resubmitted, %zu users, "
                  "%zu projects)\n\n",
                  jobs.total_jobs, jobs.distinct_jobs, jobs.resubmitted_jobs, jobs.users,
                  jobs.projects);

  md += "## Filtering pipeline\n\n";
  md += "| stage | input | output | compression |\n|---|---:|---:|---:|\n";
  for (const auto& s : r.filtered.stages) {
    md += strformat("| %s | %zu | %zu | %.2f%% |\n", s.name.c_str(), s.input, s.output,
                    100.0 * s.compression());
  }
  md += strformat("| job-related | %zu | %zu | %.2f%% |\n\n", r.filtered.groups.size(),
                  r.job_filter.kept.size(),
                  100.0 * filter::compression_ratio(r.filtered.groups.size(),
                                                    r.job_filter.kept.size()));

  md += "## Interarrival fits (Weibull MLE)\n\n";
  md += "| series | n | shape | scale | mean | variance | LRT prefers |\n";
  md += "|---|---:|---:|---:|---:|---:|---|\n";
  md += fit_row("fatal events (before job-filter)", r.fatal_before_jobfilter);
  md += fit_row("fatal events (after job-filter)", r.fatal_after_jobfilter);
  md += fit_row("interruptions (system)", r.interruptions_system);
  md += fit_row("interruptions (application)", r.interruptions_application);
  md += "\n";

  md += "## Interruption census\n\n";
  md += strformat("- %zu interruptions: %zu system + %zu application; %zu distinct "
                  "executables\n",
                  r.interruption_count(), r.system_interruptions,
                  r.application_interruptions, r.distinct_interrupted_jobs);
  md += strformat("- errcode verdicts: %d interruption-related, %d non-fatal-to-jobs, "
                  "%d undetermined\n",
                  r.identification.count(ErrcodeVerdict::InterruptionRelated),
                  r.identification.count(ErrcodeVerdict::NonFatalToJobs),
                  r.identification.count(ErrcodeVerdict::Undetermined));
  md += strformat("- cause split: %d system-failure vs %d application-error code types\n\n",
                  r.classification.system_type_count(),
                  r.classification.application_type_count());

  md += "## Vulnerability grid (system interruptions / jobs)\n\n";
  md += "| size | 10-400s | 400-1600s | 1600-6400s | >=6400s | total |\n";
  md += "|---|---|---|---|---|---|\n";
  const std::span<const int> sizes = grid_row_sizes(r.machine());
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    const auto& sums = r.vulnerability.grid.row_sums[row];
    if (sums.total == 0) continue;
    md += strformat("| %d |", sizes[row]);
    for (int col = 0; col < 4; ++col) {
      const auto& c = r.vulnerability.grid.cells[row][static_cast<std::size_t>(col)];
      md += strformat(" %zu/%zu |", c.interrupted, c.total);
    }
    md += strformat(" %.2f%% |\n", 100.0 * sums.proportion());
  }
  md += "\n## Observations\n\n```\n";
  md += render_observations(r, ras, jobs);
  md += "```\n";
  return md;
}

}  // namespace coral::core
