// CLI: run the full co-analysis on a RAS/job CSV log pair (as produced by
// example_generate_logs, or hand-converted site logs in the same schema)
// and print the filter-stage table, the fitted distributions and the
// 12-observation report.
//
//   $ ./example_analyze_logs <ras.csv> <jobs.csv> [--markdown]
//                            [--trace <out.json>] [--metrics <out.prom>]
//
// --trace writes a Chrome trace_event JSON of the run (open it in
// chrome://tracing or https://ui.perfetto.dev); --metrics writes the same
// run's counters and histograms as Prometheus text exposition.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "coral/common/error.hpp"
#include "coral/context.hpp"
#include "coral/core/markdown.hpp"
#include "coral/core/report.hpp"
#include "coral/joblog/stats.hpp"
#include "coral/obs/obs.hpp"

namespace {

bool write_file(const char* path, const std::string& body) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return false;
  }
  out << body;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace coral;
  bool markdown = false;
  const char* trace_path = nullptr;
  const char* metrics_path = nullptr;
  const char* paths[2] = {nullptr, nullptr};
  int npaths = 0;
  bool usage_error = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--markdown") == 0) {
      markdown = true;
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (npaths < 2 && argv[i][0] != '-') {
      paths[npaths++] = argv[i];
    } else {
      usage_error = true;
    }
  }
  if (npaths != 2 || usage_error) {
    std::fprintf(stderr,
                 "usage: %s <ras.csv> <jobs.csv> [--markdown] [--trace out.json] "
                 "[--metrics out.prom]\n",
                 argv[0]);
    std::fprintf(stderr, "(generate a pair with example_generate_logs)\n");
    return 2;
  }

  // One collector observes the whole run — ingest through co-analysis —
  // when either export was requested; otherwise the null default applies.
  obs::Collector collector;
  Context ctx;
  if (trace_path != nullptr || metrics_path != nullptr) ctx.with_obs(&collector);

  ras::RasLog ras;
  joblog::JobLog jobs;
  try {
    std::ifstream ras_in(paths[0]);
    if (!ras_in) {
      std::fprintf(stderr, "cannot open %s\n", paths[0]);
      return 1;
    }
    ras = ras::RasLog::read_csv(ras_in, ctx.catalog(), ParseMode::Strict, nullptr,
                                ctx.obs());
    std::ifstream jobs_in(paths[1]);
    if (!jobs_in) {
      std::fprintf(stderr, "cannot open %s\n", paths[1]);
      return 1;
    }
    jobs = joblog::JobLog::read_csv(jobs_in, ParseMode::Strict, nullptr, ctx.obs());
  } catch (const coral::Error& e) {
    std::fprintf(stderr, "parse failure: %s\n", e.what());
    return 1;
  }

  std::printf("Loaded %zu RAS records (%zu FATAL) and %zu jobs\n", ras.size(),
              ras.summary().fatal_records, jobs.size());
  const joblog::WorkloadStats ws = joblog::workload_stats(jobs);
  std::printf("Machine utilization %.1f%%, mean queue wait %.0f s\n\n",
              100.0 * ws.utilization, ws.mean_wait_sec);

  const core::CoAnalysisResult r = core::run_coanalysis(ras, jobs, {}, ctx);

  if (trace_path != nullptr || metrics_path != nullptr) {
    const obs::Snapshot snap = collector.snapshot();
    if (trace_path != nullptr) {
      if (!write_file(trace_path, obs::chrome_trace_json(snap))) return 1;
      std::fprintf(stderr, "trace written to %s (open in chrome://tracing)\n",
                   trace_path);
    }
    if (metrics_path != nullptr) {
      if (!write_file(metrics_path, obs::prometheus_text(snap))) return 1;
      std::fprintf(stderr, "metrics written to %s\n", metrics_path);
    }
  }

  if (markdown) {
    std::fputs(core::render_markdown_report(r, ras.summary(), jobs.summary()).c_str(),
               stdout);
    return 0;
  }
  std::fputs(core::render_filter_stages(r).c_str(), stdout);
  std::printf("\n%s\n%s\n%s\n%s\n\n",
              core::render_fit("fatal (before job-filter)", r.fatal_before_jobfilter)
                  .c_str(),
              core::render_fit("fatal (after job-filter)", r.fatal_after_jobfilter).c_str(),
              core::render_fit("interruptions (system)", r.interruptions_system).c_str(),
              core::render_fit("interruptions (application)", r.interruptions_application)
                  .c_str());
  std::fputs(core::render_observations(r, ras.summary(), jobs.summary()).c_str(), stdout);
  return 0;
}
