#include "coral/core/export.hpp"

#include <fstream>
#include <ostream>

#include "coral/common/csv.hpp"
#include "coral/common/error.hpp"
#include "coral/common/strings.hpp"
#include "coral/stats/ecdf.hpp"

namespace coral::core {

void export_cdf_csv(std::ostream& out, const InterarrivalFit& fit,
                    std::size_t max_points) {
  CsvWriter w(out);
  w.write_row({"interarrival_s", "empirical", "weibull", "exponential"});
  if (fit.samples_sec.size() < 2) return;
  const stats::EmpiricalCdf ecdf(fit.samples_sec);
  for (const auto& [x, p] : ecdf.points(max_points)) {
    w.write_row({strformat("%.3f", x), strformat("%.6f", p),
                 strformat("%.6f", fit.weibull.cdf(x)),
                 strformat("%.6f", fit.exponential.cdf(x))});
  }
}

void export_midplane_csv(std::ostream& out, const CoAnalysisResult& r) {
  CsvWriter w(out);
  w.write_row({"midplane", "fatal_events", "workload_hours", "wide_workload_hours"});
  const machine::MachineModel& machine = r.machine();
  for (int m = 0; m < machine.midplane_count(); ++m) {
    const auto i = static_cast<std::size_t>(m);
    w.write_row({machine.location_string(machine.midplane_location(m)),
                 strformat("%.1f", r.fatal_events_per_midplane[i]),
                 strformat("%.2f", r.workload_per_midplane[i] / 3600.0),
                 strformat("%.2f", r.wide_workload_per_midplane[i] / 3600.0)});
  }
}

void export_daily_csv(std::ostream& out, const CoAnalysisResult& r) {
  CsvWriter w(out);
  w.write_row({"day", "interruptions"});
  for (std::size_t d = 0; d < r.interruptions_per_day.size(); ++d) {
    w.write_row({std::to_string(d), std::to_string(r.interruptions_per_day[d])});
  }
}

void export_resubmission_csv(std::ostream& out, const CoAnalysisResult& r) {
  CsvWriter w(out);
  w.write_row({"category", "k", "resubmissions", "interrupted", "probability"});
  const char* names[2] = {"system", "application"};
  for (int cat = 0; cat < 2; ++cat) {
    for (int k = 1; k <= 3; ++k) {
      const auto& p = r.vulnerability.resubmission[cat].by_k[static_cast<std::size_t>(k - 1)];
      w.write_row({names[cat], std::to_string(k), std::to_string(p.resubmissions),
                   std::to_string(p.interrupted), strformat("%.4f", p.probability())});
    }
  }
}

void export_grid_csv(std::ostream& out, const CoAnalysisResult& r) {
  CsvWriter w(out);
  w.write_row({"size_midplanes", "runtime_bucket", "interrupted", "total", "proportion"});
  static const char* kBuckets[4] = {"10-400s", "400-1600s", "1600-6400s", ">=6400s"};
  const std::span<const int> sizes = grid_row_sizes(r.machine());
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    for (int col = 0; col < 4; ++col) {
      const auto& c = r.vulnerability.grid.cells[row][static_cast<std::size_t>(col)];
      w.write_row({std::to_string(sizes[row]), kBuckets[col],
                   std::to_string(c.interrupted), std::to_string(c.total),
                   strformat("%.5f", c.proportion())});
    }
  }
}

int export_all(const std::string& directory, const CoAnalysisResult& r) {
  int written = 0;
  const auto write_file = [&](const char* name, auto&& writer) {
    const std::string path = directory + "/" + name;
    std::ofstream out(path);
    if (!out) throw Error("cannot open for writing: " + path);
    writer(out);
    ++written;
  };
  write_file("fig3a_fatal_cdf_before.csv",
             [&](std::ostream& o) { export_cdf_csv(o, r.fatal_before_jobfilter); });
  write_file("fig3b_fatal_cdf_after.csv",
             [&](std::ostream& o) { export_cdf_csv(o, r.fatal_after_jobfilter); });
  write_file("fig4_midplanes.csv", [&](std::ostream& o) { export_midplane_csv(o, r); });
  write_file("fig5_daily.csv", [&](std::ostream& o) { export_daily_csv(o, r); });
  write_file("fig6a_interruption_cdf_system.csv",
             [&](std::ostream& o) { export_cdf_csv(o, r.interruptions_system); });
  write_file("fig6b_interruption_cdf_application.csv",
             [&](std::ostream& o) { export_cdf_csv(o, r.interruptions_application); });
  write_file("fig7_resubmissions.csv",
             [&](std::ostream& o) { export_resubmission_csv(o, r); });
  write_file("table6_grid.csv", [&](std::ostream& o) { export_grid_csv(o, r); });
  return written;
}

}  // namespace coral::core
