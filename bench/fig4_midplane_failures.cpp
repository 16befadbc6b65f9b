// Regenerates Fig. 4: per-midplane (a) fatal-event counts, (b) aggregate
// workload and (c) wide-job (>= 32 midplanes) workload. The paper's point:
// the failure-rate profile follows (c), not (b) — wide jobs, not aggregate
// load, drive failures (Observation 5). Midplanes 32–63 are the wide-job
// region (the paper's midplanes 33–64, 1-indexed).
#include <algorithm>
#include <cstdio>
#include <vector>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

void print_series(const char* title, const std::vector<double>& values,
                  const coral::machine::PlacementZones& zones, const char* unit) {
  std::printf("\n%s\n", title);
  double max_value = 1e-12;
  for (double v : values) max_value = std::max(max_value, v);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const int m = static_cast<int>(i);
    const double v = values[i];
    const auto bar = static_cast<int>(v * 48.0 / max_value + 0.5);
    const bool in_region =
        m >= zones.wide_first && m < zones.wide_first + zones.wide_count;
    std::printf("  mp %2d %s %10.1f %s |%.*s%s\n", m, in_region ? "*" : " ", v,
                unit, bar,
                "################################################", "");
  }
}

}  // namespace

int main() {
  using namespace coral;
  const synth::SynthResult data = synth::generate(synth::intrepid_scenario(42));
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  const machine::PlacementZones zones = r.machine().placement_zones();
  const int n = r.machine().midplane_count();
  const int wide_lo = zones.wide_first;
  const int wide_hi = zones.wide_first + zones.wide_count;

  std::printf("Fig. 4 (rows marked * are the wide-job region, midplanes %d-%d)\n",
              wide_lo, wide_hi - 1);
  print_series("(a) fatal events per midplane", r.fatal_events_per_midplane, zones,
               "events");

  std::vector<double> work_hours(r.workload_per_midplane.size());
  std::vector<double> wide_hours(r.wide_workload_per_midplane.size());
  for (std::size_t i = 0; i < work_hours.size(); ++i) {
    work_hours[i] = r.workload_per_midplane[i] / 3600.0;
    wide_hours[i] = r.wide_workload_per_midplane[i] / 3600.0;
  }
  print_series("(b) workload per midplane", work_hours, zones, "hours");
  print_series("(c) wide-job (>=32 midplanes) workload per midplane", wide_hours,
               zones, "hours");

  // Region summary like the paper's prose.
  const double n_in = wide_hi - wide_lo;
  const double n_out = n - n_in;
  double f_wide = 0, f_other = 0, w_wide = 0, w_other = 0, ww_wide = 0, ww_other = 0;
  for (int m = 0; m < n; ++m) {
    const auto i = static_cast<std::size_t>(m);
    const bool in_region = m >= wide_lo && m < wide_hi;
    (in_region ? f_wide : f_other) += r.fatal_events_per_midplane[i];
    (in_region ? w_wide : w_other) += r.workload_per_midplane[i];
    (in_region ? ww_wide : ww_other) += r.wide_workload_per_midplane[i];
  }
  std::printf("\nRegion summary (per-midplane averages, %d-%d vs rest):\n", wide_lo,
              wide_hi - 1);
  std::printf("  fatal events:      %8.2f vs %8.2f  (ratio %.2f)\n", f_wide / n_in,
              f_other / n_out, (f_wide / n_in) / (f_other / n_out));
  std::printf("  total workload:    %8.0f vs %8.0f hours (ratio %.2f)\n",
              w_wide / n_in / 3600, w_other / n_out / 3600,
              (w_wide / n_in) / (w_other / n_out));
  std::printf("  wide-job workload: %8.0f vs %8.0f hours (ratio %.2f)\n",
              ww_wide / n_in / 3600, ww_other / n_out / 3600,
              ww_other > 0 ? (ww_wide / n_in) / (ww_other / n_out) : 0.0);
  std::printf("\nShape check: fatal events track wide-job workload, not total workload\n"
              "(Observation 5: high aggregate load != high failure rate).\n");
  return 0;
}
