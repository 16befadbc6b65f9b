// Checkpoint advisor: turns the co-analysis outputs into checkpoint-interval
// recommendations, applying the paper's §VII guidance:
//   - use the *interruption* distribution (MTTI), not the raw failure rate,
//     because failures on idle nodes don't hurt jobs (Obs. 7);
//   - size the interval per job width (wider jobs fail more; Obs. 10);
//   - don't checkpoint during the first hour of a job whose history shows
//     application errors — most app errors fire early (Obs. 9/11).
#include <cmath>
#include <cstdio>
#include <span>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

// Young's first-order optimal checkpoint interval [13]: sqrt(2 * C * MTTI).
double young_interval_sec(double checkpoint_cost_sec, double mtti_sec) {
  return std::sqrt(2.0 * checkpoint_cost_sec * mtti_sec);
}

}  // namespace

int main() {
  using namespace coral;
  const synth::SynthResult data = synth::generate(synth::small_scenario(5, 60));
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);

  const double mtti = r.interruptions_system.weibull.mean();
  const double mtbf = r.fatal_before_jobfilter.weibull.mean();
  std::printf("Fitted from the logs: MTBF(all fatal events) = %.1f h, "
              "MTTI(system interruptions) = %.1f h\n\n",
              mtbf / 3600, mtti / 3600);
  std::printf("A planner using raw MTBF would checkpoint %.1fx too often — "
              "most fatal events never touch a job (Obs. 7).\n\n",
              std::sqrt(mtti / mtbf));

  // Per-size MTTI: scale the systemwide MTTI by each size class's share of
  // interruptions per job-hour (from the Table VI grid).
  const auto& grid = r.vulnerability.grid;
  std::printf("%-14s %14s %18s %22s\n", "job size", "interruptions",
              "per-1000-jobs rate", "Young interval (C=5min)");
  const std::span<const int> sizes = core::grid_row_sizes(r.machine());
  for (std::size_t row = 0; row < sizes.size(); ++row) {
    const auto& cell = grid.row_sums[row];
    if (cell.total == 0) continue;
    const double rate = cell.proportion();
    // Size-conditional MTTI: systemwide MTTI scaled by the relative risk of
    // this size class vs the overall rate.
    const double overall = grid.total.proportion();
    const double mtti_size = rate > 0 ? mtti * overall / rate : mtti * 10;
    const double interval = young_interval_sec(300.0, mtti_size);
    std::printf("%3d midplanes  %8zu/%-6zu %16.2f%% %18.0f s (%.1f h)\n", sizes[row],
                cell.interrupted, cell.total, 100.0 * rate, interval, interval / 3600);
  }

  std::printf("\nHistory rule (Obs. 9/11): %.0f%% of application-error interruptions "
              "strike within the first hour,\n",
              100.0 * r.vulnerability.app_interruptions_within_hour);
  const auto& app_k = r.vulnerability.resubmission[1];
  std::printf("and a job that already failed once on an application error fails again "
              "with P=%.0f%% (k=1) / %.0f%% (k=2).\n",
              100.0 * app_k.by_k[0].probability(), 100.0 * app_k.by_k[1].probability());
  std::printf("=> For resubmissions with app-error history, start checkpointing only "
              "after the first hour survives;\n   the checkpoint written earlier would "
              "almost always be wasted on a deterministic early crash.\n");
  return 0;
}
