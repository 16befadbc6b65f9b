// Ablation: sweep the temporal/spatial filter thresholds and the RAS↔job
// matching window against ground truth. Scores:
//   - event recovery: |filtered groups| vs true fault-instance count,
//   - interruption detection precision/recall vs the generator's truth.
// Justifies the 300 s / 300 s / 120 s defaults (DESIGN.md decisions 1–2).
#include <cstdio>
#include <set>

#include "coral/stream/coanalysis.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

struct Score {
  std::size_t groups = 0;
  double precision = 0;
  double recall = 0;
};

Score score(const synth::SynthResult& data, Usec temporal, Usec spatial, Usec window) {
  stream::FrontEndConfig config;
  config.filters.temporal.threshold = temporal;
  config.filters.spatial.threshold = spatial;
  config.match_window = window;
  const stream::FrontEndResult front =
      stream::run_streaming_frontend(data.ras, data.jobs, config);
  const core::MatchResult& matches = front.matches;

  std::set<std::int64_t> truth_jobs;
  for (const auto& i : data.truth.interruptions) truth_jobs.insert(i.job_id);
  std::size_t hit = 0;
  for (const auto& i : matches.interruptions) {
    if (truth_jobs.count(data.jobs[i.job].job_id)) ++hit;
  }
  Score s;
  s.groups = front.filtered.groups.size();
  s.precision = matches.interruptions.empty()
                    ? 0.0
                    : static_cast<double>(hit) /
                          static_cast<double>(matches.interruptions.size());
  s.recall = truth_jobs.empty()
                 ? 0.0
                 : static_cast<double>(hit) / static_cast<double>(truth_jobs.size());
  return s;
}

}  // namespace

int main() {
  const synth::SynthResult data = synth::generate(synth::intrepid_scenario(42));
  std::printf("Ground truth: %zu fault instances, %zu interrupted jobs\n\n",
              data.truth.faults.size(), data.truth.interruptions.size());

  std::printf("Sweep 1: temporal = spatial threshold (matching window fixed 120 s)\n");
  std::printf("%12s %10s %10s %10s\n", "threshold_s", "groups", "precision", "recall");
  for (Usec t : {30L, 60L, 120L, 300L, 600L, 1800L, 3600L}) {
    const Score s = score(data, t * kUsecPerSec, t * kUsecPerSec, 120 * kUsecPerSec);
    std::printf("%12ld %10zu %10.3f %10.3f\n", t, s.groups, s.precision, s.recall);
  }

  std::printf("\nSweep 2: matching window (thresholds fixed 300 s)\n");
  std::printf("%12s %10s %10s %10s\n", "window_s", "groups", "precision", "recall");
  for (Usec w : {15L, 30L, 60L, 120L, 300L, 900L, 3600L}) {
    const Score s = score(data, 300 * kUsecPerSec, 300 * kUsecPerSec, w * kUsecPerSec);
    std::printf("%12ld %10zu %10.3f %10.3f\n", w, s.groups, s.precision, s.recall);
  }

  std::printf("\nExpected shape: tiny thresholds leave storms unmerged (groups >> truth);\n"
              "huge thresholds over-merge (groups << truth). Small windows lose matches\n"
              "(recall drops); large windows admit coincidences (precision drops).\n");
  return 0;
}
