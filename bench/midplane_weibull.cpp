// Regenerates the §V-B midplane-level claim: "Weibull distribution still
// fits midplane-level failure interarrival distribution well" even though
// failure rates differ strongly across midplanes.
#include <algorithm>
#include <cstdio>
#include <vector>

#include "coral/core/midplane.hpp"
#include "coral/stream/coanalysis.hpp"
#include "coral/synth/intrepid.hpp"

int main() {
  using namespace coral;
  const synth::SynthResult data = synth::generate(synth::intrepid_scenario(42));
  const auto filtered = stream::run_streaming_frontend(data.ras, data.jobs, {}).filtered;
  const core::MidplaneFits fits = core::fit_midplane_interarrivals(filtered);

  std::printf("Midplane-level fatal-event interarrival fits (>= 12 events needed)\n\n");
  std::printf("fitted midplanes:        %zu of 80\n", fits.fitted_count);
  std::printf("Weibull preferred (LRT): %zu (%.0f%%)\n", fits.weibull_preferred_count,
              100.0 * fits.weibull_preferred_fraction());
  std::printf("shape < 1:               %zu\n\n", fits.shape_below_one_count);

  // The busiest midplanes, like the paper's 58/60/61 highlights.
  std::vector<std::pair<std::size_t, int>> by_count;
  const machine::MachineModel& machine = data.ras.machine();
  for (int m = 0; m < machine.midplane_count(); ++m) {
    const auto& fit = fits.fits[static_cast<std::size_t>(m)];
    if (fit) by_count.push_back({fit->samples_sec.size() + 1, m});
  }
  std::sort(by_count.rbegin(), by_count.rend());
  std::printf("%-10s %8s %8s %10s %12s %6s\n", "midplane", "events", "shape", "scale",
              "mean_s", "LRT");
  for (std::size_t i = 0; i < std::min<std::size_t>(12, by_count.size()); ++i) {
    const int m = by_count[i].second;
    const auto& fit = *fits.fits[static_cast<std::size_t>(m)];
    std::printf("%-10s %8zu %8.3f %10.0f %12.0f %6s %s\n",
                machine.midplane_location(m).to_string().c_str(), by_count[i].first,
                fit.weibull.shape(), fit.weibull.scale(), fit.weibull.mean(),
                fit.lrt.weibull_preferred ? "W" : "E",
                (m >= 32 && m < 64) ? "(wide region)" : "");
  }
  std::printf("\nShape check [paper §V-B]: Weibull fits hold per midplane, and the\n"
              "highest-count midplanes sit in the wide-job region (paper: 58, 61, 60).\n");
  return 0;
}
