// Fault-aware scheduling what-if: the paper's §VII recommendation is that
// the scheduler subscribe to failure information (event time, location,
// category, recovery status) so it stops re-assigning failed nodes. This
// example replays the job log against the co-analysis output and counts the
// interruptions a location-blacklist policy would have avoided.
#include <cstdio>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

int main() {
  using namespace coral;
  const synth::SynthResult data = synth::generate(synth::small_scenario(3, 60));
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  const machine::LocCodec codec = data.jobs.machine().codec();

  std::printf("Replay: would a blacklist of recently-failed locations have avoided "
              "each system interruption?\n\n");
  std::printf("%12s %10s %10s %12s\n", "blacklist_h", "avoidable", "of total", "jobs blocked");

  for (const double hours : {1.0, 4.0, 12.0, 24.0, 72.0}) {
    const Usec window = static_cast<Usec>(hours * kUsecPerHour);
    std::size_t avoidable = 0, total_system = 0;

    for (const core::Interruption& in : r.matches.interruptions) {
      const ras::RasEvent& rep = r.filtered.fatal_events[r.filtered.groups[in.group].rep];
      const auto cause = r.classification.by_code.find(rep.errcode);
      const bool is_system = cause == r.classification.by_code.end() ||
                             cause->second.cause == core::Cause::SystemFailure;
      if (!is_system) continue;
      ++total_system;
      // Avoidable iff an *earlier* filtered fatal event touched this job's
      // partition within the blacklist window before the job started.
      const joblog::JobRecord& job = data.jobs[in.job];
      for (const auto& g : r.filtered.groups) {
        const ras::RasEvent& ev = r.filtered.fatal_events[g.rep];
        if (ev.event_time >= job.start_time) break;  // groups are time-ordered
        if (job.start_time - ev.event_time > window) continue;
        if (job.partition.covers_key(ev.location.packed(), codec)) {
          ++avoidable;
          break;
        }
      }
    }

    // Cost side: how many *successful* jobs would the blacklist have delayed?
    std::size_t blocked = 0;
    for (std::size_t j = 0; j < data.jobs.size(); ++j) {
      if (r.matches.group_by_job[j]) continue;  // only count healthy jobs
      const joblog::JobRecord& job = data.jobs[j];
      for (const auto& g : r.filtered.groups) {
        const ras::RasEvent& ev = r.filtered.fatal_events[g.rep];
        if (ev.event_time >= job.start_time) break;
        if (job.start_time - ev.event_time > window) continue;
        if (job.partition.covers_key(ev.location.packed(), codec)) {
          ++blocked;
          break;
        }
      }
    }

    std::printf("%12.0f %10zu %10zu %12zu\n", hours, avoidable, total_system, blocked);
  }

  std::printf("\nReading: a short blacklist already catches the persistent-fault kill\n"
              "chains (the paper's temporal propagation, Obs. 8) at modest cost in\n"
              "delayed healthy jobs; long blacklists mostly add cost.\n");
  return 0;
}
