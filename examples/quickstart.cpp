// Quickstart: generate a synthetic BG/P log pair, run the full co-analysis,
// and print the essentials — the 60-second tour of the library.
//
//   $ ./example_quickstart [seed] [days]
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "coral/core/report.hpp"
#include "coral/synth/intrepid.hpp"

int main(int argc, char** argv) {
  using namespace coral;
  const std::uint64_t seed = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 7;
  const int days = argc > 2 ? std::atoi(argv[2]) : 30;

  // 1. Generate a log pair from the calibrated Intrepid model (scaled down).
  const synth::ScenarioConfig config = synth::small_scenario(seed, days);
  const synth::SynthResult data = synth::generate(config);
  std::printf("Generated %d days: %zu RAS records (%zu FATAL), %zu jobs\n\n", days,
              data.ras.size(), data.ras.summary().fatal_records, data.jobs.size());

  // 2. Show one record of each log, Table II / Table III style.
  if (!data.ras.empty()) {
    // A record's RECID is its position in the time-ordered log plus one.
    const std::size_t pos = data.ras.size() / 2;
    const ras::RasEvent& ev = data.ras[pos];
    const ras::ErrcodeInfo& info = ev.info(data.ras.catalog());
    std::printf("Example RAS record (Table II):\n");
    std::printf("  RECID        %zu\n", pos + 1);
    std::printf("  MSG_ID       %s\n", info.msg_id.c_str());
    std::printf("  COMPONENT    %s\n", to_string(info.component));
    std::printf("  SUBCOMPONENT %s\n", info.subcomponent.c_str());
    std::printf("  ERRCODE      %s\n", info.name.c_str());
    std::printf("  SEVERITY     %s\n", to_string(ev.severity));
    std::printf("  EVENT_TIME   %s\n", ev.event_time.to_ras_string().c_str());
    std::printf("  LOCATION     %s\n", ev.location.to_string().c_str());
    std::printf("  MESSAGE      %s\n\n", info.message.c_str());
  }
  if (!data.jobs.empty()) {
    const joblog::JobRecord& job = data.jobs[data.jobs.size() / 2];
    std::printf("Example job record (Table III):\n");
    std::printf("  Job ID         %lld\n", static_cast<long long>(job.job_id));
    std::printf("  Execution File %s\n",
                data.jobs.exec_files()[static_cast<std::size_t>(job.exec_id)].c_str());
    std::printf("  Queuing Time   %.2f\n", job.queue_time.unix_seconds());
    std::printf("  Starting Time  %.2f\n", job.start_time.unix_seconds());
    std::printf("  End Time       %.2f\n", job.end_time.unix_seconds());
    std::printf("  Location       %s  (%d midplanes)\n\n", data.jobs.machine().partition_name(job.partition).c_str(),
                job.size_midplanes());
  }

  // 3. Logs serialize to CSV (and parse back) if you want files on disk.
  {
    std::ostringstream csv;
    data.jobs.write_csv(csv);
    std::printf("Job log CSV is %zu bytes; RAS log CSV works the same way.\n\n",
                csv.str().size());
  }

  // 4. Run the paper's methodology end to end.
  const core::CoAnalysisResult result = core::run_coanalysis(data.ras, data.jobs);
  std::fputs(core::render_filter_stages(result).c_str(), stdout);
  std::printf("\n%zu interruptions matched (%zu system, %zu application)\n\n",
              result.interruption_count(), result.system_interruptions,
              result.application_interruptions);
  std::fputs(
      core::render_observations(result, data.ras.summary(), data.jobs.summary()).c_str(),
      stdout);
  return 0;
}
