// Administrator triage: the paper's motivating use case. Classify every
// FATAL errcode observed in a log pair (interruption-related? system or
// application? propagating?), show the rule that produced each verdict, and
// list the locations that need attention — including a worked Fig.-2
// example of the application-error identification pattern.
#include <algorithm>
#include <cstdio>
#include <map>
#include <vector>

#include "coral/core/pipeline.hpp"
#include "coral/synth/intrepid.hpp"

namespace {

using namespace coral;

// A hand-built Fig. 2 scenario: job 1 (exec "bad_app") is interrupted by
// fatal code A on midplane R00-M0, resubmitted to R01-M0 and interrupted
// again; meanwhile job 2 runs fine on R00-M0. The classifier must call A an
// application error.
void figure2_demo() {
  std::printf("--- Fig. 2 worked example -------------------------------------\n");
  const ras::Catalog& cat = ras::Catalog::instance();
  const ras::ErrcodeId code = *cat.find("_bgp_err_invalid_mem_address");

  const TimePoint t0 = TimePoint::from_calendar(2009, 2, 1);
  joblog::JobLog jobs;
  const auto add_job = [&](std::int64_t id, const char* exec, double start_h, double end_h,
                           const char* part) {
    joblog::JobRecord j;
    j.job_id = id;
    j.exec_id = jobs.intern_exec(exec);
    j.user_id = jobs.intern_user("u1");
    j.project_id = jobs.intern_project("p1");
    j.queue_time = t0 + static_cast<Usec>((start_h - 0.1) * kUsecPerHour);
    j.start_time = t0 + static_cast<Usec>(start_h * kUsecPerHour);
    j.end_time = t0 + static_cast<Usec>(end_h * kUsecPerHour);
    j.partition = machine::bgp_model().parse_partition(part);
    jobs.append(j);
  };
  // Job 1 killed twice (on two different midplanes); job 2 and a later job
  // survive on the first midplane.
  add_job(1, "bad_app", 0.0, 1.0, "R00-M0");   // interrupted at t0+1h
  add_job(2, "good_app", 1.5, 4.0, "R00-M0");  // survives on the old nodes
  add_job(3, "bad_app", 2.0, 3.0, "R01-M0");   // resubmission, interrupted again
  add_job(4, "good_app2", 4.5, 6.0, "R00-M0"); // survives again
  jobs.finalize();

  ras::RasLog log;
  for (double hour : {1.0, 3.0}) {
    ras::RasEvent ev;
    ev.errcode = code;
    ev.severity = ras::Severity::Fatal;
    ev.event_time = t0 + static_cast<Usec>(hour * kUsecPerHour);
    ev.location = machine::bgp_model().parse_location(hour < 2 ? "R00-M0-N03-J08"
                                                               : "R01-M0-N07-J11");
    log.append(ev);
  }
  log.finalize();

  core::CoAnalysisConfig config;
  config.classification.min_follow_evidence = 1;  // one clean pattern suffices here
  const core::CoAnalysisResult r = core::run_coanalysis(log, jobs, config);
  const auto& verdict = r.classification.by_code.at(code);
  std::printf("code %s -> %s (rule: %s)\n\n", cat.info(code).name.c_str(),
              to_string(verdict.cause), to_string(verdict.rule));
}

}  // namespace

int main() {
  figure2_demo();

  std::printf("--- Full-log triage (30-day synthetic sample) -----------------\n");
  const synth::SynthResult data = synth::generate(synth::small_scenario(11, 30));
  const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
  const ras::Catalog& cat = ras::Catalog::instance();

  // Errcode dossier: verdicts + interruption counts.
  std::map<ras::ErrcodeId, int> interruptions_by_code;
  for (const core::Interruption& in : r.matches.interruptions) {
    const auto code = r.filtered.fatal_events[r.filtered.groups[in.group].rep].errcode;
    interruptions_by_code[code] += 1;
  }
  std::vector<std::pair<int, ras::ErrcodeId>> ranked;
  for (const auto& [code, n] : interruptions_by_code) ranked.push_back({n, code});
  std::sort(ranked.rbegin(), ranked.rend());

  std::printf("%-34s %-20s %-18s %s\n", "ERRCODE", "cause", "rule", "interruptions");
  for (const auto& [n, code] : ranked) {
    const auto& cc = r.classification.by_code.at(code);
    std::printf("%-34s %-20s %-18.18s %d%s\n", cat.info(code).name.c_str(),
                to_string(cc.cause), to_string(cc.rule), n,
                r.propagation.propagating_codes.count(code) ? "  [propagates]" : "");
  }

  // Locations needing attention: most fatal events per midplane.
  const machine::MachineModel& machine = r.machine();
  std::map<bgp::MidplaneId, int> per_mid;
  for (const auto& g : r.filtered.groups) {
    const std::uint32_t key = r.filtered.fatal_events[g.rep].location.packed();
    if (!machine.codec().is_rack(key)) per_mid[machine.codec().midplanes(key).first] += 1;
  }
  std::vector<std::pair<int, bgp::MidplaneId>> hot;
  for (const auto& [mid, n] : per_mid) hot.push_back({n, mid});
  std::sort(hot.rbegin(), hot.rend());
  std::printf("\nHottest midplanes (fatal events):\n");
  for (std::size_t i = 0; i < std::min<std::size_t>(8, hot.size()); ++i) {
    std::printf("  %-8s %d events\n",
                machine.midplane_location(hot[i].second).to_string().c_str(), hot[i].first);
  }

  std::printf("\nFATAL codes never seen to hurt a job (reduce their alert priority):\n");
  for (const auto& [code, verdict] : r.identification.verdicts) {
    if (verdict == core::ErrcodeVerdict::NonFatalToJobs) {
      std::printf("  %s\n", cat.info(code).name.c_str());
    }
  }
  return 0;
}
