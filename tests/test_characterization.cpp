// Differential suite for the columnar characterization stages.
//
// The four stages downstream of matching (classification, job-related
// filtering, propagation, vulnerability) were rewritten on flat columnar
// inputs (CharColumns, JobLog::columns()), and the vulnerability stage
// again on contingency counts. This file freezes the original map/set
// reference implementations verbatim — including the column-scan
// information-gain kernel the vulnerability reference ranks features
// with, so the reference shares no kernel with the library — and pins the
// rewrite against them: every statistic in the result structs must match
// exactly (the vulnerability doubles bit for bit), across seeds, machines
// and scenario packs, on the output of the streaming front end and of the
// frozen front-end oracle (frontend_oracle.hpp), and on the threaded
// path. (The paper-number
// goldens in test_paper_golden.cpp and test_core_analysis.cpp run through
// the same public entry points, so they exercise the columnar path too;
// this suite is the byte-identity proof that makes those goldens
// transferable.)
//
// Also holds the BG/Q size_row regression: a 96-midplane job is legal on
// BG/Q but off the BG/P Table VI ladder, and used to throw InvalidArgument
// mid-co-analysis. It must now bucket into the trailing grid row.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "coral/common/error.hpp"
#include "coral/core/jobfilter.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/machine/model.hpp"
#include "coral/stats/correlation.hpp"
#include "coral/synth/intrepid.hpp"
#include "coral/synth/packs.hpp"
#include "frontend_oracle.hpp"
#include "frozen_infogain.hpp"

namespace {

using namespace coral;

// ---------------------------------------------------------------------------
// Frozen pre-columnar reference implementations. Copied from the original
// row-at-a-time sources (std::map / std::set / nested scans); only renamed.
// Do not "improve" these — their value is that they are the old code.
namespace refimpl {

using namespace coral::core;

int ref_runtime_bucket(double seconds) {
  if (seconds < 400) return 0;
  if (seconds < 1600) return 1;
  if (seconds < 6400) return 2;
  return 3;
}

// The historical BG/P-only ladder. Throws off-ladder, which is the bug the
// production size_row no longer has; the BG/P scenarios never hit the throw.
int ref_bgp_size_row(int midplanes) {
  switch (midplanes) {
    case 1: return 0;
    case 2: return 1;
    case 4: return 2;
    case 8: return 3;
    case 16: return 4;
    case 32: return 5;
    case 48: return 6;
    case 64: return 7;
    case 80: return 8;
    default: throw InvalidArgument("not a Table VI job size: " + std::to_string(midplanes));
  }
}

// Other machines use the ladder rule that replaced the BG/P switch (the
// index of the first legal size >= midplanes, capped at the grid's last
// row), frozen here as written at that change.
int ref_size_row(int midplanes, const machine::MachineModel& machine) {
  if (&machine == &machine::bgp_model()) return ref_bgp_size_row(midplanes);
  const std::vector<int>& ladder = machine.legal_partition_sizes();
  if (ladder.empty()) return 0;
  const std::size_t row = static_cast<std::size_t>(
      std::lower_bound(ladder.begin(), ladder.end(), midplanes) - ladder.begin());
  const std::size_t rows = std::min<std::size_t>(ladder.size(), 9);
  return static_cast<int>(std::min(row, rows - 1));
}

struct Obs {
  TimePoint time;
  std::size_t job = 0;
  joblog::ExecId exec = 0;
  bgp::Partition partition;
  bgp::Location location;
};

ClassificationResult ref_classify(const filter::FilterPipelineResult& filtered,
                                  const MatchResult& matches,
                                  const IdentificationResult& identification,
                                  const joblog::JobLog& jobs,
                                  const ClassificationConfig& config = {}) {
  ClassificationResult result;

  std::map<ras::ErrcodeId, std::vector<Obs>> obs_by_code;
  for (const Interruption& in : matches.interruptions) {
    const ras::RasEvent& rep = filtered.fatal_events[filtered.groups[in.group].rep];
    const joblog::JobRecord& job = jobs[in.job];
    obs_by_code[rep.errcode].push_back(
        {in.time, in.job, job.exec_id, job.partition, rep.location});
  }
  for (auto& [code, v] : obs_by_code) {
    std::sort(v.begin(), v.end(), [](const Obs& a, const Obs& b) { return a.time < b.time; });
  }

  std::vector<std::size_t> survivors;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (matches.group_by_job[j] < 0) survivors.push_back(j);
  }

  for (const auto& [code, verdict] : identification.verdicts) {
    if (verdict == ErrcodeVerdict::Undetermined && obs_by_code.find(code) == obs_by_code.end()) {
      result.by_code[code] = {Cause::SystemFailure, CauseRule::NeverWithJob, 0};
      continue;
    }
    const auto oit = obs_by_code.find(code);
    if (oit == obs_by_code.end()) continue;
    const std::vector<Obs>& v = oit->second;

    bool same_location_repeat = false;
    for (std::size_t i = 0; i + 1 < v.size() && !same_location_repeat; ++i) {
      for (std::size_t k = i + 1; k < v.size(); ++k) {
        if (v[k].time - v[i].time > config.same_location_horizon) break;
        if (v[k].exec != v[i].exec && v[k].location == v[i].location) {
          same_location_repeat = true;
          break;
        }
      }
    }

    int follow_evidence = 0;
    for (std::size_t i = 0; i < v.size(); ++i) {
      bool found_for_i = false;
      for (std::size_t k = i + 1; k < v.size() && !found_for_i; ++k) {
        if (v[k].time - v[i].time > config.follow_gap) break;
        if (v[k].exec != v[i].exec) continue;
        if (v[k].partition.overlaps(v[i].partition)) continue;
        for (std::size_t s : survivors) {
          const joblog::JobRecord& job = jobs[s];
          if (job.start_time <= v[i].time || job.start_time >= v[k].time) continue;
          if (job.partition.overlaps(v[i].partition)) {
            found_for_i = true;
            break;
          }
        }
      }
      if (found_for_i) ++follow_evidence;
    }
    const bool follows_exec = follow_evidence >= config.min_follow_evidence;

    if (follows_exec) {
      result.by_code[code] = {Cause::ApplicationError, CauseRule::FollowsResubmission, 0};
    } else if (same_location_repeat) {
      result.by_code[code] = {Cause::SystemFailure, CauseRule::RepeatSameLocation, 0};
    }
  }

  if (!filtered.fatal_events.empty()) {
    const TimePoint begin = filtered.fatal_events.front().event_time;
    const TimePoint end = filtered.fatal_events.back().event_time + 1;

    std::vector<TimePoint> sys_times, app_times;
    std::map<ras::ErrcodeId, std::vector<TimePoint>> code_times;
    for (const filter::EventGroup& g : filtered.groups) {
      const ras::RasEvent& rep = filtered.fatal_events[g.rep];
      code_times[rep.errcode].push_back(rep.event_time);
      const auto cit = result.by_code.find(rep.errcode);
      if (cit == result.by_code.end()) continue;
      (cit->second.cause == Cause::SystemFailure ? sys_times : app_times)
          .push_back(rep.event_time);
    }

    for (const auto& [code, verdict] : identification.verdicts) {
      (void)verdict;
      if (result.by_code.find(code) != result.by_code.end()) continue;
      const auto& times = code_times[code];
      double r_sys = 0, r_app = 0;
      if (!times.empty() && end - begin > config.correlation_window) {
        if (!sys_times.empty()) {
          r_sys = stats::event_time_correlation(times, sys_times, begin, end,
                                                config.correlation_window);
        }
        if (!app_times.empty()) {
          r_app = stats::event_time_correlation(times, app_times, begin, end,
                                                config.correlation_window);
        }
      }
      const Cause cause = r_app > r_sys ? Cause::ApplicationError : Cause::SystemFailure;
      result.by_code[code] = {cause, CauseRule::CorrelationFallback, std::max(r_sys, r_app)};
    }
  }

  if (!filtered.groups.empty()) {
    std::size_t app_events = 0;
    for (const filter::EventGroup& g : filtered.groups) {
      const ras::RasEvent& rep = filtered.fatal_events[g.rep];
      const auto cit = result.by_code.find(rep.errcode);
      if (cit != result.by_code.end() && cit->second.cause == Cause::ApplicationError) {
        ++app_events;
      }
    }
    result.application_event_fraction =
        static_cast<double>(app_events) / static_cast<double>(filtered.groups.size());
  }
  return result;
}

struct GroupObs {
  std::size_t group = 0;
  TimePoint time;
  bgp::Location location;
  std::vector<std::size_t> jobs;
};

JobFilterResult ref_jobfilter(const filter::FilterPipelineResult& filtered,
                              const MatchResult& matches,
                              const ClassificationResult& classification,
                              const joblog::JobLog& jobs,
                              const JobFilterConfig& config = {}) {
  JobFilterResult result;

  std::map<ras::ErrcodeId, std::vector<GroupObs>> by_code;
  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    if (matches.jobs_by_group[g].empty()) continue;
    const ras::RasEvent& rep = filtered.fatal_events[filtered.groups[g].rep];
    by_code[rep.errcode].push_back(
        {g, rep.event_time, rep.location, matches.jobs_by_group[g]});
  }

  std::vector<std::size_t> survivors;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (matches.group_by_job[j] < 0) survivors.push_back(j);
  }

  const auto survivor_between = [&](const bgp::Location& where, TimePoint a, TimePoint b) {
    for (std::size_t s : survivors) {
      const joblog::JobRecord& job = jobs[s];
      if (job.start_time <= a || job.end_time >= b) continue;
      if (job.partition.covers_key(where.packed(), jobs.machine().codec())) return true;
    }
    return false;
  };

  std::set<std::size_t> redundant;
  for (auto& [code, v] : by_code) {
    std::sort(v.begin(), v.end(),
              [](const GroupObs& a, const GroupObs& b) { return a.time < b.time; });
    const bool app_error =
        classification.by_code.count(code) != 0 &&
        classification.by_code.at(code).cause == Cause::ApplicationError;

    for (std::size_t i = 1; i < v.size(); ++i) {
      for (std::size_t k = i; k-- > 0;) {
        if (v[i].time - v[k].time > config.horizon) break;
        if (redundant.count(v[k].group)) continue;
        bool is_redundant = false;
        if (app_error) {
          for (std::size_t ji : v[i].jobs) {
            for (std::size_t jk : v[k].jobs) {
              if (jobs[ji].exec_id == jobs[jk].exec_id) {
                is_redundant = true;
                break;
              }
            }
            if (is_redundant) break;
          }
        } else {
          if (v[i].location == v[k].location &&
              !survivor_between(v[k].location, v[k].time, v[i].time)) {
            is_redundant = true;
          }
        }
        if (is_redundant) {
          redundant.insert(v[i].group);
          result.redundant_to[v[i].group] = v[k].group;
          break;
        }
      }
    }
  }

  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    if (!redundant.count(g)) result.kept.push_back(g);
  }
  return result;
}

PropagationResult ref_propagation(const filter::FilterPipelineResult& filtered,
                                  const MatchResult& matches,
                                  const joblog::JobLog& jobs,
                                  const PropagationConfig& config = {}) {
  PropagationResult result;

  for (std::size_t g = 0; g < filtered.groups.size(); ++g) {
    const auto& victims = matches.jobs_by_group[g];
    if (victims.size() < 2) continue;
    bool disjoint = false;
    for (std::size_t i = 0; i + 1 < victims.size() && !disjoint; ++i) {
      for (std::size_t k = i + 1; k < victims.size(); ++k) {
        if (!jobs[victims[i]].partition.overlaps(jobs[victims[k]].partition)) {
          disjoint = true;
          break;
        }
      }
    }
    if (disjoint) {
      result.propagating_groups.push_back(g);
      result.propagating_codes.insert(
          filtered.fatal_events[filtered.groups[g].rep].errcode);
    }
  }
  if (!filtered.groups.empty()) {
    result.propagating_event_fraction =
        static_cast<double>(result.propagating_groups.size()) /
        static_cast<double>(filtered.groups.size());
  }

  std::map<joblog::ExecId, std::vector<std::size_t>> runs;
  for (std::size_t j = 0; j < jobs.size(); ++j) runs[jobs[j].exec_id].push_back(j);
  for (auto& [exec, v] : runs) {
    std::sort(v.begin(), v.end(), [&jobs](std::size_t a, std::size_t b) {
      return jobs[a].start_time < jobs[b].start_time;
    });
    for (std::size_t i = 0; i + 1 < v.size(); ++i) {
      if (matches.group_by_job[v[i]] < 0) continue;
      const joblog::JobRecord& prev = jobs[v[i]];
      const joblog::JobRecord& next = jobs[v[i + 1]];
      if (next.queue_time - prev.end_time > config.resubmit_gap) continue;
      result.resubmissions_after_interruption += 1;
      if (next.partition == prev.partition) result.resubmissions_same_partition += 1;
    }
  }
  return result;
}

std::optional<Category> ref_job_category(std::size_t job_idx,
                                         const filter::FilterPipelineResult& filtered,
                                         const MatchResult& matches,
                                         const ClassificationResult& classification) {
  const std::int32_t g = matches.group_by_job[job_idx];
  if (g < 0) return std::nullopt;
  const ras::ErrcodeId code =
      filtered.fatal_events[filtered.groups[static_cast<std::size_t>(g)].rep].errcode;
  const auto it = classification.by_code.find(code);
  if (it == classification.by_code.end()) return Category::SystemFailure;
  return it->second.cause == Cause::ApplicationError ? Category::ApplicationError
                                                     : Category::SystemFailure;
}

VulnerabilityResult ref_vulnerability(const filter::FilterPipelineResult& filtered,
                                      const MatchResult& matches,
                                      const ClassificationResult& classification,
                                      const joblog::JobLog& jobs,
                                      const VulnerabilityConfig& config = {}) {
  VulnerabilityResult result;

  std::vector<std::optional<Category>> category(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    category[j] = ref_job_category(j, filtered, matches, classification);
  }

  std::map<joblog::ExecId, std::vector<std::size_t>> runs;
  for (std::size_t j = 0; j < jobs.size(); ++j) runs[jobs[j].exec_id].push_back(j);
  std::size_t interruptions_after_k2 = 0, total_interruptions = 0;
  for (auto& [exec, v] : runs) {
    std::sort(v.begin(), v.end(), [&jobs](std::size_t a, std::size_t b) {
      return jobs[a].start_time < jobs[b].start_time;
    });
    int consec = 0;
    bool have_chain_cat = false;
    Category chain_cat = Category::SystemFailure;
    TimePoint last_end;
    for (std::size_t idx = 0; idx < v.size(); ++idx) {
      const std::size_t j = v[idx];
      const bool chained =
          idx > 0 && jobs[j].queue_time - last_end <= config.chain_gap;
      if (!chained) {
        consec = 0;
        have_chain_cat = false;
      }
      if (consec >= 1 && consec <= 3 && have_chain_cat) {
        auto& point =
            result.resubmission[static_cast<std::size_t>(chain_cat)].by_k[
                static_cast<std::size_t>(consec - 1)];
        point.resubmissions += 1;
        if (category[j]) point.interrupted += 1;
      }
      if (category[j]) {
        total_interruptions += 1;
        if (consec >= 2) interruptions_after_k2 += 1;
        consec += 1;
        if (!have_chain_cat) {
          have_chain_cat = true;
          chain_cat = *category[j];
        }
      } else {
        consec = 0;
        have_chain_cat = false;
      }
      last_end = jobs[j].end_time;
    }
  }
  const double uncovered =
      total_interruptions == 0
          ? 0.0
          : 1.0 - static_cast<double>(interruptions_after_k2) /
                      static_cast<double>(total_interruptions);
  result.resubmission[0].uncovered_at_k2 = uncovered;
  result.resubmission[1].uncovered_at_k2 = uncovered;

  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (category[j] == Category::ApplicationError) continue;
    const int row = ref_size_row(jobs[j].size_midplanes(), jobs.machine());
    const int col = ref_runtime_bucket(static_cast<double>(jobs[j].runtime()) /
                                       static_cast<double>(kUsecPerSec));
    const bool interrupted = category[j] == Category::SystemFailure;
    auto bump = [interrupted](GridCell& cell) {
      cell.total += 1;
      if (interrupted) cell.interrupted += 1;
    };
    bump(result.grid.cells[static_cast<std::size_t>(row)][static_cast<std::size_t>(col)]);
    bump(result.grid.row_sums[static_cast<std::size_t>(row)]);
    bump(result.grid.col_sums[static_cast<std::size_t>(col)]);
    bump(result.grid.total);
  }

  std::size_t app_total = 0, app_early = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (category[j] != Category::ApplicationError) continue;
    ++app_total;
    const double runtime_sec =
        static_cast<double>(jobs[j].runtime()) / static_cast<double>(kUsecPerSec);
    if (runtime_sec < 3600) ++app_early;
    if (jobs[j].size_midplanes() > 32 && runtime_sec > 1000) {
      result.app_interruptions_wide_long += 1;
    }
  }
  result.app_interruptions_within_hour =
      app_total == 0 ? 0.0 : static_cast<double>(app_early) / static_cast<double>(app_total);

  const auto n_midplanes = static_cast<std::size_t>(jobs.machine().midplane_count());
  std::vector<std::size_t> fatal_per_mid(n_midplanes, 0);
  for (const filter::EventGroup& g : filtered.groups) {
    const std::uint32_t key = filtered.fatal_events[g.rep].location.packed();
    if (!machine::LocCodec::is_rack(key)) {
      fatal_per_mid[static_cast<std::size_t>(jobs.machine().codec().midplanes(key).first)] += 1;
    }
  }
  std::vector<bgp::MidplaneId> mids(n_midplanes);
  for (std::size_t m = 0; m < n_midplanes; ++m) mids[m] = static_cast<bgp::MidplaneId>(m);
  std::sort(mids.begin(), mids.end(), [&fatal_per_mid](bgp::MidplaneId a, bgp::MidplaneId b) {
    return fatal_per_mid[static_cast<std::size_t>(a)] >
           fatal_per_mid[static_cast<std::size_t>(b)];
  });
  mids.resize(static_cast<std::size_t>(config.unreliable_midplane_count));
  std::vector<bool> unreliable(n_midplanes, false);
  for (bgp::MidplaneId m : mids) unreliable[static_cast<std::size_t>(m)] = true;

  for (Category cat : {Category::SystemFailure, Category::ApplicationError}) {
    FeatureRanking& ranking = result.features[static_cast<std::size_t>(cat)];
    ranking.unreliable_midplanes = mids;

    std::map<int, std::size_t> by_user, by_project;
    std::size_t cat_total = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (category[j] != cat) continue;
      ++cat_total;
      by_user[jobs[j].user_id] += 1;
      by_project[jobs[j].project_id] += 1;
    }
    const auto top_keys = [cat_total](const std::map<int, std::size_t>& counts, int n,
                                      double& coverage) {
      std::vector<std::pair<std::size_t, int>> v;
      for (const auto& [key, c] : counts) v.push_back({c, key});
      std::sort(v.rbegin(), v.rend());
      std::vector<int> keys;
      std::size_t covered = 0;
      for (int i = 0; i < n && i < static_cast<int>(v.size()); ++i) {
        keys.push_back(v[static_cast<std::size_t>(i)].second);
        covered += v[static_cast<std::size_t>(i)].first;
      }
      coverage = cat_total == 0 ? 0.0
                                : static_cast<double>(covered) /
                                      static_cast<double>(cat_total);
      return keys;
    };
    ranking.suspicious_users = top_keys(by_user, config.suspicious_user_count,
                                        ranking.suspicious_user_coverage);
    ranking.suspicious_projects = top_keys(by_project, config.suspicious_project_count,
                                           ranking.suspicious_project_coverage);
    std::set<int> susp_users(ranking.suspicious_users.begin(),
                             ranking.suspicious_users.end());
    std::set<int> susp_projects(ranking.suspicious_projects.begin(),
                                ranking.suspicious_projects.end());

    frozen::FeatureColumn f_user{"user", {}}, f_project{"project", {}},
        f_size{"size", {}}, f_runtime{"execution time", {}}, f_location{"location", {}};
    std::vector<std::uint8_t> labels;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const joblog::JobRecord& job = jobs[j];
      f_user.values.push_back(susp_users.count(job.user_id) ? 1 : 0);
      f_project.values.push_back(susp_projects.count(job.project_id) ? 1 : 0);
      f_size.values.push_back(ref_size_row(job.size_midplanes(), jobs.machine()));
      f_runtime.values.push_back(ref_runtime_bucket(
          static_cast<double>(job.runtime()) / static_cast<double>(kUsecPerSec)));
      bool on_unreliable = false;
      for (bgp::MidplaneId m : job.partition.midplanes()) {
        if (unreliable[static_cast<std::size_t>(m)]) {
          on_unreliable = true;
          break;
        }
      }
      f_location.values.push_back(on_unreliable ? 1 : 0);
      labels.push_back(category[j] == cat ? 1 : 0);
    }
    const std::vector<frozen::FeatureColumn> features = {f_user, f_project, f_size,
                                                         f_runtime, f_location};
    ranking.ranked = frozen::rank_features(features, labels);
  }
  return result;
}

}  // namespace refimpl

// ---------------------------------------------------------------------------
// Exact-equality assertions over every statistic the result structs carry.

void expect_classification_eq(const core::ClassificationResult& want,
                              const core::ClassificationResult& got) {
  ASSERT_EQ(want.by_code.size(), got.by_code.size());
  for (const auto& [code, w] : want.by_code) {
    ASSERT_TRUE(got.by_code.count(code)) << "code " << code;
    const core::CodeCause& g = got.by_code.at(code);
    EXPECT_EQ(w.cause, g.cause) << "code " << code;
    EXPECT_EQ(w.rule, g.rule) << "code " << code;
    EXPECT_DOUBLE_EQ(w.correlation, g.correlation) << "code " << code;
  }
  EXPECT_DOUBLE_EQ(want.application_event_fraction, got.application_event_fraction);
}

void expect_jobfilter_eq(const core::JobFilterResult& want,
                         const core::JobFilterResult& got) {
  EXPECT_EQ(want.kept, got.kept);
  EXPECT_EQ(want.redundant_to, got.redundant_to);
}

void expect_propagation_eq(const core::PropagationResult& want,
                           const core::PropagationResult& got) {
  EXPECT_EQ(want.propagating_groups, got.propagating_groups);
  EXPECT_EQ(want.propagating_codes, got.propagating_codes);
  EXPECT_DOUBLE_EQ(want.propagating_event_fraction, got.propagating_event_fraction);
  EXPECT_EQ(want.resubmissions_after_interruption, got.resubmissions_after_interruption);
  EXPECT_EQ(want.resubmissions_same_partition, got.resubmissions_same_partition);
  EXPECT_DOUBLE_EQ(want.same_partition_fraction(), got.same_partition_fraction());
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_vulnerability_eq(const core::VulnerabilityResult& want,
                             const core::VulnerabilityResult& got) {
  for (std::size_t cat = 0; cat < 2; ++cat) {
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(want.resubmission[cat].by_k[k].resubmissions,
                got.resubmission[cat].by_k[k].resubmissions)
          << "cat " << cat << " k " << k;
      EXPECT_EQ(want.resubmission[cat].by_k[k].interrupted,
                got.resubmission[cat].by_k[k].interrupted)
          << "cat " << cat << " k " << k;
      EXPECT_EQ(bits(want.resubmission[cat].by_k[k].probability()),
                bits(got.resubmission[cat].by_k[k].probability()))
          << "cat " << cat << " k " << k;
    }
    EXPECT_EQ(bits(want.resubmission[cat].uncovered_at_k2),
              bits(got.resubmission[cat].uncovered_at_k2));
  }

  for (std::size_t r = 0; r < 9; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      EXPECT_EQ(want.grid.cells[r][c].interrupted, got.grid.cells[r][c].interrupted)
          << "cell " << r << "," << c;
      EXPECT_EQ(want.grid.cells[r][c].total, got.grid.cells[r][c].total)
          << "cell " << r << "," << c;
      EXPECT_EQ(bits(want.grid.cells[r][c].proportion()),
                bits(got.grid.cells[r][c].proportion()))
          << "cell " << r << "," << c;
    }
    EXPECT_EQ(want.grid.row_sums[r].interrupted, got.grid.row_sums[r].interrupted);
    EXPECT_EQ(want.grid.row_sums[r].total, got.grid.row_sums[r].total);
  }
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_EQ(want.grid.col_sums[c].interrupted, got.grid.col_sums[c].interrupted);
    EXPECT_EQ(want.grid.col_sums[c].total, got.grid.col_sums[c].total);
  }
  EXPECT_EQ(want.grid.total.interrupted, got.grid.total.interrupted);
  EXPECT_EQ(want.grid.total.total, got.grid.total.total);
  EXPECT_EQ(bits(want.grid.total.proportion()), bits(got.grid.total.proportion()));

  EXPECT_EQ(bits(want.app_interruptions_within_hour),
            bits(got.app_interruptions_within_hour));
  EXPECT_EQ(want.app_interruptions_wide_long, got.app_interruptions_wide_long);

  for (std::size_t cat = 0; cat < 2; ++cat) {
    const core::FeatureRanking& w = want.features[cat];
    const core::FeatureRanking& g = got.features[cat];
    EXPECT_EQ(w.unreliable_midplanes, g.unreliable_midplanes) << "cat " << cat;
    EXPECT_EQ(w.suspicious_users, g.suspicious_users) << "cat " << cat;
    EXPECT_EQ(w.suspicious_projects, g.suspicious_projects) << "cat " << cat;
    EXPECT_EQ(bits(w.suspicious_user_coverage), bits(g.suspicious_user_coverage));
    EXPECT_EQ(bits(w.suspicious_project_coverage), bits(g.suspicious_project_coverage));
    ASSERT_EQ(w.ranked.size(), g.ranked.size());
    for (std::size_t i = 0; i < w.ranked.size(); ++i) {
      EXPECT_EQ(w.ranked[i].name, g.ranked[i].name) << "cat " << cat << " rank " << i;
      EXPECT_EQ(bits(w.ranked[i].info_gain), bits(g.ranked[i].info_gain))
          << "cat " << cat << " feature " << w.ranked[i].name;
      EXPECT_EQ(bits(w.ranked[i].split_info), bits(g.ranked[i].split_info))
          << "cat " << cat << " feature " << w.ranked[i].name;
      EXPECT_EQ(bits(w.ranked[i].gain_ratio), bits(g.ranked[i].gain_ratio))
          << "cat " << cat << " feature " << w.ranked[i].name;
    }
  }
}

// ---------------------------------------------------------------------------

// Generation dominates these tests; cache per seed (generation is
// deterministic, and nothing mutates the logs).
const synth::SynthResult& scenario(std::uint64_t seed) {
  static std::map<std::uint64_t, synth::SynthResult> cache;
  auto it = cache.find(seed);
  if (it == cache.end()) {
    it = cache.emplace(seed, synth::generate(synth::small_scenario(seed, 60))).first;
  }
  return it->second;
}

core::CoAnalysisResult run_streaming(std::uint64_t seed) {
  const synth::SynthResult& data = scenario(seed);
  return core::run_coanalysis(data.ras, data.jobs);
}

/// The characterization stages on the frozen oracle's filter/match output.
core::CoAnalysisResult run_batch(std::uint64_t seed) {
  const synth::SynthResult& data = scenario(seed);
  return oracle::run_coanalysis(data.ras, data.jobs);
}

// Run every frozen reference stage on the front end's own filter/match
// output and require exact agreement with the columnar results it shipped.
void expect_matches_reference(const joblog::JobLog& jobs, const core::CoAnalysisResult& r) {
  const core::ClassificationResult cls =
      refimpl::ref_classify(r.filtered, r.matches, r.identification, jobs);
  expect_classification_eq(cls, r.classification);

  expect_jobfilter_eq(refimpl::ref_jobfilter(r.filtered, r.matches, cls, jobs),
                      r.job_filter);
  expect_propagation_eq(refimpl::ref_propagation(r.filtered, r.matches, jobs),
                        r.propagation);
  expect_vulnerability_eq(refimpl::ref_vulnerability(r.filtered, r.matches, cls, jobs),
                          r.vulnerability);
}

void expect_matches_reference(std::uint64_t seed, const core::CoAnalysisResult& r) {
  expect_matches_reference(scenario(seed).jobs, r);
}

TEST(CharacterizationDifferential, StreamingEngineAcrossSeeds) {
  for (const std::uint64_t seed : {3ull, 17ull, 29ull}) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    expect_matches_reference(seed, run_streaming(seed));
  }

  // A short BG/Q pack: a different size ladder (64- and 96-midplane jobs
  // land on other Table VI rows than on BG/P) and rack-level groups.
  {
    SCOPED_TRACE("bgq failure_storm");
    const synth::SynthResult data =
        synth::generate(synth::pack_scenario(machine::bgq_model(), "failure_storm", 5, 10));
    const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
    bool off_bgp_row = false;
    for (const joblog::JobRecord& job : data.jobs) {
      const int size = job.size_midplanes();
      if (core::size_row(size, machine::bgq_model()) !=
          core::size_row(size, machine::bgp_model())) {
        off_bgp_row = true;
      }
    }
    EXPECT_TRUE(off_bgp_row);
    bool rack_group = false;
    for (const filter::EventGroup& g : r.filtered.groups) {
      if (r.filtered.fatal_events[g.rep].location.kind() == bgp::LocationKind::Rack) {
        rack_group = true;
      }
    }
    EXPECT_TRUE(rack_group);
    expect_matches_reference(data.jobs, r);
  }

  // A BG/P failure storm: long resubmission chains with consecutive
  // interruptions, the Fig. 7 k = 2 and k = 3 tallies.
  {
    SCOPED_TRACE("bgp failure_storm");
    const synth::SynthResult data =
        synth::generate(synth::pack_scenario(machine::bgp_model(), "failure_storm", 9, 14));
    const core::CoAnalysisResult r = core::run_coanalysis(data.ras, data.jobs);
    const core::ResubmissionStats& sys = r.vulnerability.resubmission[0];
    EXPECT_GT(sys.by_k[1].resubmissions + sys.by_k[2].resubmissions, 0u);
    expect_matches_reference(data.jobs, r);
  }

  // A log with no interruptions: the hardware never failed fatally, so
  // every category is empty (cat_total = 0) and every label is negative.
  {
    SCOPED_TRACE("no interruptions");
    const synth::SynthResult& data = scenario(17);
    std::vector<ras::RasEvent> nonfatal;
    for (const ras::RasEvent& ev : data.ras) {
      if (!ev.is_fatal()) nonfatal.push_back(ev);
    }
    const ras::RasLog quiet(std::move(nonfatal), data.ras.catalog(), data.ras.machine());
    const core::CoAnalysisResult r = core::run_coanalysis(quiet, data.jobs);
    EXPECT_EQ(r.interruption_count(), 0u);
    expect_matches_reference(data.jobs, r);
  }

  // Every interrupting code classified as an application error: Table VI
  // loses every interrupted job, and the category-2 ranking carries all
  // the positives.
  {
    SCOPED_TRACE("all interruptions application errors");
    const synth::SynthResult& data = scenario(17);
    const core::CoAnalysisResult r = run_streaming(17);
    ASSERT_GT(r.interruption_count(), 0u);
    core::ClassificationResult all_app = r.classification;
    for (const core::Interruption& in : r.matches.interruptions) {
      const ras::ErrcodeId code =
          r.filtered.fatal_events[r.filtered.groups[in.group].rep].errcode;
      all_app.by_code[code] = {core::Cause::ApplicationError,
                               core::CauseRule::FollowsResubmission, 0};
    }
    const core::VulnerabilityResult got =
        core::analyze_vulnerability(r.filtered, r.matches, all_app, data.jobs,
                                    core::build_char_columns(r.filtered, r.matches, data.jobs));
    EXPECT_EQ(got.grid.total.interrupted, 0u);
    expect_vulnerability_eq(
        refimpl::ref_vulnerability(r.filtered, r.matches, all_app, data.jobs), got);
  }
}

TEST(CharacterizationDifferential, BatchEngine) {
  expect_matches_reference(17, run_batch(17));
}

TEST(CharacterizationDifferential, ThreadedPathIsDeterministic) {
  // The columnar stages run serially; that one path must equal the frozen
  // references.
  expect_matches_reference(17, run_streaming(17));
}

TEST(CharacterizationDifferential, EnginesAgreeOnEveryStatistic) {
  const core::CoAnalysisResult streaming = run_streaming(17);
  const core::CoAnalysisResult batch = run_batch(17);
  expect_classification_eq(batch.classification, streaming.classification);
  expect_jobfilter_eq(batch.job_filter, streaming.job_filter);
  expect_propagation_eq(batch.propagation, streaming.propagation);
  expect_vulnerability_eq(batch.vulnerability, streaming.vulnerability);
}

// ---------------------------------------------------------------------------
// size_row regression: BG/Q's 96-midplane (full-machine) jobs are off the
// BG/P Table VI ladder. The calibrated BG/Q packs at their golden seeds
// happen never to draw one, which is how the old throwing size_row survived
// the end-to-end pack tests — so force the draw here.

TEST(BgqVulnerability, OffBgpLadderJobSizeCompletesEndToEnd) {
  synth::ScenarioConfig config = synth::base_scenario(machine::bgq_model(), 11, 7);
  config.workload.target_submissions = 1500;
  ASSERT_EQ(config.workload.job_sizes.back(), 96);
  config.workload.size_weights.back() = 1e5;  // make 96-midplane jobs dominant
  const synth::SynthResult data = synth::generate(config);

  bool has_full_machine = false;
  for (const joblog::JobRecord& job : data.jobs) {
    if (job.size_midplanes() == 96) has_full_machine = true;
  }
  ASSERT_TRUE(has_full_machine);

  // Previously threw InvalidArgument("not a Table VI job size: 96") inside
  // analyze_vulnerability; must now complete and bucket 96 into the last
  // row of the BG/Q ladder {1,2,4,8,16,32,64,96}.
  const core::CoAnalysisResult result = core::run_coanalysis(data.ras, data.jobs);
  EXPECT_EQ(core::size_row(96, machine::bgq_model()), 7);
  EXPECT_GT(result.vulnerability.grid.row_sums[7].total, 0u);
  EXPECT_EQ(result.vulnerability.grid.total.total,
            result.vulnerability.grid.row_sums[0].total +
                result.vulnerability.grid.row_sums[1].total +
                result.vulnerability.grid.row_sums[2].total +
                result.vulnerability.grid.row_sums[3].total +
                result.vulnerability.grid.row_sums[4].total +
                result.vulnerability.grid.row_sums[5].total +
                result.vulnerability.grid.row_sums[6].total +
                result.vulnerability.grid.row_sums[7].total +
                result.vulnerability.grid.row_sums[8].total);
}

// ---------------------------------------------------------------------------
// unreliable_midplane_count out of range. A count past the machine used to
// pad the list with midplane 0 (100 on BG/P listed it 21 times), and a
// negative count converted to a huge size.

TEST(VulnerabilityConfig, UnreliableMidplaneCountCapsAtMachineSize) {
  const core::CoAnalysisResult r = run_streaming(17);
  const joblog::JobLog& jobs = scenario(17).jobs;
  const auto n_midplanes = static_cast<std::size_t>(jobs.machine().midplane_count());
  core::VulnerabilityConfig all, beyond;
  all.unreliable_midplane_count = static_cast<int>(n_midplanes);
  beyond.unreliable_midplane_count = 100;
  const core::CharColumns cols = core::build_char_columns(r.filtered, r.matches, jobs);
  const core::VulnerabilityResult want =
      core::analyze_vulnerability(r.filtered, r.matches, r.classification, jobs, cols, all);
  const core::VulnerabilityResult got =
      core::analyze_vulnerability(r.filtered, r.matches, r.classification, jobs, cols, beyond);
  for (const core::FeatureRanking& f : got.features) {
    ASSERT_EQ(f.unreliable_midplanes.size(), n_midplanes);
    std::vector<bgp::MidplaneId> sorted = f.unreliable_midplanes;
    std::sort(sorted.begin(), sorted.end());
    for (std::size_t m = 0; m < n_midplanes; ++m) {
      EXPECT_EQ(sorted[m], static_cast<bgp::MidplaneId>(m));  // each midplane once
    }
  }
  expect_vulnerability_eq(want, got);
}

TEST(VulnerabilityConfig, NegativeUnreliableMidplaneCountThrows) {
  const core::CoAnalysisResult r = run_streaming(17);
  core::VulnerabilityConfig config;
  config.unreliable_midplane_count = -1;
  const joblog::JobLog& jobs = scenario(17).jobs;
  EXPECT_THROW(core::analyze_vulnerability(r.filtered, r.matches, r.classification, jobs,
                                           core::build_char_columns(r.filtered, r.matches, jobs),
                                           config),
               InvalidArgument);
}

}  // namespace
