#include "coral/core/classification.hpp"

#include <algorithm>
#include <span>

#include "coral/stats/correlation.hpp"

namespace coral::core {

const char* to_string(Cause c) {
  return c == Cause::SystemFailure ? "system failure" : "application error";
}

const char* to_string(CauseRule r) {
  switch (r) {
    case CauseRule::NeverWithJob: return "never observed with a job";
    case CauseRule::RepeatSameLocation: return "repeats at the same location";
    case CauseRule::FollowsResubmission: return "follows the resubmitted executable";
    case CauseRule::CorrelationFallback: return "correlation with labeled codes";
  }
  return "?";
}

int ClassificationResult::system_type_count() const {
  int n = 0;
  for (const auto& [code, cc] : by_code) n += cc.cause == Cause::SystemFailure ? 1 : 0;
  return n;
}

int ClassificationResult::application_type_count() const {
  int n = 0;
  for (const auto& [code, cc] : by_code) n += cc.cause == Cause::ApplicationError ? 1 : 0;
  return n;
}

namespace {

/// Interruptions bucketed by errcode, SoA. matches.interruptions are ordered
/// by job end time (= the observation time), so the stable counting scatter
/// leaves every bucket time-ordered — the order rules 2 and 3 scan in.
struct ObsBuckets {
  std::vector<ras::ErrcodeId> codes;  ///< ascending, one per non-empty bucket
  std::vector<std::uint32_t> offset;  ///< codes.size() + 1 CSR offsets
  std::vector<TimePoint> time;
  std::vector<joblog::ExecId> exec;
  std::vector<std::int32_t> part_first;
  std::vector<std::int32_t> part_end;
  std::vector<std::uint32_t> loc;  ///< representative (fault) location key

  std::ptrdiff_t find(ras::ErrcodeId code) const {
    const auto it = std::lower_bound(codes.begin(), codes.end(), code);
    return it != codes.end() && *it == code ? it - codes.begin() : -1;
  }
};

ObsBuckets bucket_interruptions(const MatchResult& matches, const joblog::JobLog& jobs,
                                const CharColumns& cols) {
  ObsBuckets b;
  const std::size_t n = matches.interruptions.size();
  if (n == 0) {
    b.offset.assign(1, 0);
    return b;
  }
  std::vector<ras::ErrcodeId> code_of(n);
  ras::ErrcodeId max_code = 0;
  for (std::size_t i = 0; i < n; ++i) {
    code_of[i] = cols.group_code[matches.interruptions[i].group];
    max_code = std::max(max_code, code_of[i]);
  }
  std::vector<std::int32_t> bucket_of(static_cast<std::size_t>(max_code) + 1, -1);
  for (const ras::ErrcodeId c : code_of) bucket_of[static_cast<std::size_t>(c)] = 0;
  for (std::size_t c = 0; c < bucket_of.size(); ++c) {
    if (bucket_of[c] < 0) continue;
    bucket_of[c] = static_cast<std::int32_t>(b.codes.size());
    b.codes.push_back(static_cast<ras::ErrcodeId>(c));
  }
  b.offset.assign(b.codes.size() + 1, 0);
  for (const ras::ErrcodeId c : code_of) {
    b.offset[static_cast<std::size_t>(bucket_of[static_cast<std::size_t>(c)]) + 1] += 1;
  }
  for (std::size_t i = 0; i < b.codes.size(); ++i) b.offset[i + 1] += b.offset[i];
  b.time.resize(n);
  b.exec.resize(n);
  b.part_first.resize(n);
  b.part_end.resize(n);
  b.loc.resize(n);
  const joblog::JobColumns& jc = jobs.columns();
  std::vector<std::uint32_t> cursor(b.offset.begin(), b.offset.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const Interruption& in = matches.interruptions[i];
    const std::uint32_t at = cursor[static_cast<std::size_t>(
        bucket_of[static_cast<std::size_t>(code_of[i])])]++;
    b.time[at] = in.time;
    b.exec[at] = jobs[in.job].exec_id;
    b.part_first[at] = jc.part_first[in.job];
    b.part_end[at] = jc.part_end[in.job];
    b.loc[at] = cols.group_loc[in.group];
  }
  return b;
}

/// Group representative times bucketed by errcode (CSR over *all* groups, in
/// group order = time order), for the rule-4 per-code series.
struct GroupTimeBuckets {
  std::vector<ras::ErrcodeId> codes;
  std::vector<std::uint32_t> offset;
  std::vector<TimePoint> time;

  std::span<const TimePoint> times_of(ras::ErrcodeId code) const {
    const auto it = std::lower_bound(codes.begin(), codes.end(), code);
    if (it == codes.end() || *it != code) return {};
    const std::size_t i = static_cast<std::size_t>(it - codes.begin());
    return {time.data() + offset[i], offset[i + 1] - offset[i]};
  }
};

GroupTimeBuckets bucket_group_times(const CharColumns& cols) {
  GroupTimeBuckets b;
  const std::size_t n = cols.group_count();
  if (n == 0) {
    b.offset.assign(1, 0);
    return b;
  }
  ras::ErrcodeId max_code = 0;
  for (const ras::ErrcodeId c : cols.group_code) max_code = std::max(max_code, c);
  std::vector<std::int32_t> bucket_of(static_cast<std::size_t>(max_code) + 1, -1);
  for (const ras::ErrcodeId c : cols.group_code) bucket_of[static_cast<std::size_t>(c)] = 0;
  for (std::size_t c = 0; c < bucket_of.size(); ++c) {
    if (bucket_of[c] < 0) continue;
    bucket_of[c] = static_cast<std::int32_t>(b.codes.size());
    b.codes.push_back(static_cast<ras::ErrcodeId>(c));
  }
  b.offset.assign(b.codes.size() + 1, 0);
  for (const ras::ErrcodeId c : cols.group_code) {
    b.offset[static_cast<std::size_t>(bucket_of[static_cast<std::size_t>(c)]) + 1] += 1;
  }
  for (std::size_t i = 0; i < b.codes.size(); ++i) b.offset[i + 1] += b.offset[i];
  b.time.resize(n);
  std::vector<std::uint32_t> cursor(b.offset.begin(), b.offset.end() - 1);
  for (std::size_t g = 0; g < n; ++g) {
    b.time[cursor[static_cast<std::size_t>(
        bucket_of[static_cast<std::size_t>(cols.group_code[g])])]++] = cols.group_time[g];
  }
  return b;
}

}  // namespace

ClassificationResult classify_causes(const filter::FilterPipelineResult& filtered,
                                     const MatchResult& matches,
                                     const IdentificationResult& identification,
                                     const joblog::JobLog& jobs, const CharColumns& cols,
                                     const ClassificationConfig& config,
                                     par::ThreadPool* pool) {
  ClassificationResult result;

  const ObsBuckets obs = bucket_interruptions(matches, jobs, cols);
  const joblog::JobColumns& jc = jobs.columns();

  // --- Rules 1–3, one independent verdict per errcode --------------------
  // The codes are independent of each other, so they fan over the pool; the
  // outcomes land in an index-addressed array and merge serially in map
  // (ascending-code) order, keeping the result deterministic.
  std::vector<ras::ErrcodeId> vcode;
  std::vector<ErrcodeVerdict> vview;
  vcode.reserve(identification.verdicts.size());
  vview.reserve(identification.verdicts.size());
  for (const auto& [code, verdict] : identification.verdicts) {
    vcode.push_back(code);
    vview.push_back(verdict);
  }
  enum : std::uint8_t { kNone = 0, kRule1, kRule2, kRule3 };
  std::vector<std::uint8_t> outcome(vcode.size(), kNone);

  par::parallel_for_chunks(vcode.size(), 8, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t c = lo; c < hi; ++c) {
      const std::ptrdiff_t bi = obs.find(vcode[c]);
      if (bi < 0) {
        // Rule 1: only observed on idle hardware → system failure.
        if (vview[c] == ErrcodeVerdict::Undetermined) outcome[c] = kRule1;
        continue;  // non-fatal-to-jobs; resolved by the correlation pass
      }
      const std::size_t vb = obs.offset[static_cast<std::size_t>(bi)];
      const std::size_t ve = obs.offset[static_cast<std::size_t>(bi) + 1];

      // Rule 2: interruptions of different jobs of *different executables*
      // reported from the *same hardware location* → the scheduler kept
      // assigning the failed nodes → system. (Distinct executables separate
      // this from a user resubmitting a buggy code to the same partition;
      // comparing fault locations rather than job partitions keeps a
      // propagating shared-file-system error from looking like node repeats.)
      bool same_location_repeat = false;
      for (std::size_t i = vb; i + 1 < ve && !same_location_repeat; ++i) {
        for (std::size_t k = i + 1; k < ve; ++k) {
          if (obs.time[k] - obs.time[i] > config.same_location_horizon) break;
          if (obs.exec[k] != obs.exec[i] && obs.loc[k] == obs.loc[i]) {
            same_location_repeat = true;
            break;
          }
        }
      }

      // Rule 3 (Fig. 2): the same executable is interrupted by the same code
      // at a *different* location, while the original location later hosts an
      // untroubled job → the error travels with the code, not the nodes.
      int follow_evidence = 0;
      for (std::size_t i = vb; i < ve; ++i) {
        bool found_for_i = false;
        for (std::size_t k = i + 1; k < ve && !found_for_i; ++k) {
          if (obs.time[k] - obs.time[i] > config.follow_gap) break;
          if (obs.exec[k] != obs.exec[i]) continue;
          if (obs.part_first[i] < obs.part_end[k] && obs.part_first[k] < obs.part_end[i]) {
            continue;  // same nodes — not the travelling pattern
          }
          // (b) an untroubled job ran on the original partition in between
          // (it must start inside the gap; it may still be running at the
          // second interruption — Fig. 2's "job 2 has no interruption").
          // Jobs are start-ordered, so the window is one binary search plus
          // a contiguous scan that skips the interrupted jobs.
          const std::size_t sb = static_cast<std::size_t>(
              std::upper_bound(jc.start.begin(), jc.start.end(), obs.time[i]) -
              jc.start.begin());
          for (std::size_t s = sb; s < jc.size() && jc.start[s] < obs.time[k]; ++s) {
            if (jc.part_first[s] < obs.part_end[i] && obs.part_first[i] < jc.part_end[s] &&
                cols.job_group[s] < 0) {
              found_for_i = true;
              break;
            }
          }
        }
        if (found_for_i) ++follow_evidence;
      }

      // The follows-the-executable evidence is the stronger signal: a code
      // that travels with a resubmitted binary while its old nodes stay
      // healthy cannot be a hardware fault, whereas a shared-resource
      // application error can coincidentally repeat at one location.
      if (follow_evidence >= config.min_follow_evidence) {
        outcome[c] = kRule3;
      } else if (same_location_repeat) {
        outcome[c] = kRule2;
      }
      // else: unlabeled, falls through to the correlation pass.
    }
  }, pool);

  for (std::size_t c = 0; c < vcode.size(); ++c) {
    switch (outcome[c]) {
      case kRule1:
        result.by_code[vcode[c]] = {Cause::SystemFailure, CauseRule::NeverWithJob, 0};
        break;
      case kRule2:
        result.by_code[vcode[c]] = {Cause::SystemFailure, CauseRule::RepeatSameLocation, 0};
        break;
      case kRule3:
        result.by_code[vcode[c]] = {Cause::ApplicationError, CauseRule::FollowsResubmission, 0};
        break;
      default: break;
    }
  }

  // --- Rule 4: Pearson-correlation fallback ------------------------------
  // Build aggregate time series of the already-labeled categories and
  // correlate each unlabeled code's event times against them.
  if (!filtered.fatal_events.empty()) {
    const TimePoint begin = filtered.fatal_events.front().event_time;
    const TimePoint end = filtered.fatal_events.back().event_time + 1;

    std::vector<TimePoint> sys_times, app_times;
    for (std::size_t g = 0; g < cols.group_count(); ++g) {
      const auto cit = result.by_code.find(cols.group_code[g]);
      if (cit == result.by_code.end()) continue;
      (cit->second.cause == Cause::SystemFailure ? sys_times : app_times)
          .push_back(cols.group_time[g]);
    }
    const GroupTimeBuckets series = bucket_group_times(cols);

    std::vector<std::size_t> todo;
    for (std::size_t c = 0; c < vcode.size(); ++c) {
      if (result.by_code.find(vcode[c]) == result.by_code.end()) todo.push_back(c);
    }
    std::vector<Cause> cause(todo.size(), Cause::SystemFailure);
    std::vector<double> corr(todo.size(), 0.0);
    par::parallel_for_chunks(todo.size(), 4, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t t = lo; t < hi; ++t) {
        const std::span<const TimePoint> times = series.times_of(vcode[todo[t]]);
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
        cause[t] = r_app > r_sys ? Cause::ApplicationError : Cause::SystemFailure;
        corr[t] = std::max(r_sys, r_app);
      }
    }, pool);
    for (std::size_t t = 0; t < todo.size(); ++t) {
      result.by_code[vcode[todo[t]]] = {cause[t], CauseRule::CorrelationFallback, corr[t]};
    }
  }

  // Event-level application fraction (Observation 2: 17.73%).
  if (cols.group_count() != 0) {
    std::size_t app_events = 0;
    for (const ras::ErrcodeId code : cols.group_code) {
      const auto cit = result.by_code.find(code);
      if (cit != result.by_code.end() && cit->second.cause == Cause::ApplicationError) {
        ++app_events;
      }
    }
    result.application_event_fraction =
        static_cast<double>(app_events) / static_cast<double>(cols.group_count());
  }
  return result;
}

ClassificationResult classify_causes(const filter::FilterPipelineResult& filtered,
                                     const MatchResult& matches,
                                     const IdentificationResult& identification,
                                     const joblog::JobLog& jobs,
                                     const ClassificationConfig& config) {
  return classify_causes(filtered, matches, identification, jobs,
                         build_char_columns(filtered, matches, jobs), config);
}

}  // namespace coral::core
