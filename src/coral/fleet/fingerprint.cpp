#include "coral/fleet/fingerprint.hpp"

#include <cstring>

namespace coral::fleet {

namespace {

/// FNV-1a 64, folded field-by-field so struct padding never leaks in.
class Fnv {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;
    }
  }
  template <typename T>
  void pod(T v) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&v, sizeof v);
  }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    pod(bits);
  }
  void str(std::string_view s) {
    pod(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ull;
};

void fold_event(Fnv& h, const ras::RasEvent& ev) {
  h.pod(ev.event_time.usec());
  h.pod(ev.location.packed());
  h.pod(static_cast<std::uint32_t>(ev.errcode));
  h.pod(ev.serial);
  h.pod(static_cast<std::uint8_t>(ev.severity));
}

void fold_job(Fnv& h, const joblog::JobRecord& j) {
  h.pod(j.job_id);
  h.pod(j.exec_id);
  h.pod(j.user_id);
  h.pod(j.project_id);
  h.pod(j.queue_time.usec());
  h.pod(j.start_time.usec());
  h.pod(j.end_time.usec());
  h.pod(j.partition.first_midplane());
  h.pod(j.partition.midplane_count());
  h.pod(j.exit_code);
}

void fold_fit(Fnv& h, const core::InterarrivalFit& fit) {
  h.pod(static_cast<std::uint64_t>(fit.samples_sec.size()));
  for (const double s : fit.samples_sec) h.f64(s);
  h.f64(fit.weibull.shape());
  h.f64(fit.weibull.scale());
  h.f64(fit.exponential.mean());
  h.f64(fit.lrt.statistic);
  h.f64(fit.lrt.p_value);
  h.pod(static_cast<std::uint8_t>(fit.lrt.weibull_preferred));
  h.f64(fit.ks_weibull);
  h.f64(fit.ks_exponential);
}

void fold_cell(Fnv& h, const core::GridCell& cell) {
  h.pod(static_cast<std::uint64_t>(cell.interrupted));
  h.pod(static_cast<std::uint64_t>(cell.total));
}

void fold_ints(Fnv& h, const std::vector<int>& values) {
  h.pod(static_cast<std::uint64_t>(values.size()));
  for (const int v : values) h.pod(v);
}

/// Every §VI-D statistic: Table VI with its margins, the Fig. 7 tallies
/// and both key-feature rankings.
void fold_vulnerability(Fnv& h, const core::VulnerabilityResult& v) {
  for (const auto& row : v.grid.cells) {
    for (const core::GridCell& cell : row) fold_cell(h, cell);
  }
  for (const core::GridCell& cell : v.grid.row_sums) fold_cell(h, cell);
  for (const core::GridCell& cell : v.grid.col_sums) fold_cell(h, cell);
  fold_cell(h, v.grid.total);
  for (const core::ResubmissionStats& rs : v.resubmission) {
    for (const auto& point : rs.by_k) {
      h.pod(static_cast<std::uint64_t>(point.resubmissions));
      h.pod(static_cast<std::uint64_t>(point.interrupted));
    }
    h.f64(rs.uncovered_at_k2);
  }
  for (const core::FeatureRanking& f : v.features) {
    h.pod(static_cast<std::uint64_t>(f.ranked.size()));
    for (const stats::GainScore& g : f.ranked) {
      h.str(g.name);
      h.f64(g.info_gain);
      h.f64(g.split_info);
      h.f64(g.gain_ratio);
    }
    fold_ints(h, f.suspicious_users);
    fold_ints(h, f.suspicious_projects);
    h.f64(f.suspicious_user_coverage);
    h.f64(f.suspicious_project_coverage);
    h.pod(static_cast<std::uint64_t>(f.unreliable_midplanes.size()));
    for (const bgp::MidplaneId m : f.unreliable_midplanes) h.pod(m);
  }
  h.f64(v.app_interruptions_within_hour);
  h.pod(static_cast<std::uint64_t>(v.app_interruptions_wide_long));
}

}  // namespace

std::uint64_t result_fingerprint(const core::CoAnalysisResult& r) {
  Fnv h;
  // Front end: filtered events + groups + mined pairs + stage census.
  h.pod(static_cast<std::uint64_t>(r.filtered.fatal_events.size()));
  for (const ras::RasEvent& ev : r.filtered.fatal_events) fold_event(h, ev);
  h.pod(static_cast<std::uint64_t>(r.filtered.groups.size()));
  for (const auto& g : r.filtered.groups) {
    h.pod(static_cast<std::uint64_t>(g.rep));
    h.pod(static_cast<std::uint64_t>(g.members.size()));
    for (const std::size_t m : g.members) h.pod(static_cast<std::uint64_t>(m));
  }
  for (const auto& [a, b] : r.filtered.causal_pairs) {
    h.pod(static_cast<std::uint32_t>(a));
    h.pod(static_cast<std::uint32_t>(b));
  }
  for (const auto& st : r.filtered.stages) {
    h.str(st.name);
    h.pod(static_cast<std::uint64_t>(st.input));
    h.pod(static_cast<std::uint64_t>(st.output));
  }
  // Matching.
  h.pod(static_cast<std::uint64_t>(r.matches.interruptions.size()));
  for (const auto& i : r.matches.interruptions) {
    h.pod(static_cast<std::uint64_t>(i.group));
    h.pod(static_cast<std::uint64_t>(i.job));
    h.pod(i.time.usec());
  }
  // Identification / classification / job filter.
  for (const auto& [code, verdict] : r.identification.verdicts) {
    h.pod(static_cast<std::uint32_t>(code));
    h.pod(static_cast<std::uint8_t>(verdict));
  }
  h.f64(r.identification.nonfatal_event_fraction);
  h.f64(r.identification.idle_event_fraction);
  for (const auto& [code, cc] : r.classification.by_code) {
    h.pod(static_cast<std::uint32_t>(code));
    h.pod(static_cast<std::uint8_t>(cc.cause));
    h.pod(static_cast<std::uint8_t>(cc.rule));
    h.f64(cc.correlation);
  }
  h.f64(r.classification.application_event_fraction);
  h.pod(static_cast<std::uint64_t>(r.job_filter.kept.size()));
  for (const std::size_t k : r.job_filter.kept) h.pod(static_cast<std::uint64_t>(k));
  for (const auto& [from, to] : r.job_filter.redundant_to) {
    h.pod(static_cast<std::uint64_t>(from));
    h.pod(static_cast<std::uint64_t>(to));
  }
  // Propagation + vulnerability.
  for (const std::size_t g : r.propagation.propagating_groups) {
    h.pod(static_cast<std::uint64_t>(g));
  }
  for (const auto code : r.propagation.propagating_codes) {
    h.pod(static_cast<std::uint32_t>(code));
  }
  h.f64(r.propagation.propagating_event_fraction);
  h.pod(static_cast<std::uint64_t>(r.propagation.resubmissions_after_interruption));
  h.pod(static_cast<std::uint64_t>(r.propagation.resubmissions_same_partition));
  fold_vulnerability(h, r.vulnerability);
  // Fits and the census vectors.
  fold_fit(h, r.fatal_before_jobfilter);
  fold_fit(h, r.fatal_after_jobfilter);
  fold_fit(h, r.interruptions_system);
  fold_fit(h, r.interruptions_application);
  h.pod(static_cast<std::uint64_t>(r.interruptions_per_day.size()));
  for (const int d : r.interruptions_per_day) h.pod(d);
  for (const double v : r.fatal_events_per_midplane) h.f64(v);
  for (const double v : r.workload_per_midplane) h.f64(v);
  for (const double v : r.wide_workload_per_midplane) h.f64(v);
  h.pod(static_cast<std::uint64_t>(r.system_interruptions));
  h.pod(static_cast<std::uint64_t>(r.application_interruptions));
  h.pod(static_cast<std::uint64_t>(r.distinct_interrupted_jobs));
  return h.value();
}

std::uint64_t log_fingerprint(const ras::RasLog& ras, const joblog::JobLog& jobs) {
  Fnv h;
  h.pod(static_cast<std::uint64_t>(ras.size()));
  for (const ras::RasEvent& ev : ras) fold_event(h, ev);
  h.pod(static_cast<std::uint64_t>(jobs.size()));
  for (const joblog::JobRecord& j : jobs) fold_job(h, j);
  h.pod(static_cast<std::uint64_t>(jobs.exec_files().size()));
  for (const std::string& s : jobs.exec_files()) h.str(s);
  for (const std::string& s : jobs.users()) h.str(s);
  for (const std::string& s : jobs.projects()) h.str(s);
  return h.value();
}

}  // namespace coral::fleet
