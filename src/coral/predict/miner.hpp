#pragma once

#include "coral/context.hpp"
#include "coral/core/characterization.hpp"
#include "coral/core/identification.hpp"
#include "coral/predict/rules.hpp"

namespace coral::core {
struct CoAnalysisResult;
}

namespace coral::predict {

/// Mining thresholds. The defaults are tuned on the calibrated injector
/// scenarios: a 2 h window brackets both the persistent-fault re-hit chain
/// (repair takes hours, re-hits minutes apart) and storm cascades, and
/// 0.7 confidence is the precision floor the evaluation harness gates on.
struct MinerConfig {
  /// Max precursor -> target distance for a co-occurrence to count.
  Usec window = 2 * kUsecPerHour;
  /// Minimum supporting co-occurrences for a rule to be emitted.
  std::uint32_t min_support = 3;
  /// Minimum support / precursor_count for a machine-wide rule.
  double min_confidence = 0.7;
  /// Minimum support / precursor_count for a midplane-scoped rule. Lower on
  /// purpose: a midplane alarm costs one midplane's drain, so it is worth
  /// raising at confidences where a machine-wide alarm would cry wolf —
  /// and the machine-wide co-occurrence count is inflated by degraded-state
  /// bursts, so the same 0.7 bar would drown every localized chain.
  double min_confidence_mid = 0.35;
  /// Only emit rules whose target the identification step labelled
  /// InterruptionRelated (Observation 1: alarming on benign or idle-biased
  /// codes wastes every proactive action). Off mines all fatal targets.
  bool restrict_targets = true;
  /// Keep at most this many rules, highest-support first (0 = unlimited).
  std::size_t max_rules = 0;
};

/// Mine correlation rules from the filtered fatal groups (columnar walk over
/// `cols.group_time/group_code/group_loc`). For every precursor occurrence
/// the scan looks `config.window` ahead and counts, once per occurrence, the
/// target codes that follow — machine-wide and on the same midplane — then
/// emits every (precursor, target) pair whose support and confidence clear
/// the thresholds. Same-midplane rules win over machine-wide ones for a
/// pair (the actionable scope); a machine-wide rule is emitted only when the
/// midplane-scoped one fails the thresholds.
///
/// Deterministic: one serial scan of integer counts, and rule order is
/// (precursor, target) ascending.
RuleTable mine_rules(const core::CharColumns& cols,
                     const core::IdentificationResult& identification,
                     const ras::Catalog& catalog, const MinerConfig& config = {});

/// Convenience overload for callers holding a finished co-analysis: gathers
/// the shared columns and mines with the context's catalog.
RuleTable mine_rules(const core::CoAnalysisResult& analysis, const joblog::JobLog& jobs,
                     const MinerConfig& config = {}, const Context& ctx = {});

}  // namespace coral::predict
