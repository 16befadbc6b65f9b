#include "coral/predict/miner.hpp"

#include <algorithm>
#include <mutex>

#include "coral/common/error.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/machine/codec.hpp"

namespace coral::predict {

namespace {

/// Same-midplane test on packed loc keys: rack and midplane-within-rack
/// fields equal, ignoring kind/card/sub (a node card and a compute card on
/// one midplane co-locate). Rack-level keys have no midplane field, so
/// either side being rack-level degrades the test to same-rack — the rack
/// touches all of its midplanes.
bool same_zone(std::uint32_t a, std::uint32_t b) {
  using machine::LocCodec;
  if (LocCodec::is_rack(a) || LocCodec::is_rack(b)) {
    return LocCodec::rack_of(a) == LocCodec::rack_of(b);
  }
  return ((a ^ b) & 0x00FFF000u) == 0;
}

}  // namespace

RuleTable mine_rules(const core::CharColumns& cols,
                     const core::IdentificationResult& identification,
                     const ras::Catalog& catalog, const MinerConfig& config,
                     par::ThreadPool* pool) {
  CORAL_EXPECTS(config.window > 0);
  const std::size_t n = cols.group_count();

  // Dense fatal-code remap: group codes are all FATAL (the filter pipeline
  // only groups fatal records), so the co-occurrence matrices are F x F,
  // not catalog-size squared.
  const auto fatal = catalog.fatal_ids();
  const std::size_t f = fatal.size();
  std::vector<std::int32_t> dense(catalog.size(), -1);
  for (std::size_t i = 0; i < f; ++i) dense[static_cast<std::size_t>(fatal[i])] = static_cast<std::int32_t>(i);

  // Global integer accumulators; per-chunk partials are summed under a lock,
  // so the totals are independent of chunking and thread count.
  std::vector<std::uint32_t> occurrences(f, 0);
  std::vector<std::uint32_t> support_mid(f * f, 0);
  std::vector<std::uint32_t> support_mach(f * f, 0);
  std::mutex merge_mu;

  par::parallel_for_chunks(
      n, 256,
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> occ(f, 0);
        std::vector<std::uint32_t> mid(f * f, 0);
        std::vector<std::uint32_t> mach(f * f, 0);
        // Generation-stamped markers: first occurrence of a target per
        // precursor occurrence counts once, per scope.
        std::vector<std::uint32_t> seen_mid(f, 0);
        std::vector<std::uint32_t> seen_mach(f, 0);
        std::uint32_t stamp = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const auto p = dense[static_cast<std::size_t>(cols.group_code[i])];
          if (p < 0) continue;
          ++occ[static_cast<std::size_t>(p)];
          ++stamp;
          const TimePoint t = cols.group_time[i];
          const std::uint32_t loc = cols.group_loc[i];
          const std::size_t row = static_cast<std::size_t>(p) * f;
          for (std::size_t j = i + 1; j < n && cols.group_time[j] - t <= config.window; ++j) {
            const auto q = dense[static_cast<std::size_t>(cols.group_code[j])];
            if (q < 0) continue;
            const auto qi = static_cast<std::size_t>(q);
            if (seen_mach[qi] != stamp) {
              seen_mach[qi] = stamp;
              ++mach[row + qi];
            }
            if (seen_mid[qi] != stamp && same_zone(loc, cols.group_loc[j])) {
              seen_mid[qi] = stamp;
              ++mid[row + qi];
            }
          }
        }
        std::lock_guard<std::mutex> lock(merge_mu);
        for (std::size_t k = 0; k < f; ++k) occurrences[k] += occ[k];
        for (std::size_t k = 0; k < f * f; ++k) {
          support_mid[k] += mid[k];
          support_mach[k] += mach[k];
        }
      },
      pool);

  RuleTable table;
  for (std::size_t pi = 0; pi < f; ++pi) {
    const std::uint32_t count = occurrences[pi];
    if (count == 0) continue;
    const double floor_mach = config.min_confidence * static_cast<double>(count);
    const double floor_mid = config.min_confidence_mid * static_cast<double>(count);
    for (std::size_t ti = 0; ti < f; ++ti) {
      if (config.restrict_targets) {
        const auto it = identification.verdicts.find(fatal[ti]);
        if (it == identification.verdicts.end() ||
            it->second != core::ErrcodeVerdict::InterruptionRelated)
          continue;
      }
      Rule r;
      r.precursor = fatal[pi];
      r.target = fatal[ti];
      r.window = config.window;
      r.precursor_count = count;
      const std::uint32_t mid = support_mid[pi * f + ti];
      const std::uint32_t mach = support_mach[pi * f + ti];
      // The midplane-scoped rule is the actionable one; fall back to the
      // machine-wide rule only when same-midplane support is too thin.
      if (mid >= config.min_support && static_cast<double>(mid) >= floor_mid) {
        r.scope = RuleScope::Midplane;
        r.support = mid;
      } else if (mach >= config.min_support && static_cast<double>(mach) >= floor_mach) {
        r.scope = RuleScope::Machine;
        r.support = mach;
      } else {
        continue;
      }
      table.rules.push_back(r);
    }
  }

  if (config.max_rules > 0 && table.rules.size() > config.max_rules) {
    std::stable_sort(table.rules.begin(), table.rules.end(),
                     [](const Rule& a, const Rule& b) { return a.support > b.support; });
    table.rules.resize(config.max_rules);
    std::sort(table.rules.begin(), table.rules.end(), [](const Rule& a, const Rule& b) {
      if (a.precursor != b.precursor) return a.precursor < b.precursor;
      return a.target < b.target;
    });
  }
  return table;
}

RuleTable mine_rules(const core::CoAnalysisResult& analysis, const joblog::JobLog& jobs,
                     const MinerConfig& config, const Context& ctx) {
  obs::Span span(ctx.obs(), "predict.mine");
  const core::CharColumns cols =
      core::build_char_columns(analysis.filtered, analysis.matches, jobs, ctx.pool());
  RuleTable table =
      mine_rules(cols, analysis.identification, ctx.catalog(), config, ctx.pool());
  span.counts(cols.group_count(), table.rules.size());
  CORAL_OBS_COUNT(ctx.obs(), "predict.rules_mined", table.rules.size());
  return table;
}

}  // namespace coral::predict
