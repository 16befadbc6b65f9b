#include "coral/predict/predictor.hpp"

#include <algorithm>

namespace coral::predict {

namespace {

/// Build a CSR bucketing of rule indices by code. `key_of` selects the
/// bucketed field; codes beyond any rule's key simply get empty buckets.
void build_csr(const std::vector<Rule>& rules, bool by_target,
               std::vector<std::uint32_t>& offsets, std::vector<std::uint32_t>& items) {
  ras::ErrcodeId max_code = -1;
  for (const Rule& r : rules) max_code = std::max(max_code, by_target ? r.target : r.precursor);
  offsets.assign(static_cast<std::size_t>(max_code) + 2, 0);
  for (const Rule& r : rules) ++offsets[static_cast<std::size_t>(by_target ? r.target : r.precursor) + 1];
  for (std::size_t i = 1; i < offsets.size(); ++i) offsets[i] += offsets[i - 1];
  items.resize(rules.size());
  std::vector<std::uint32_t> cursor(offsets.begin(), offsets.end() - 1);
  for (std::uint32_t i = 0; i < rules.size(); ++i) {
    const auto code = static_cast<std::size_t>(by_target ? rules[i].target : rules[i].precursor);
    items[cursor[code]++] = i;
  }
}

}  // namespace

Predictor::Predictor(const RuleTable& table, const machine::MachineModel& machine,
                     obs::Collector* collector)
    : table_(&table), machine_(&machine), obs_(collector), active_(table.rules.size()) {
  if (!table.rules.empty()) {
    build_csr(table.rules, /*by_target=*/false, by_precursor_offset_, by_precursor_rule_);
    build_csr(table.rules, /*by_target=*/true, by_target_offset_, by_target_rule_);
  }
  for (const Rule& r : table.rules) {
    for (const ras::ErrcodeId code : {r.precursor, r.target}) {
      const auto c = static_cast<std::size_t>(code);
      if (c >= named_.size()) named_.resize(c + 1, 0);
      named_[c] = 1;
    }
  }
}

void Predictor::fire(std::uint32_t rule_index, std::int32_t zone, TimePoint t) {
  auto& acts = active_[rule_index];
  std::erase_if(acts, [&](const Active& a) { return predictions_[a.pred].expires < t; });
  for (const Active& a : acts) {
    if (a.zone == zone) {
      ++suppressed_;
      CORAL_OBS_COUNT(obs_, "predict.suppressed", 1);
      return;
    }
  }
  Prediction p;
  p.rule = rule_index;
  p.issued = t;
  p.expires = t + table_->rules[rule_index].window;
  p.midplane = zone;
  acts.push_back(Active{zone, static_cast<std::uint32_t>(predictions_.size()), false});
  predictions_.push_back(p);
  ++issued_;
  CORAL_OBS_COUNT(obs_, "predict.issued", 1);
}

void Predictor::on_named_record(const ras::RasEvent& event) {
  const auto code = static_cast<std::size_t>(event.errcode);
  const TimePoint t = event.event_time;
  const std::uint32_t key = event.location.packed();

  // 1. Score hits: the record fulfils every still-active prediction whose
  //    rule targets this code and whose zone covers the location. Processed
  //    before firing, so a self-rule's own trigger never scores its alarm.
  if (code + 1 < by_target_offset_.size()) {
    for (std::uint32_t k = by_target_offset_[code]; k < by_target_offset_[code + 1]; ++k) {
      auto& acts = active_[by_target_rule_[k]];
      std::erase_if(acts, [&](const Active& a) { return predictions_[a.pred].expires < t; });
      for (Active& a : acts) {
        const Prediction& p = predictions_[a.pred];
        if (!a.hit && p.issued < t && zone_covers(machine_->codec(), a.zone, key)) {
          a.hit = true;
          ++hits_;
          CORAL_OBS_COUNT(obs_, "predict.hits", 1);
          CORAL_OBS_VALUE(obs_, "predict.lead_minutes",
                          static_cast<double>(t - p.issued) / static_cast<double>(kUsecPerMin));
        }
      }
    }
  }

  // 2. Fire rules with this code as precursor.
  if (code + 1 < by_precursor_offset_.size()) {
    for (std::uint32_t k = by_precursor_offset_[code]; k < by_precursor_offset_[code + 1]; ++k) {
      const std::uint32_t r = by_precursor_rule_[k];
      if (table_->rules[r].scope == RuleScope::Machine) {
        fire(r, -1, t);
        continue;
      }
      const machine::MidplaneRange zones = machine_->codec().midplanes(key);
      for (machine::MidplaneId m = zones.first; m < zones.end; ++m) fire(r, m, t);
    }
  }
}

std::vector<Prediction> replay(const RuleTable& table, const ras::RasLog& log,
                               obs::Collector* collector) {
  Predictor predictor(table, log.machine(), collector);
  for (const ras::RasEvent& event : log.events()) predictor.on_record(event);
  return predictor.predictions();
}

PredictionAdvisor::PredictionAdvisor(const RuleTable& table,
                                     const machine::MachineModel& machine,
                                     obs::Collector* collector, std::size_t max_drained)
    : predictor_(table, machine, collector),
      obs_(collector),
      max_drained_(max_drained != 0
                       ? max_drained
                       : std::max<std::size_t>(
                             1, static_cast<std::size_t>(machine.midplane_count()) / 8)),
      avoid_until_(static_cast<std::size_t>(machine.midplane_count())) {}

void PredictionAdvisor::on_record(const ras::RasEvent& event) {
  predictor_.on_record(event);
  const auto& preds = predictor_.predictions();
  for (; consumed_ < preds.size(); ++consumed_) {
    const Prediction& p = preds[consumed_];
    if (p.midplane < 0 || static_cast<std::size_t>(p.midplane) >= avoid_until_.size()) {
      continue;
    }
    auto& until = avoid_until_[static_cast<std::size_t>(p.midplane)];
    if (until >= p.issued) {  // already draining: extend freely
      until = std::max(until, p.expires);
      continue;
    }
    std::size_t draining = 0;
    for (const TimePoint u : avoid_until_) draining += u >= p.issued ? 1 : 0;
    if (draining >= max_drained_) {
      CORAL_OBS_COUNT(obs_, "predict.advice_capped", 1);
      continue;
    }
    until = std::max(until, p.expires);
  }
}

bool PredictionAdvisor::avoid(machine::MidplaneId midplane, TimePoint now) const {
  const auto m = static_cast<std::size_t>(midplane);
  return m < avoid_until_.size() && now <= avoid_until_[m];
}

}  // namespace coral::predict
