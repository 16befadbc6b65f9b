#include "coral/stream/filter_stages.hpp"

#include "coral/common/error.hpp"

namespace coral::stream {

void CausalityCoalescer::on_group(StreamGroup&& g) {
  ++in_count_;
  const TimePoint now = g.rep_time;
  emit_ready(now);

  if (const auto pit = partner_.find(g.errcode); pit != partner_.end()) {
    // Merge into the most recent partner leader within the window. Every
    // leader still buffered is inside it: emit_ready(now) has emitted the
    // front ones that are not, and later leaders are no earlier. Iterating
    // the partner set ascending with a strict `>` comparison makes the first
    // partner code win equal times.
    std::size_t best_seq = 0;
    TimePoint best_time;
    bool found = false;
    for (ras::ErrcodeId p : pit->second) {
      const auto oit = open_.find(p);
      if (oit == open_.end() || oit->second < first_seq_) continue;
      const StreamGroup& leader = chains_[oit->second - first_seq_];
      if (!found || leader.rep_time > best_time) {
        found = true;
        best_time = leader.rep_time;
        best_seq = oit->second;
      }
    }
    if (found) {
      members_->absorb(chains_[best_seq - first_seq_], g);
      forward_watermark(now);
      return;
    }
  }
  // Leaders do not renew: `open_` tracks the latest unmerged group per code.
  auto [it, inserted] = open_.try_emplace(g.errcode, next_seq_);
  if (!inserted) it->second = next_seq_;
  chains_.push_back(g);
  ++next_seq_;
  if (chains_.size() > peak_chains_) peak_chains_ = chains_.size();
  forward_watermark(now);
}

void CausalityCoalescer::on_watermark(TimePoint low) {
  emit_ready(low);
  forward_watermark(low);
}

void CausalityCoalescer::flush() {
  while (!chains_.empty()) emit_front();
  out_->flush();
}

void CausalityCoalescer::emit_front() {
  out_->on_group(StreamGroup(chains_.front()));
  chains_.pop_front();
  ++first_seq_;
  ++out_count_;
}

void CausalityCoalescer::emit_ready(TimePoint now) {
  // A leader is final once `now` passes rep_time + window: later groups fail
  // the merge window against it. Emit from the front only (creation order).
  while (!chains_.empty() && now - chains_.front().rep_time > window_span_) emit_front();
}

void CausalityCoalescer::forward_watermark(TimePoint now) {
  out_->on_watermark(chains_.empty() ? now : chains_.front().rep_time);
}

StreamingFilter::StreamingFilter(Options options, MemberChain& members, GroupSink& out)
    : options_(std::move(options)), members_(&members) {
  // Wire the chain tail-first so each stage holds a stable pointer to the
  // next.
  GroupSink* next = &out;
  if (!options_.pairs.empty()) {
    causality_ = std::make_unique<CausalityCoalescer>(options_.causality.window,
                                                      options_.pairs, members, next);
    next = causality_.get();
  }
  if (options_.mine_pairs) {
    miner_ = std::make_unique<PairMiner>(options_.causality.window, next);
    next = miner_.get();
  }
  spatial_ = std::make_unique<SpatialCoalescer>(options_.spatial.threshold, members, next);
  temporal_ = std::make_unique<TemporalCoalescer>(options_.temporal.threshold, members,
                                                  spatial_.get());
}

void StreamingFilter::on_ras(TimePoint t, const ras::RasEvent& event,
                             std::size_t event_index) {
  (void)t;
  on_fatal(event.event_time, event.errcode, event.location.packed(), event_index);
}

void StreamingFilter::on_fatal(TimePoint t, ras::ErrcodeId errcode, std::uint32_t loc_key,
                               std::size_t event_index) {
  CORAL_EXPECTS(event_index < members_->records());
  ++raw_count_;
  temporal_->on_group(StreamGroup::single(event_index, t, errcode, loc_key));
}

void StreamingFilter::on_job_start(TimePoint t, const joblog::JobRecord&, std::size_t) {
  temporal_->on_watermark(t);
}

void StreamingFilter::on_job_end(TimePoint t, const joblog::JobRecord&, std::size_t) {
  temporal_->on_watermark(t);
}

void StreamingFilter::flush() { temporal_->flush(); }

std::size_t StreamingFilter::peak_buffered() const {
  std::size_t peak = temporal_->peak_chains() + spatial_->peak_chains();
  if (miner_) peak += miner_->peak_window();
  if (causality_) peak += causality_->peak_chains();
  return peak;
}

}  // namespace coral::stream
