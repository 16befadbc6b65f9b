#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <memory_resource>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "coral/filter/causality.hpp"
#include "coral/filter/spatial.hpp"
#include "coral/filter/temporal.hpp"
#include "coral/stream/stage.hpp"

namespace coral::stream {

/// Streaming form of the temporal/spatial renewing-window merge: open chains
/// live in a deque in creation order; a chain is final once the input clock
/// outruns its renewing window (inputs arrive in representative-time order,
/// so nothing later can merge into it). Finalized chains are emitted from
/// the *front* only, which keeps emission in creation order — the group
/// order of FilterPipelineResult — while later closed chains wait
/// behind an open front. Buffered state is therefore bounded by how many
/// chains fit in one coalescing window, not by the log length. Absorbed
/// members are spliced onto the chain's group in `members`.
template <typename Key, typename KeyOf>
class WindowedCoalescer : public GroupSink {
 public:
  WindowedCoalescer(Usec threshold, MemberChain& members, GroupSink* out)
      : threshold_(threshold), members_(&members), out_(out) {}

  void on_group(StreamGroup&& g) override {
    ++in_count_;
    const TimePoint now = g.rep_time;
    emit_ready(now);
    const Key key = key_of_(g);
    const auto it = open_.find(key);
    if (it != open_.end() && it->second >= first_seq_) {
      Chain& c = chains_[it->second - first_seq_];
      if (now - c.last <= threshold_) {
        c.last = now;  // the chain renews its window
        members_->absorb(c.group, g);
        forward_watermark(now);
        return;
      }
      it->second = next_seq_;  // window expired: a fresh chain takes the key
    } else if (it != open_.end()) {
      it->second = next_seq_;  // previous chain already emitted
    } else {
      open_.emplace(key, next_seq_);
    }
    chains_.push_back(Chain{g, now});
    ++next_seq_;
    if (chains_.size() > peak_chains_) peak_chains_ = chains_.size();
    forward_watermark(now);
  }

  void on_watermark(TimePoint low) override {
    emit_ready(low);
    forward_watermark(low);
  }

  void flush() override {
    while (!chains_.empty()) emit_front();
    out_->flush();
  }

  std::size_t in_count() const { return in_count_; }
  std::size_t out_count() const { return out_count_; }
  /// Largest number of simultaneously buffered chains (window-bounded).
  std::size_t peak_chains() const { return peak_chains_; }

 private:
  struct Chain {
    StreamGroup group;
    TimePoint last;  ///< last absorbed record time (the renewing window)
  };

  void emit_front() {
    out_->on_group(StreamGroup(chains_.front().group));
    chains_.pop_front();
    ++first_seq_;
    ++out_count_;
  }

  void emit_ready(TimePoint now) {
    while (!chains_.empty() && now - chains_.front().last > threshold_) emit_front();
  }

  /// Every future emission has rep_time >= the front chain's rep (chains are
  /// created in rep order and new inputs are no earlier than `now`).
  void forward_watermark(TimePoint now) {
    out_->on_watermark(chains_.empty() ? now : chains_.front().group.rep_time);
  }

  Usec threshold_;
  MemberChain* members_;
  GroupSink* out_;
  KeyOf key_of_{};
  std::deque<Chain> chains_;
  /// key -> chain seq; entries referencing emitted chains (seq < first_seq_)
  /// are stale and treated as absent, so the table never needs scrubbing.
  /// Its size is bounded by the key alphabet (codes x locations), not the
  /// log length. Entries are never erased, so their nodes come from an
  /// arena released with the stage: a key's first sighting (over a quarter
  /// of the FATAL records on Intrepid) costs no heap allocation.
  std::pmr::monotonic_buffer_resource arena_;
  std::pmr::unordered_map<Key, std::size_t> open_{&arena_};
  std::size_t first_seq_ = 0;
  std::size_t next_seq_ = 0;
  std::size_t in_count_ = 0;
  std::size_t out_count_ = 0;
  std::size_t peak_chains_ = 0;
};

struct TemporalKey {
  std::uint64_t operator()(const StreamGroup& g) const {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.errcode)) << 32) |
           g.rep_key;
  }
};

struct SpatialKey {
  ras::ErrcodeId operator()(const StreamGroup& g) const { return g.errcode; }
};

/// Same ERRCODE at the same LOCATION within the renewing threshold.
using TemporalCoalescer = WindowedCoalescer<std::uint64_t, TemporalKey>;
/// Same ERRCODE anywhere within the renewing threshold.
using SpatialCoalescer = WindowedCoalescer<ras::ErrcodeId, SpatialKey>;

/// Streaming causal-pair miner: counts co-occurrences of distinct codes
/// among group reps within the window, over a sliding deque of recent reps.
/// Counts are mergeable across shards (no co-occurrence spans a shard cut,
/// see shard.hpp), so accept() on the merged counts is exact.
class PairMiner : public GroupSink {
 public:
  using Counts = std::map<std::pair<ras::ErrcodeId, ras::ErrcodeId>, int>;

  /// Forwards groups to `out` when given (pass-through mining).
  explicit PairMiner(Usec window, GroupSink* out = nullptr)
      : window_span_(window), out_(out) {}

  void on_group(StreamGroup&& g) override {
    evict(g.rep_time);
    for (const Seen& s : window_) {
      if (s.code == g.errcode) continue;
      const auto key = s.code < g.errcode ? std::pair{s.code, g.errcode}
                                          : std::pair{g.errcode, s.code};
      counts_[key] += 1;
    }
    window_.push_back({g.rep_time, g.errcode});
    if (window_.size() > peak_window_) peak_window_ = window_.size();
    if (out_ != nullptr) out_->on_group(std::move(g));
  }

  void on_watermark(TimePoint low) override {
    evict(low);
    if (out_ != nullptr) out_->on_watermark(low);
  }

  void flush() override {
    window_.clear();
    if (out_ != nullptr) out_->flush();
  }

  const Counts& counts() const { return counts_; }
  Counts take_counts() { return std::move(counts_); }
  std::size_t peak_window() const { return peak_window_; }

  static void merge_counts(Counts& into, const Counts& from) {
    for (const auto& [key, n] : from) into[key] += n;
  }

  /// Pairs meeting min_support, in code order.
  static std::vector<filter::CausalPair> accept(const Counts& counts, int min_support) {
    std::vector<filter::CausalPair> pairs;
    for (const auto& [key, n] : counts) {
      if (n >= min_support) pairs.push_back(key);
    }
    return pairs;
  }

 private:
  struct Seen {
    TimePoint time;
    ras::ErrcodeId code;
  };

  void evict(TimePoint now) {
    while (!window_.empty() && now - window_.front().time > window_span_) window_.pop_front();
  }

  Usec window_span_;
  GroupSink* out_;
  std::deque<Seen> window_;
  Counts counts_;
  std::size_t peak_window_ = 0;
};

/// Streaming causality merge: a group whose code is causally paired with an
/// open leader group within the window is absorbed into the most recent such
/// leader (ties broken by ascending partner code). Leader windows do *not*
/// renew — a chain is final once the input clock passes rep_time + window,
/// so the deque holds at most one window's worth of leaders. Followers are
/// spliced onto their leader in `members`.
class CausalityCoalescer : public GroupSink {
 public:
  CausalityCoalescer(Usec window, std::span<const filter::CausalPair> pairs,
                     MemberChain& members, GroupSink* out)
      : window_span_(window), members_(&members), out_(out) {
    for (const auto& [a, b] : pairs) {
      partner_[a].insert(b);
      partner_[b].insert(a);
    }
  }

  void on_group(StreamGroup&& g) override;
  void on_watermark(TimePoint low) override;
  void flush() override;

  std::size_t in_count() const { return in_count_; }
  std::size_t out_count() const { return out_count_; }
  std::size_t peak_chains() const { return peak_chains_; }

 private:
  void emit_front();
  void emit_ready(TimePoint now);
  void forward_watermark(TimePoint now);

  Usec window_span_;
  MemberChain* members_;
  GroupSink* out_;
  std::unordered_map<ras::ErrcodeId, std::set<ras::ErrcodeId>> partner_;
  std::deque<StreamGroup> chains_;  ///< open leaders, creation order
  std::unordered_map<ras::ErrcodeId, std::size_t> open_;  ///< code -> chain seq
  std::size_t first_seq_ = 0;
  std::size_t next_seq_ = 0;
  std::size_t in_count_ = 0;
  std::size_t out_count_ = 0;
  std::size_t peak_chains_ = 0;
};

/// The composed streaming filter front-end: FATAL records in, coalesced
/// event groups out. Job events advance the stage clocks (earlier eviction,
/// smaller buffers) but carry no data through this stage.
///
///   RAS --> temporal --> spatial --> [pair miner] --> [causality] --> out
///
/// With `mine_pairs` set, a PairMiner taps the spatial output (counts
/// readable after flush — the warm-up pass of a two-phase run). With
/// `pairs` non-empty, the causality coalescer merges follower groups using
/// those previously mined pairs (the live pass). Every stage splices
/// members onto `members`, which must cover every delivered record index
/// and outlive the filter and the groups it emits.
class StreamingFilter : public Stage {
 public:
  struct Options {
    filter::TemporalFilterConfig temporal;
    filter::SpatialFilterConfig spatial;
    filter::CausalityFilterConfig causality;
    bool mine_pairs = false;
    std::vector<filter::CausalPair> pairs;
  };

  StreamingFilter(Options options, MemberChain& members, GroupSink& out);

  void on_ras(TimePoint t, const ras::RasEvent& event, std::size_t event_index) override;
  /// Columnar entry point: feed a fatal record without materializing a
  /// RasEvent (the coanalysis driver reads straight from ras::FatalColumns).
  void on_fatal(TimePoint t, ras::ErrcodeId errcode, std::uint32_t loc_key,
                std::size_t event_index);
  void on_job_start(TimePoint t, const joblog::JobRecord& job, std::size_t job_index) override;
  void on_job_end(TimePoint t, const joblog::JobRecord& job, std::size_t job_index) override;
  void flush() override;

  std::size_t raw_count() const { return raw_count_; }
  const TemporalCoalescer& temporal() const { return *temporal_; }
  const SpatialCoalescer& spatial() const { return *spatial_; }
  const PairMiner* miner() const { return miner_.get(); }
  PairMiner* miner() { return miner_.get(); }
  const CausalityCoalescer* causality() const { return causality_.get(); }

  /// Largest simultaneously buffered group count across all stages — the
  /// window-bounded working set of the filter.
  std::size_t peak_buffered() const;

 private:
  Options options_;
  std::unique_ptr<CausalityCoalescer> causality_;
  std::unique_ptr<PairMiner> miner_;
  std::unique_ptr<SpatialCoalescer> spatial_;
  std::unique_ptr<TemporalCoalescer> temporal_;
  MemberChain* members_;
  std::size_t raw_count_ = 0;
};

}  // namespace coral::stream
