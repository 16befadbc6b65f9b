#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "coral/filter/groups.hpp"

namespace coral::stream {

/// An event group flowing between filter stages: the representative record
/// plus any absorbed re-reports. Equivalent to filter::EventGroup and
/// self-contained for the filter keys (it carries the rep's time, code and
/// packed location), but the members are not stored in the group: they
/// form a chain `rep -> ... -> tail` through a MemberChain. A group is
/// therefore a fixed-size value that never owns heap memory.
struct StreamGroup {
  std::size_t rep = 0;  ///< fatal-record index of the representative
  TimePoint rep_time;   ///< the independent event's time
  ras::ErrcodeId errcode = 0;
  std::uint32_t rep_key = 0;  ///< Location::packed() of the rep record
  std::size_t tail = 0;       ///< index of the last member (rep for a singleton)

  /// The group of one record, before any filtering.
  static StreamGroup single(std::size_t index, TimePoint time, ras::ErrcodeId errcode,
                            std::uint32_t loc_key) {
    return {index, time, errcode, loc_key, index};
  }
};

/// The members of every in-flight group as one singly-linked list over
/// the fatal-record indices: `next[i]` is the record after record i in its
/// group. A group holds only the chain's ends (rep, tail), so absorbing one
/// group into another is an O(1) splice, in arrival order. One chain serves
/// a whole run.
class MemberChain {
 public:
  /// A chain over the record indices [0, records).
  explicit MemberChain(std::size_t records) : next_(records) {}

  std::size_t records() const { return next_.size(); }

  /// Merge `src` into `dst`: src's rep and members become trailing members
  /// of dst, in arrival order — exactly filter::merge_groups on the index
  /// lists.
  void absorb(StreamGroup& dst, const StreamGroup& src) {
    next_[dst.tail] = src.rep;
    dst.tail = src.tail;
  }

  /// Call `fn(index)` for every member of `g` after the rep, in order.
  template <typename Fn>
  void for_each_after_rep(const StreamGroup& g, Fn&& fn) const {
    for (std::size_t i = g.rep; i != g.tail;) {
      i = next_[i];
      fn(i);
    }
  }

  /// The whole-log representation (member indices, rep first).
  filter::EventGroup to_event_group(const StreamGroup& g) const;

 private:
  std::vector<std::size_t> next_;
};

/// Consumer of a stream of finalized groups, emitted in representative-time
/// order. `on_watermark(low)` promises that every future on_group() carries
/// rep_time >= low — stages use it to evict window state early (the matcher
/// needs it to bound its job-end buffer).
class GroupSink {
 public:
  virtual ~GroupSink() = default;
  virtual void on_group(StreamGroup&& g) = 0;
  virtual void on_watermark(TimePoint /*low*/) {}
  /// End of stream: drain buffered groups downstream.
  virtual void flush() {}
};

/// Collects emitted groups (terminal sink for tests and phase 1 of
/// run_streaming_frontend).
class GroupBuffer : public GroupSink {
 public:
  void on_group(StreamGroup&& g) override { groups.push_back(std::move(g)); }
  std::vector<StreamGroup> groups;
};

}  // namespace coral::stream
