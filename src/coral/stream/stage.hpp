#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "coral/core/feed.hpp"
#include "coral/filter/groups.hpp"
#include "coral/joblog/log.hpp"
#include "coral/ras/log.hpp"

namespace coral::stream {

/// A processing stage in the streaming co-analysis: a consumer of the merged
/// job/RAS event stream (the CiFTS-style feed of §VII). Stages receive
/// events strictly time-ordered, with the EventFeed tie-break (job starts,
/// then RAS records, then job ends at the same timestamp), and must keep
/// only *windowed* state: anything older than the stage's coalescing/match
/// window is evicted or emitted downstream.
class Stage {
 public:
  virtual ~Stage() = default;

  virtual void on_job_start(TimePoint /*t*/, const joblog::JobRecord& /*job*/,
                            std::size_t /*job_index*/) {}
  virtual void on_ras(TimePoint /*t*/, const ras::RasEvent& /*event*/,
                      std::size_t /*event_index*/) {}
  virtual void on_job_end(TimePoint /*t*/, const joblog::JobRecord& /*job*/,
                          std::size_t /*job_index*/) {}

  /// End of stream: drain all buffered state.
  virtual void flush() {}
};

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
/// a whole run: the groups of a time shard touch only that shard's index
/// range, so shards may absorb into one chain concurrently.
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

/// Collects emitted groups (terminal sink for tests and the shard executor).
class GroupBuffer : public GroupSink {
 public:
  void on_group(StreamGroup&& g) override { groups.push_back(std::move(g)); }
  std::vector<StreamGroup> groups;
};

/// Drives one or more stages from a RAS/job log pair via EventFeed,
/// numbering delivered RAS records 0,1,2,... in delivery order (with
/// `min_severity = Fatal` these are exactly the indices into
/// RasLog::fatal_events()). Indices keep counting across windowed replays,
/// so a warm-up replay followed by live windows sees one consistent
/// numbering.
class StageDriver {
 public:
  /// Both logs must stay alive for the driver's lifetime.
  StageDriver(const ras::RasLog& ras, const joblog::JobLog& jobs,
              ras::Severity min_severity = ras::Severity::Fatal);

  void attach(Stage& stage) { stages_.push_back(&stage); }

  /// Replay the whole pair and flush the stages. Returns delivered events.
  std::size_t replay();
  /// Replay [begin, end) without flushing (for incremental/live windows).
  std::size_t replay(TimePoint begin, TimePoint end);
  /// Flush all attached stages (end of stream).
  void flush();

 private:
  core::EventFeed feed_;
  std::vector<Stage*> stages_;
  const joblog::JobRecord* jobs_base_;
  std::size_t ras_index_ = 0;
};

}  // namespace coral::stream
