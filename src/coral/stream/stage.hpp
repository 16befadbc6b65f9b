#pragma once

#include <cstddef>
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

/// A non-representative member record of an in-flight event group. The
/// location is carried inline — as a Location::packed() key, which is what
/// every consumer (filter keys, partition-coverage tests) actually wants —
/// so the matcher needs no random access into the full log. Recover a full
/// Location with bgp::Location::from_packed.
struct GroupMember {
  std::size_t index = 0;  ///< index into the delivered fatal-record sequence
  std::uint32_t loc_key = 0;
};

/// An event group flowing between filter stages: the representative record
/// plus any absorbed re-reports. Equivalent to filter::EventGroup but
/// self-contained (it carries the rep's time/code/location key), so a stage
/// needs no side table of events. Singletons carry no heap allocation.
struct StreamGroup {
  std::size_t rep = 0;  ///< fatal-record index of the representative
  TimePoint rep_time;   ///< the independent event's time
  ras::ErrcodeId errcode = 0;
  std::uint32_t rep_key = 0;       ///< Location::packed() of the rep record
  std::vector<GroupMember> extra;  ///< members after the rep (often empty)

  std::size_t size() const { return 1 + extra.size(); }
};

/// Merge `src` into `dst`: src's rep and members become trailing members of
/// dst, in arrival order — exactly filter::merge_groups on the index lists.
void absorb(StreamGroup& dst, StreamGroup&& src);

/// Convert to the whole-log representation (member indices, rep first).
filter::EventGroup to_event_group(const StreamGroup& g);

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
