#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <span>
#include <vector>

#include "coral/machine/codec.hpp"
#include "coral/stream/stage.hpp"

namespace coral::stream {

/// Streaming RAS<->job matcher: a sliding +/-window join between finalized
/// event groups (from the filter chain, via the GroupSink side) and job
/// terminations (from the event stream, via the Stage side), keyed by
/// partition/location overlap.
///
/// Buffers are window-bounded on both sides:
///  - a pending group resolves once the event clock passes rep_time +
///    window (every job end that could match has then been seen);
///  - a buffered job end is evicted once the *group low-watermark* (the
///    earliest representative time any future group can carry, propagated
///    by the upstream stages via on_watermark) passes end_time + window.
///
/// Matches are emitted in group order with ascending job indices: the
/// per-group vectors of MatchResult::jobs_by_group. A group's members are
/// read from `members` (the filter chain's MemberChain) and their packed
/// locations from `loc_keys`, the fatal-record loc_key column the record
/// indices point into; both must outlive the matcher.
class StreamingMatcher : public Stage, public GroupSink {
 public:
  struct GroupMatch {
    StreamGroup group;
    std::vector<std::size_t> jobs;  ///< interrupted job indices, ascending
  };
  using Handler = std::function<void(GroupMatch&&)>;

  /// `codec` decodes the groups' packed loc_keys; the default is the Blue
  /// Gene family codec. Pass `machine.codec()` when matching another model's
  /// logs.
  StreamingMatcher(Usec window, Handler on_match, const MemberChain& members,
                   std::span<const std::uint32_t> loc_keys, machine::LocCodec codec = {})
      : window_(window),
        on_match_(std::move(on_match)),
        members_(&members),
        loc_keys_(loc_keys),
        codec_(codec) {}

  // Stage side: the merged event stream.
  void on_job_start(TimePoint t, const joblog::JobRecord& job, std::size_t job_index) override;
  void on_ras(TimePoint t, const ras::RasEvent& event, std::size_t event_index) override;
  void on_job_end(TimePoint t, const joblog::JobRecord& job, std::size_t job_index) override;

  // GroupSink side: finalized groups from the filter chain.
  void on_group(StreamGroup&& g) override;
  void on_watermark(TimePoint low) override;

  /// End of stream (both roles): resolve every pending group.
  void flush() override;

  std::size_t groups_out() const { return groups_out_; }
  /// Largest simultaneously buffered state (job ends + pending groups).
  std::size_t peak_buffered() const { return peak_buffered_; }

 private:
  struct JobEnd {
    TimePoint end;
    std::size_t job;
    bgp::Partition partition;
  };

  void advance(TimePoint t);
  void resolve();
  void emit_front();
  void evict();
  void note_peak() {
    const std::size_t s = ends_.size() + pending_.size();
    if (s > peak_buffered_) peak_buffered_ = s;
  }

  Usec window_;
  Handler on_match_;
  const MemberChain* members_;
  std::span<const std::uint32_t> loc_keys_;
  machine::LocCodec codec_;
  /// Location keys of the resolving group's members after the rep,
  /// gathered once per group on first need (reused across groups).
  std::vector<std::uint32_t> member_keys_;
  std::deque<JobEnd> ends_;         ///< sorted by end time (arrival order)
  std::deque<StreamGroup> pending_; ///< groups awaiting resolution, in order
  TimePoint watermark_{std::numeric_limits<Usec>::min()};
  TimePoint group_low_{std::numeric_limits<Usec>::min()};
  bool group_low_known_ = false;
  std::size_t groups_out_ = 0;
  std::size_t peak_buffered_ = 0;
};

}  // namespace coral::stream
