#include "coral/stream/matcher.hpp"

#include <algorithm>

namespace coral::stream {

void StreamingMatcher::on_job_end(const joblog::JobRecord& job, std::size_t job_index) {
  ends_.push_back(JobEnd{job.end_time, job_index, job.partition});
  note_peak();
  if (job.end_time > watermark_) watermark_ = job.end_time;
  resolve();
  evict();
}

void StreamingMatcher::on_group(StreamGroup&& g) {
  pending_.push_back(std::move(g));
  note_peak();
  resolve();
}

void StreamingMatcher::on_watermark(TimePoint low) {
  // Watermarks are promises ("no future group earlier than this"); an
  // earlier-issued stronger promise stays valid, so keep the max.
  if (!group_low_known_ || low > group_low_) {
    group_low_ = low;
    group_low_known_ = true;
  }
  evict();
}

void StreamingMatcher::flush() {
  while (!pending_.empty()) emit_front();
  ends_.clear();
}

void StreamingMatcher::resolve() {
  // Strict >: at watermark == rep + window a job ending exactly on the edge
  // may not have been delivered yet (several events can share a timestamp).
  // Compared as watermark > rep + window, not watermark - rep > window: the
  // watermark starts at the minimum time point, and that difference
  // overflows before the first job end arrives.
  while (!pending_.empty() && watermark_ > pending_.front().rep_time + window_) emit_front();
}

void StreamingMatcher::emit_front() {
  GroupMatch match;
  match.group = pending_.front();
  pending_.pop_front();
  const StreamGroup& group = match.group;

  const TimePoint lo = group.rep_time - window_;
  const TimePoint hi = group.rep_time + window_;
  auto it = std::lower_bound(ends_.begin(), ends_.end(), lo,
                             [](const JobEnd& e, TimePoint t) { return e.end < t; });
  // Every buffered end in [lo, hi] is a candidate: JobLog::append rejects
  // inverted intervals, so start <= end <= hi and no started-after-window
  // check is needed.
  bool gathered = false;
  for (; it != ends_.end() && it->end <= hi; ++it) {
    bool covered = it->partition.covers_key(group.rep_key, codec_);
    if (!covered && group.tail != group.rep) {
      // A storm group can have thousands of members and many candidate
      // ends: walk its chain once, then scan the gathered keys per end.
      if (!gathered) {
        member_keys_.clear();
        members_->for_each_after_rep(
            group, [this](std::size_t i) { member_keys_.push_back(loc_keys_[i]); });
        gathered = true;
      }
      for (const std::uint32_t key : member_keys_) {
        if (it->partition.covers_key(key, codec_)) {
          covered = true;
          break;
        }
      }
    }
    if (covered) match.jobs.push_back(it->job);
  }
  // End-time order can differ from job-index order; emit ascending indices
  // (duplicates are impossible: one end record per job).
  std::sort(match.jobs.begin(), match.jobs.end());

  ++groups_out_;
  on_match_(std::move(match));
}

void StreamingMatcher::evict() {
  if (!group_low_known_) return;
  // The earliest rep any unresolved or future group can carry:
  TimePoint low = group_low_;
  if (!pending_.empty() && pending_.front().rep_time < low) low = pending_.front().rep_time;
  // Keep every end with end_time >= low - window (the window is inclusive on
  // both edges); evict strictly older ones.
  while (!ends_.empty() && ends_.front().end < low - window_) ends_.pop_front();
}

}  // namespace coral::stream
