#include "coral/stream/stage.hpp"

namespace coral::stream {

filter::EventGroup MemberChain::to_event_group(const StreamGroup& g) const {
  filter::EventGroup out;
  out.rep = g.rep;
  out.members.push_back(g.rep);
  for_each_after_rep(g, [&out](std::size_t i) { out.members.push_back(i); });
  return out;
}

StageDriver::StageDriver(const ras::RasLog& ras, const joblog::JobLog& jobs,
                         ras::Severity min_severity)
    : feed_(ras, jobs), jobs_base_(jobs.jobs().data()) {
  feed_.on_job_start([this](TimePoint t, const core::EventFeed::JobStart& e) {
    const auto idx = static_cast<std::size_t>(e.job - jobs_base_);
    for (Stage* s : stages_) s->on_job_start(t, *e.job, idx);
  });
  feed_.on_job_end([this](TimePoint t, const core::EventFeed::JobEnd& e) {
    const auto idx = static_cast<std::size_t>(e.job - jobs_base_);
    for (Stage* s : stages_) s->on_job_end(t, *e.job, idx);
  });
  feed_.on_ras(
      [this](TimePoint t, const core::EventFeed::RasRecord& r) {
        const std::size_t idx = ras_index_++;
        for (Stage* s : stages_) s->on_ras(t, *r.event, idx);
      },
      min_severity);
}

std::size_t StageDriver::replay() {
  const std::size_t n = feed_.replay();
  flush();
  return n;
}

std::size_t StageDriver::replay(TimePoint begin, TimePoint end) {
  return feed_.replay(begin, end);
}

void StageDriver::flush() {
  for (Stage* s : stages_) s->flush();
}

}  // namespace coral::stream
