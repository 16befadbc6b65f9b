#include "coral/stream/stage.hpp"

namespace coral::stream {

filter::EventGroup MemberChain::to_event_group(const StreamGroup& g) const {
  filter::EventGroup out;
  out.rep = g.rep;
  out.members.push_back(g.rep);
  for_each_after_rep(g, [&out](std::size_t i) { out.members.push_back(i); });
  return out;
}

}  // namespace coral::stream
