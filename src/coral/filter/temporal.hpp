#pragma once

#include "coral/common/time.hpp"

namespace coral::filter {

/// Temporal filtering [12]: records of the same ERRCODE at the same
/// LOCATION within `threshold` of the previous record are redundant
/// re-reports of one event. The chain extends: each absorbed record renews
/// the window (a 10-minute storm of 5-second repeats is one event).
struct TemporalFilterConfig {
  Usec threshold = 300 * kUsecPerSec;
};

}  // namespace coral::filter
