#pragma once

#include "coral/common/time.hpp"

namespace coral::filter {

/// Spatial filtering [12], [9]: the same ERRCODE reported from *different*
/// locations within `threshold` is one event seen from many vantage points
/// (a parallel job's interrupt is reported by every allocated node).
struct SpatialFilterConfig {
  Usec threshold = 300 * kUsecPerSec;
};

}  // namespace coral::filter
