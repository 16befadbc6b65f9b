#pragma once

#include <span>
#include <vector>

#include "coral/common/time.hpp"
#include "coral/stats/distributions.hpp"
#include "coral/stats/ecdf.hpp"

namespace coral::core {

/// A fitted interarrival distribution: both candidate models plus the
/// likelihood-ratio verdict (the paper fits Weibull and exponential and
/// tests which explains the data; Fig. 3/6, Tables IV/V).
struct InterarrivalFit {
  std::vector<double> samples_sec;  ///< interarrival times in seconds
  stats::Weibull weibull{1.0, 1.0};
  stats::Exponential exponential{1.0};
  stats::LrtResult lrt;
  double ks_weibull = 0;
  double ks_exponential = 0;
};

/// Interarrival samples (seconds) from a time-ordered series of event
/// times. Throws InvalidArgument when fewer than 3 points are given.
std::vector<double> interarrival_seconds(std::span<const TimePoint> times);

/// Fit both models to interarrival samples, each once; the likelihood-ratio
/// test scores those fits.
InterarrivalFit fit_interarrivals(std::vector<double> samples_sec);

}  // namespace coral::core
