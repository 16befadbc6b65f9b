#pragma once

#include "harness.hpp"

namespace e2e {

/// Each workload: repeat its set-up `kSetups` times (setup_s is the
/// median), run the timed phase for `Options::seconds`, check every op's
/// output against a reference computed in set-up by a different path, and
/// fill the report. Failed ops are counted, never thrown.
void run_archive(const Options& opt, Report& report);
void run_sweep(const Options& opt, Report& report);
void run_fleet(const Options& opt, Report& report);

}  // namespace e2e
