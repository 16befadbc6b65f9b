#pragma once

#include <initializer_list>
#include <map>
#include <string>
#include <vector>

#include "coral/obs/obs.hpp"
#include "harness.hpp"

namespace e2e {

// The traced run records its spans in an obs::Collector that belongs to
// the benchmark and is never attached to a library Context, so no tracing
// runs inside the program. Every call the benchmark makes into a module's
// public functions is wrapped in an obs::Span, and each op is one root
// span: an op's self-time breakdown — its spans' self times plus the
// root's own "unattributed" remainder — sums to the op's wall time.

/// Times one op — its wall time and the CPU time of all the process's
/// threads over it — and opens its root span when tracing.
class OpClock {
 public:
  OpClock(coral::obs::Collector* trace, const char* type) : span_(trace, type) {}

  /// Wall time of the op in ms; closes the root span.
  double stop() {
    span_.end();
    cpu_ms_ = process_cpu_ms() - cpu_start_;
    return ms_since(start_);
  }
  /// Process CPU time over the op in ms, once stopped.
  double cpu_ms() const { return cpu_ms_; }

 private:
  Clock::time_point start_ = Clock::now();
  double cpu_start_ = process_cpu_ms();
  coral::obs::Span span_;
  double cpu_ms_ = 0;
};

/// Call `fn` inside a span named `name` (no span without a collector).
template <typename Fn>
decltype(auto) traced(coral::obs::Collector* trace, const char* name, Fn&& fn) {
  coral::obs::Span span(trace, name);
  return fn();
}

/// One traced op: wall time, the root's unattributed self time, and the
/// summed self time of each span name inside it.
struct TracedOp {
  double wall_ms = 0;
  double unattributed_ms = 0;
  std::map<std::string, double> self_ms;
};

/// The ops of one type (root span name) in a snapshot. A span belongs to
/// the root its parent links lead to; its self time is its duration minus
/// its children's.
std::vector<TracedOp> traced_ops(const coral::obs::Snapshot& snap, const std::string& type);

/// Duration in ms of every span named `name` inside ops of `type`.
std::vector<double> span_ms(const coral::obs::Snapshot& snap, const std::string& type,
                            const std::string& name);

/// Print the self-time table of one op type: p50 self time per span name
/// and its share of the op's p50 wall time.
void print_table(Report& report, const std::vector<TracedOp>& ops, const std::string& type);

/// Median over `ops` of the summed self time of the given span names (an
/// op without the span contributes 0).
double self_p50(const std::vector<TracedOp>& ops, std::initializer_list<const char*> names);
double unattributed_p50(const std::vector<TracedOp>& ops);

/// Write the snapshot as Chrome trace-event JSON ("" = nowhere).
void write_trace(const coral::obs::Snapshot& snap, const std::string& path);

}  // namespace e2e
