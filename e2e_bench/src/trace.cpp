#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>

namespace e2e {

namespace {

using coral::obs::Snapshot;
using coral::obs::SpanRecord;

double ms(std::int64_t us) { return static_cast<double>(us) / 1000.0; }

double median(std::vector<double> v) { return Samples(std::move(v)).p50(); }

/// The root span of every span. A parent opens before its children, so
/// it comes first in the snapshot.
std::vector<std::size_t> roots(const Snapshot& snap) {
  std::vector<std::size_t> root(snap.spans.size());
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const std::int32_t parent = snap.spans[i].parent;
    root[i] = parent < 0 ? i : root[static_cast<std::size_t>(parent)];
  }
  return root;
}

}  // namespace

std::vector<TracedOp> traced_ops(const Snapshot& snap, const std::string& type) {
  const std::vector<std::size_t> root = roots(snap);
  std::vector<double> child_ms(snap.spans.size(), 0.0);
  for (const SpanRecord& s : snap.spans) {
    if (s.parent >= 0) child_ms[static_cast<std::size_t>(s.parent)] += ms(s.dur_us);
  }
  std::map<std::size_t, TracedOp> by_root;
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    if (snap.spans[root[i]].name != type) continue;
    TracedOp& op = by_root[root[i]];
    const double self = ms(s.dur_us) - child_ms[i];
    if (s.parent < 0) {
      op.wall_ms = ms(s.dur_us);
      op.unattributed_ms = self;
    } else {
      op.self_ms[s.name] += self;
    }
  }
  std::vector<TracedOp> out;
  out.reserve(by_root.size());
  for (auto& [index, op] : by_root) out.push_back(std::move(op));
  return out;
}

std::vector<double> span_ms(const Snapshot& snap, const std::string& type,
                            const std::string& name) {
  const std::vector<std::size_t> root = roots(snap);
  std::vector<double> out;
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& s = snap.spans[i];
    if (s.parent >= 0 && s.name == name && snap.spans[root[i]].name == type) {
      out.push_back(ms(s.dur_us));
    }
  }
  return out;
}

void print_table(Report& report, const std::vector<TracedOp>& ops, const std::string& type) {
  if (ops.empty()) return;
  std::set<std::string> names;
  for (const TracedOp& op : ops) {
    for (const auto& [name, self] : op.self_ms) names.insert(name);
  }
  std::vector<double> walls;
  for (const TracedOp& op : ops) walls.push_back(op.wall_ms);
  const double wall = median(std::move(walls));
  report.line("self time per %s op (traced, n=%zu, wall p50 %.3f ms):", type.c_str(), ops.size(),
              wall);
  std::vector<std::pair<double, std::string>> rows;
  for (const std::string& name : names) rows.emplace_back(self_p50(ops, {name.c_str()}), name);
  std::sort(rows.rbegin(), rows.rend());
  for (const auto& [self, name] : rows) {
    report.line("  %-42s %10.3f ms %6.1f%%", name.c_str(), self, wall > 0 ? 100 * self / wall : 0);
  }
  const double un = unattributed_p50(ops);
  report.line("  %-42s %10.3f ms %6.1f%%", "(unattributed)", un, wall > 0 ? 100 * un / wall : 0);
}

double self_p50(const std::vector<TracedOp>& ops, std::initializer_list<const char*> names) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const TracedOp& op : ops) {
    double s = 0;
    for (const char* name : names) {
      const auto it = op.self_ms.find(name);
      if (it != op.self_ms.end()) s += it->second;
    }
    v.push_back(s);
  }
  return median(std::move(v));
}

double unattributed_p50(const std::vector<TracedOp>& ops) {
  std::vector<double> v;
  for (const TracedOp& op : ops) v.push_back(op.unattributed_ms);
  return median(std::move(v));
}

void write_trace(const Snapshot& snap, const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << coral::obs::chrome_trace_json(snap);
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace e2e
