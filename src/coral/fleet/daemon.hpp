#pragma once

#include <memory>
#include <string>
#include <vector>

#include "coral/context.hpp"
#include "coral/fleet/wire.hpp"
#include "coral/stream/session.hpp"

namespace coral::fleet {

/// Daemon front-door configuration. Port 0 binds an ephemeral port (read it
/// back with wire_port()/metrics_port() — the test and example path);
/// metrics_port -1 disables the scrape endpoint.
struct DaemonConfig {
  std::string bind = "127.0.0.1";
  int wire_port = 0;
  int metrics_port = 0;
  /// Ignored: sessions decode on feed and keep no queue. Kept because the
  /// e2e benchmark package reads it.
  std::size_t queue_bytes = std::size_t{4} << 20;
  /// Span ring capacity per tenant's obs::Collector (0 = unbounded; the
  /// default keeps a resident daemon's trace memory flat).
  std::size_t span_capacity = 4096;
  core::CoAnalysisConfig analysis;
  /// Optional correlation-rule table: when set, every tenant's session runs
  /// the online predictor over its live RAS feed (predict.* counters and the
  /// coral_session_predictions gauge land on /metrics). Non-owning; must
  /// outlive the daemon.
  const predict::RuleTable* rules = nullptr;
};

/// One tenant's public face for status listings.
struct TenantStatus {
  std::string name;
  std::string machine;
  stream::SessionStats stats;
};

/// The resident fleet daemon: N tenants (one per machine/log-source), each
/// a named stream::Session wrapping the co-analysis engine. Connections
/// speak the CBLK-framed wire protocol; a handshake names the tenant and
/// its registered MachineModel, data chunks carry raw v2 or v3 log-file
/// bytes, which the connection thread decodes as each message arrives, and
/// Finalize runs the full co-analysis and replies with result/log
/// fingerprints for parity checking. Live counters per tenant are
/// scrapeable mid-run at GET /metrics (Prometheus text exposition,
/// tenant="..." label dimension).
///
/// Several connections may feed one tenant (Session::feed is thread-safe).
/// A finalize runs the co-analysis serially on its connection thread, and
/// finalizes run one tenant at a time.
class Daemon {
 public:
  explicit Daemon(DaemonConfig config = {},
                  const ras::Catalog& catalog = ras::default_catalog());
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Bind + listen on both ports and start the accept threads. Throws
  /// Error when a port cannot be bound.
  void start();
  /// Close the doors, unblock every connection, join all threads. Safe to
  /// call twice; the destructor calls it.
  void stop();

  /// Bound ports (valid after start(); ephemeral requests resolved).
  int wire_port() const;
  int metrics_port() const;

  std::vector<TenantStatus> tenants() const;
  /// The same Prometheus exposition GET /metrics serves: every tenant's
  /// live counters, histograms and span ledger under tenant="..." labels.
  std::string metrics_text() const;

 private:
  struct Tenant;
  struct Conn;
  class Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace coral::fleet
