#include "coral/fleet/daemon.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "coral/common/error.hpp"
#include "coral/fleet/fingerprint.hpp"

namespace coral::fleet {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw Error(what + ": " + std::strerror(errno));
}

/// Bind + listen on host:port (port 0 = ephemeral). Returns the fd.
int listen_on(const std::string& host, int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    throw Error("bad bind address: " + host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw Error("cannot listen on " + host + ":" + std::to_string(port) + ": " + why);
  }
  return fd;
}

int bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n <= 0) return false;
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

void append_kv(std::string& out, std::string_view key, std::uint64_t value) {
  out.append(key);
  out.push_back('=');
  out.append(std::to_string(value));
  out.push_back('\n');
}

std::string hex64(std::uint64_t v) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i, v >>= 4) out[i] = digits[v & 0xF];
  return out;
}

}  // namespace

/// One tenant: a named Session plus its own obs::Collector (so /metrics can
/// carve the fleet by tenant label). Address-stable behind a unique_ptr —
/// the Session's Context points back at the collector.
struct Daemon::Tenant {
  std::string name;
  std::string machine_name;
  ParseMode mode = ParseMode::Lenient;
  obs::Collector collector;
  std::unique_ptr<stream::Session> session;
  std::mutex mu;              ///< guards complete_body
  std::string complete_body;  ///< cached Finalize reply (idempotent Q)
};

class Daemon::Impl {
 public:
  Impl(DaemonConfig config, const ras::Catalog& catalog)
      : config_(std::move(config)), catalog_(catalog) {}

  ~Impl() { stop(); }

  void start() {
    if (running_.exchange(true)) return;
    if (config_.pool_threads > 0) pool_.emplace(config_.pool_threads);
    // Each accept loop gets its listen fd when its thread is created and
    // never reads the fields, which stop() resets only after joining it.
    wire_fd_ = listen_on(config_.bind, config_.wire_port);
    wire_port_ = bound_port(wire_fd_);
    if (config_.metrics_port >= 0) {
      metrics_fd_ = listen_on(config_.bind, config_.metrics_port);
      metrics_port_ = bound_port(metrics_fd_);
      metrics_thread_ = std::thread([this, fd = metrics_fd_] { serve_metrics(fd); });
    }
    wire_thread_ = std::thread([this, fd = wire_fd_] { serve_wire(fd); });
  }

  void stop() {
    if (!running_.exchange(false)) return;
    // Wake the accept loops (shutdown, not close: the fds stay valid until
    // the loops have exited), then every in-flight connection's recv.
    for (const int fd : {wire_fd_, metrics_fd_}) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    }
    if (wire_thread_.joinable()) wire_thread_.join();
    if (metrics_thread_.joinable()) metrics_thread_.join();
    for (int* fd : {&wire_fd_, &metrics_fd_}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
    for (std::thread& t : conn_threads_) {
      if (t.joinable()) t.join();
    }
    conn_threads_.clear();
  }

  int wire_port() const { return wire_port_; }
  int metrics_port() const { return metrics_port_; }

  std::vector<TenantStatus> tenants() const {
    std::vector<TenantStatus> out;
    std::lock_guard<std::mutex> lock(tenants_mu_);
    out.reserve(tenants_.size());
    for (const auto& [name, t] : tenants_) {
      out.push_back({name, t->machine_name, t->session->snapshot()});
    }
    return out;
  }

  std::string metrics_text() const {
    // Collector families first (counters, histograms, spans), then the
    // session gauges the collectors do not carry — each family's # TYPE
    // emitted once, samples per tenant, as the exposition format requires.
    std::vector<obs::LabeledSnapshot> snaps;
    std::vector<std::pair<std::string, stream::SessionStats>> stats;
    {
      std::lock_guard<std::mutex> lock(tenants_mu_);
      snaps.reserve(tenants_.size());
      for (const auto& [name, t] : tenants_) {
        snaps.push_back({"tenant=\"" + name + "\"", t->collector.snapshot()});
        stats.emplace_back(name, t->session->snapshot());
      }
    }
    std::string out = obs::prometheus_text(snaps);
    struct Gauge {
      const char* family;
      std::uint64_t (*pick)(const stream::SessionStats&);
    };
    static constexpr Gauge kGauges[] = {
        {"coral_session_backlog_bytes",
         [](const stream::SessionStats& s) { return s.backlog_bytes; }},
        {"coral_session_ras_records",
         [](const stream::SessionStats& s) { return s.ras_records; }},
        {"coral_session_job_records",
         [](const stream::SessionStats& s) { return s.job_records; }},
        {"coral_session_predictions",
         [](const stream::SessionStats& s) { return s.predictions; }},
        {"coral_session_finalized",
         [](const stream::SessionStats& s) {
           return std::uint64_t{s.finalized ? 1u : 0u};
         }},
    };
    for (const Gauge& g : kGauges) {
      out += "# TYPE " + std::string(g.family) + " gauge\n";
      for (const auto& [name, s] : stats) {
        out += std::string(g.family) + "{tenant=\"" + name +
               "\"} " + std::to_string(g.pick(s)) + "\n";
      }
    }
    return out;
  }

 private:
  static bool send_message(int fd, char type, std::string_view body) {
    return send_all(fd, encode_message(type, body));
  }

  /// Resolve a handshake to its tenant, creating the session on first
  /// sight. A reconnect (or a second feeder for the same tenant) must agree
  /// on machine and mode — silently switching models mid-run would corrupt
  /// the parity story.
  Tenant& tenant_for(const Handshake& hs) {
    const machine::MachineModel* model = machine::find_model(hs.machine);
    if (model == nullptr) {
      throw Error("unknown machine model '" + hs.machine +
                  "' (register_model() before connecting)");
    }
    std::lock_guard<std::mutex> lock(tenants_mu_);
    auto it = tenants_.find(hs.tenant);
    if (it != tenants_.end()) {
      Tenant& t = *it->second;
      if (t.machine_name != hs.machine || t.mode != hs.mode) {
        throw Error("tenant '" + hs.tenant + "' already registered on machine '" +
                    t.machine_name + "'");
      }
      return t;
    }
    auto tenant = std::make_unique<Tenant>();
    tenant->name = hs.tenant;
    tenant->machine_name = hs.machine;
    tenant->mode = hs.mode;
    tenant->collector.set_span_capacity(config_.span_capacity);
    stream::SessionConfig sc;
    sc.mode = hs.mode;
    sc.queue_bytes = config_.queue_bytes;
    sc.overflow = hs.shed_overflow ? stream::SessionConfig::Overflow::Shed
                                   : stream::SessionConfig::Overflow::Reject;
    sc.analysis = config_.analysis;
    sc.rules = config_.rules;
    Context ctx(catalog_);
    ctx.with_machine(*model).with_obs(&tenant->collector);
    if (pool_) ctx.with_pool(&*pool_);
    tenant->session =
        std::make_unique<stream::Session>(hs.tenant, sc, ctx);
    Tenant& ref = *tenant;
    tenants_.emplace(hs.tenant, std::move(tenant));
    return ref;
  }

  static std::string stats_body(const Tenant& t) {
    const stream::SessionStats s = t.session->snapshot();
    std::string out;
    out += "tenant=" + t.name + "\n";
    append_kv(out, "bytes_accepted", s.bytes_accepted);
    append_kv(out, "bytes_decoded", s.bytes_decoded);
    append_kv(out, "bytes_shed", s.bytes_shed);
    append_kv(out, "chunks_shed", s.chunks_shed);
    append_kv(out, "backlog_bytes", s.backlog_bytes);
    append_kv(out, "ras_records", s.ras_records);
    append_kv(out, "job_records", s.job_records);
    append_kv(out, "predictions", s.predictions);
    append_kv(out, "finalized", s.finalized ? 1 : 0);
    return out;
  }

  /// Run one tenant's finalize and build the Complete reply. Serialized
  /// across tenants: they share one analysis pool, and ThreadPool::wait_idle
  /// is a whole-pool barrier, so interleaved finalizes would observe each
  /// other's tasks. The tenant's collector gets a "fleet.finalize" span
  /// (its stage spans nest under it) and a "fleet.finalize_wait" child that
  /// closes once the serializing lock is held.
  std::string finalize_tenant(Tenant& t) {
    {
      std::lock_guard<std::mutex> lock(t.mu);
      if (!t.complete_body.empty()) return t.complete_body;
    }
    obs::Span span(&t.collector, "fleet.finalize");
    obs::Span wait(&t.collector, "fleet.finalize_wait");
    std::lock_guard<std::mutex> flock(finalize_mu_);
    wait.end();
    {
      std::lock_guard<std::mutex> lock(t.mu);
      if (!t.complete_body.empty()) return t.complete_body;
    }
    const stream::SessionResult r = t.session->finalize();
    std::string body;
    body += "tenant=" + t.name + "\n";
    body += "result_fp=" + hex64(result_fingerprint(r.analysis)) + "\n";
    body += "log_fp=" + hex64(log_fingerprint(r.ras, r.jobs)) + "\n";
    append_kv(body, "ras_records", r.ras.size());
    append_kv(body, "job_records", r.jobs.size());
    append_kv(body, "ras_malformed", r.ras_report.total_malformed());
    append_kv(body, "job_malformed", r.jobs_report.total_malformed());
    append_kv(body, "system_interruptions", r.analysis.system_interruptions);
    append_kv(body, "application_interruptions",
              r.analysis.application_interruptions);
    std::lock_guard<std::mutex> lock(t.mu);
    t.complete_body = body;
    return t.complete_body;
  }

  /// Dispatch one wire message. Returns false to close the connection.
  bool handle_message(int fd, Tenant*& tenant, const std::string& msg) {
    if (msg.empty()) {
      send_message(fd, kMsgError, "empty message");
      return false;
    }
    const char type = msg[0];
    const std::string_view body(msg.data() + 1, msg.size() - 1);
    if (type == kMsgHello) {
      if (tenant != nullptr) {
        send_message(fd, kMsgError, "duplicate handshake");
        return false;
      }
      tenant = &tenant_for(decode_handshake(body));
      return send_message(fd, kMsgOk, "tenant=" + tenant->name + "\n");
    }
    if (tenant == nullptr) {
      send_message(fd, kMsgError, "handshake required before other messages");
      return false;
    }
    switch (type) {
      case kMsgRasData:
      case kMsgJobData: {
        const auto src = type == kMsgRasData ? stream::Source::Ras
                                             : stream::Source::Jobs;
        // Admission backpressure: a Rejected feed means the backlog is at
        // quota — pump it down on this thread (the tenant's own decode
        // work) and retry. Lossless by construction; Shed tenants account
        // their drops inside the session.
        while (tenant->session->feed(src, body) == stream::Admission::Rejected) {
          if (tenant->session->snapshot().finalized) {
            send_message(fd, kMsgError,
                         "tenant '" + tenant->name + "' already finalized");
            return false;
          }
          tenant->session->pump();
        }
        // Decode eagerly so /metrics shows live progress, not queue depth.
        tenant->session->pump();
        return true;
      }
      case kMsgFlush:
        tenant->session->flush();
        return send_message(fd, kMsgStats, stats_body(*tenant));
      case kMsgFinalize:
        return send_message(fd, kMsgComplete, finalize_tenant(*tenant));
      default:
        send_message(fd, kMsgError,
                     std::string("unknown message type '") + type + "'");
        return false;
    }
  }

  void handle_connection(int fd) {
    MessageReader reader;
    Tenant* tenant = nullptr;
    std::string msg;
    char buf[64 << 10];
    bool alive = true;
    while (alive && running_.load(std::memory_order_relaxed)) {
      const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
      if (n <= 0) break;
      try {
        reader.push(std::string_view(buf, static_cast<std::size_t>(n)));
        while (reader.next(msg)) {
          if (!handle_message(fd, tenant, msg)) {
            alive = false;
            break;
          }
        }
      } catch (const Error& e) {
        // Wire-frame damage, bad handshakes and strict-mode ingest errors
        // all land here: report and hang up. The tenant (if any) stays
        // registered — its counters keep telling the story on /metrics.
        send_message(fd, kMsgError, e.what());
        alive = false;
      }
    }
    ::close(fd);
    std::lock_guard<std::mutex> lock(conns_mu_);
    conn_fds_.erase(fd);
  }

  void serve_wire(int listen_fd) {
    while (running_.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (running_.load(std::memory_order_relaxed) && errno == EINTR) continue;
        break;
      }
      std::lock_guard<std::mutex> lock(conns_mu_);
      conn_fds_.insert(fd);
      conn_threads_.emplace_back([this, fd] { handle_connection(fd); });
    }
  }

  /// Minimal scrape endpoint: every request gets the full exposition (the
  /// path is not inspected — a daemon serves exactly one document). Serial
  /// accept loop; scrapes are rare and the document is small.
  void serve_metrics(int listen_fd) {
    while (running_.load(std::memory_order_relaxed)) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (running_.load(std::memory_order_relaxed) && errno == EINTR) continue;
        break;
      }
      char buf[8 << 10];
      // One read is enough for any real GET; we reply regardless.
      (void)::recv(fd, buf, sizeof buf, 0);
      const std::string body = metrics_text();
      std::string resp =
          "HTTP/1.1 200 OK\r\n"
          "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
          "Content-Length: " + std::to_string(body.size()) + "\r\n"
          "Connection: close\r\n\r\n";
      resp += body;
      send_all(fd, resp);
      ::close(fd);
    }
  }

  const DaemonConfig config_;
  const ras::Catalog& catalog_;
  std::optional<par::ThreadPool> pool_;

  std::atomic<bool> running_{false};
  int wire_fd_ = -1;
  int metrics_fd_ = -1;
  int wire_port_ = 0;
  int metrics_port_ = 0;
  std::thread wire_thread_;
  std::thread metrics_thread_;

  mutable std::mutex tenants_mu_;
  std::map<std::string, std::unique_ptr<Tenant>> tenants_;

  std::mutex conns_mu_;
  std::set<int> conn_fds_;
  std::vector<std::thread> conn_threads_;

  std::mutex finalize_mu_;
};

Daemon::Daemon(DaemonConfig config, const ras::Catalog& catalog)
    : impl_(std::make_unique<Impl>(std::move(config), catalog)) {}

Daemon::~Daemon() = default;

void Daemon::start() { impl_->start(); }
void Daemon::stop() { impl_->stop(); }
int Daemon::wire_port() const { return impl_->wire_port(); }
int Daemon::metrics_port() const { return impl_->metrics_port(); }
std::vector<TenantStatus> Daemon::tenants() const { return impl_->tenants(); }
std::string Daemon::metrics_text() const { return impl_->metrics_text(); }

}  // namespace coral::fleet
