#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "coral/common/binary_frame.hpp"
#include "coral/context.hpp"
#include "coral/core/pipeline.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/predict/predictor.hpp"
#include "coral/ras/binary_stream.hpp"

namespace coral::stream {

/// Which of a tenant's two log feeds a chunk of bytes belongs to.
enum class Source { Ras, Jobs };

/// What happened to a feed() call.
enum class Admission {
  Accepted,  ///< decoded before feed() returned
  Rejected,  ///< the session is finalized; nothing was taken
};

/// Per-tenant analysis configuration.
struct SessionConfig {
  ParseMode mode = ParseMode::Lenient;
  /// Ignored: feed() decodes what it is handed, so there is no queue to
  /// bound. Kept because the e2e benchmark package sets it.
  std::size_t queue_bytes = std::size_t{4} << 20;
  core::CoAnalysisConfig analysis;
  /// Online failure prediction: when set, every decoded RAS record is fed
  /// through a predict::Predictor as it is decoded, live predictions count
  /// in SessionStats/obs ("predict.*" counters, lead-time histogram) and the
  /// full prediction list rides out in SessionResult. Non-owning; must
  /// outlive the session. Null (the default) changes nothing.
  const predict::RuleTable* rules = nullptr;
};

/// Live counters, readable mid-run from any thread without stopping ingest
/// (the /metrics liveness guarantee rides on these being plain atomics).
struct SessionStats {
  std::uint64_t bytes_accepted = 0;  ///< taken by feed()
  std::uint64_t bytes_decoded = 0;   ///< consumed as file header, frames or damage
  std::uint64_t backlog_bytes = 0;   ///< held for incomplete frames, both sources
  std::uint64_t ras_records = 0;     ///< decoded so far
  std::uint64_t job_records = 0;
  std::uint64_t predictions = 0;     ///< issued by the online predictor
  bool finalized = false;
};

/// A finalized session: the same CoAnalysisResult and ingest ledgers the
/// offline pipeline produces for the identical log bytes.
struct SessionResult {
  core::CoAnalysisResult analysis;
  /// The decoded logs the analysis ran on — what a parity check diffs
  /// record-for-record against an offline read of the same bytes.
  ras::RasLog ras;
  joblog::JobLog jobs;
  IngestReport ras_report;
  IngestReport jobs_report;
  /// Online predictions, in issue order (empty without SessionConfig::rules).
  /// Byte-identical to predict::replay over the decoded log, for any feed
  /// chunking — the live path is differential-tested against that replay.
  std::vector<predict::Prediction> predictions;
};

/// One tenant's resident co-analysis engine: an explicit feed()/snapshot()/
/// finalize() lifecycle over the binary log formats (v2 and the v3 store,
/// whose block tags are disjoint, so each feed is whatever its blocks say).
///
/// feed() takes raw file bytes (any chunking — a socket's recv sizes, a
/// tail -f, whole files) and decodes them before it returns, through the
/// same bin::FramedInput and stream decoders the offline readers are built
/// on, so finalize() is byte-identical to read_binary + run_coanalysis over
/// the concatenated bytes — including lenient-mode damage accounting. That
/// equivalence holds for *any* interleaving of feeds across sources and
/// tenants, because each source's bytes arrive in order and nothing else is
/// shared. Between feeds a source holds at most one incomplete frame, which
/// bin::kMaxBlockPayload bounds.
///
/// Threading: feed() and finalize() serialize on one lock, so feeders of one
/// session decode in turn; one session's decode never blocks another's.
/// snapshot() reads atomics and is safe from any thread at any time.
class Session {
 public:
  /// `ctx` supplies catalog, machine and obs; the session keeps a
  /// copy. Per-tenant live counters are published to ctx.obs() (if any)
  /// under "session.*" names.
  Session(std::string name, SessionConfig config, const Context& ctx);
  ~Session();
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  const std::string& name() const { return name_; }
  const Context& context() const { return ctx_; }

  /// Decode bytes of one source. Strict-mode format errors throw ParseError
  /// from here. Feeding after finalize() is Rejected.
  Admission feed(Source src, std::string_view bytes);

  /// No-ops that return at once (pump() returns 0): feed() leaves nothing to
  /// drain. Kept because the e2e benchmark package calls them.
  std::size_t pump();
  void flush();

  /// Live counters; callable mid-run from any thread.
  SessionStats snapshot() const;

  /// Declare both byte streams complete, run end-of-stream accounting and
  /// the full co-analysis. The one-shot end of the lifecycle: further
  /// feeds are rejected. Strict-mode errors of the truncated tails (and of a
  /// file header that never completed) surface here.
  SessionResult finalize();

 private:
  /// The sink a source's framed input hands its payloads to (mu_ held).
  bin::PayloadSink decoder_for(Source src);
  /// Feed RAS records decoded since the last call to the online predictor
  /// (mu_ held; no-op without rules).
  void predict_new_records_locked();

  const std::string name_;
  const SessionConfig config_;
  Context ctx_;

  std::mutex mu_;  ///< serializes feed/finalize decode work
  bin::FramedInput ras_input_;
  bin::FramedInput job_input_;
  ras::RasStreamDecoder ras_dec_;
  joblog::JobStreamDecoder job_dec_;
  std::unique_ptr<predict::Predictor> predictor_;  ///< null without rules
  std::size_t predicted_ = 0;  ///< decoded RAS records already fed (mu_)

  std::atomic<bool> finalized_{false};
  std::atomic<std::uint64_t> bytes_accepted_{0};
  std::atomic<std::uint64_t> bytes_decoded_{0};
  std::atomic<std::uint64_t> backlog_bytes_{0};
  std::atomic<std::uint64_t> ras_records_{0};
  std::atomic<std::uint64_t> job_records_{0};
  std::atomic<std::uint64_t> predictions_{0};
};

}  // namespace coral::stream
