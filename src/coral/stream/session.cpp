#include "coral/stream/session.hpp"

#include <utility>
#include <vector>

#include "coral/common/error.hpp"

namespace coral::stream {

Session::Session(std::string name, SessionConfig config, const Context& ctx)
    : name_(std::move(name)),
      config_(std::move(config)),
      ctx_(ctx),
      ras_input_(config_.mode, ras::kRasMagic, "binary RAS log"),
      job_input_(config_.mode, joblog::kJobMagic, "binary job log"),
      ras_dec_(ctx_.catalog(), config_.mode, ctx_.machine()),
      job_dec_(config_.mode, ctx_.machine()) {
  if (config_.rules != nullptr) {
    predictor_ = std::make_unique<predict::Predictor>(*config_.rules, ctx_.machine(),
                                                      ctx_.obs());
  }
}

Session::~Session() = default;

bin::PayloadSink Session::decoder_for(Source src) {
  if (src == Source::Ras) {
    return [this](std::string_view payload, std::uint64_t offset) {
      ras_dec_.on_payload(payload, offset);
      ras_records_.store(ras_dec_.records_decoded(), std::memory_order_relaxed);
    };
  }
  return [this](std::string_view payload, std::uint64_t offset) {
    job_dec_.on_payload(payload, offset);
    job_records_.store(job_dec_.records_decoded(), std::memory_order_relaxed);
  };
}

Admission Session::feed(Source src, std::string_view bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (finalized_.load(std::memory_order_relaxed)) return Admission::Rejected;
  if (bytes.empty()) return Admission::Accepted;
  bytes_accepted_.fetch_add(bytes.size(), std::memory_order_relaxed);
  CORAL_OBS_COUNT(ctx_.obs(), "session.bytes.accepted", bytes.size());

  bin::FramedInput& input = src == Source::Ras ? ras_input_ : job_input_;
  const std::size_t held = input.buffered();
  input.push(bytes, decoder_for(src));
  const std::size_t decoded = held + bytes.size() - input.buffered();
  bytes_decoded_.fetch_add(decoded, std::memory_order_relaxed);
  CORAL_OBS_COUNT(ctx_.obs(), "session.bytes.decoded", decoded);
  backlog_bytes_.store(ras_input_.buffered() + job_input_.buffered(),
                       std::memory_order_relaxed);
  if (src == Source::Ras) predict_new_records_locked();
  return Admission::Accepted;
}

void Session::predict_new_records_locked() {
  if (!predictor_) return;
  // The decoder's live tap is append-only between feeds, and payloads arrive
  // in file order, so cursoring over it replays exactly the record sequence
  // an offline predict::replay of the finalized log would see — the parity
  // the online/offline differential test pins.
  const std::vector<ras::RasEvent>& events = ras_dec_.events_so_far();
  for (; predicted_ < events.size(); ++predicted_) {
    predictor_->on_record(events[predicted_]);
  }
  predictions_.store(predictor_->issued(), std::memory_order_relaxed);
}

std::size_t Session::pump() { return 0; }

void Session::flush() {}

SessionStats Session::snapshot() const {
  SessionStats s;
  s.bytes_accepted = bytes_accepted_.load(std::memory_order_relaxed);
  s.bytes_decoded = bytes_decoded_.load(std::memory_order_relaxed);
  s.backlog_bytes = backlog_bytes_.load(std::memory_order_relaxed);
  s.ras_records = ras_records_.load(std::memory_order_relaxed);
  s.job_records = job_records_.load(std::memory_order_relaxed);
  s.predictions = predictions_.load(std::memory_order_relaxed);
  s.finalized = finalized_.load(std::memory_order_acquire);
  return s;
}

SessionResult Session::finalize() {
  SessionResult out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finalized_.exchange(true, std::memory_order_acq_rel)) {
      throw InvalidArgument("session '" + name_ + "' already finalized");
    }
    // End of both streams: the truncation endgame accounts the tails.
    ras_input_.finish(decoder_for(Source::Ras));
    job_input_.finish(decoder_for(Source::Jobs));
    backlog_bytes_.store(ras_input_.buffered() + job_input_.buffered(),
                         std::memory_order_relaxed);
    // Feed the predictor the tail decoded by the truncation endgame before
    // finish() moves the events out from under the live tap.
    predict_new_records_locked();
    if (predictor_) out.predictions = predictor_->predictions();
    out.ras = ras_dec_.finish(out.ras_report, ras_input_.damage());
    out.jobs = job_dec_.finish(out.jobs_report, job_input_.damage());
    ras_records_.store(out.ras.size(), std::memory_order_relaxed);
    job_records_.store(out.jobs.size(), std::memory_order_relaxed);
  }
  // Same ingest-health reporting the offline readers emit, so a daemon
  // tenant's malformed ledgers land on /metrics like any batch run's.
  out.ras_report.report_malformed(ctx_.obs(), "ingest.ras_binary");
  out.jobs_report.report_malformed(ctx_.obs(), "ingest.job_binary");
  out.analysis = core::run_coanalysis(out.ras, out.jobs, config_.analysis, ctx_);
  return out;
}

}  // namespace coral::stream
