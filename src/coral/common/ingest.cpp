#include "coral/common/ingest.hpp"

#include "coral/obs/obs.hpp"

namespace coral {

std::string_view to_string(IngestReason reason) {
  switch (reason) {
    case IngestReason::CsvStructure:
      return "csv_structure";
    case IngestReason::RowWidth:
      return "row_width";
    case IngestReason::BadTimestamp:
      return "bad_timestamp";
    case IngestReason::BadLocation:
      return "bad_location";
    case IngestReason::BadNumber:
      return "bad_number";
    case IngestReason::UnknownErrcode:
      return "unknown_errcode";
    case IngestReason::BadSeverity:
      return "bad_severity";
    case IngestReason::BadRecord:
      return "bad_record";
    case IngestReason::BinaryFrame:
      return "binary_frame";
  }
  return "unknown";
}

void IngestReport::add_malformed(IngestReason reason, std::uint64_t byte_offset,
                                 std::string_view snippet, std::string detail) {
  counts_[static_cast<std::size_t>(reason)] += 1;
  if (samples_.size() < kMaxSamples) {
    constexpr std::size_t kSnippetBytes = 64;
    IngestSample s;
    s.reason = reason;
    s.byte_offset = byte_offset;
    s.detail = std::move(detail);
    s.snippet = std::string(snippet.substr(0, kSnippetBytes));
    samples_.push_back(std::move(s));
  }
}

void IngestReport::add_malformed_bulk(IngestReason reason, std::uint64_t n) {
  counts_[static_cast<std::size_t>(reason)] += n;
}

std::uint64_t IngestReport::malformed(IngestReason reason) const {
  return counts_[static_cast<std::size_t>(reason)];
}

std::uint64_t IngestReport::total_malformed() const {
  std::uint64_t total = 0;
  for (const std::uint64_t c : counts_) total += c;
  return total;
}

void IngestReport::merge(const IngestReport& other) {
  records_ok_ += other.records_ok_;
  for (std::size_t i = 0; i < kIngestReasonCount; ++i) counts_[i] += other.counts_[i];
  for (const IngestSample& s : other.samples_) {
    if (samples_.size() >= kMaxSamples) break;
    samples_.push_back(s);
  }
}

void IngestReport::adopt_samples(const IngestReport& other) {
  for (const IngestSample& s : other.samples_) {
    if (samples_.size() >= kMaxSamples) break;
    samples_.push_back(s);
  }
}

std::string IngestReport::summary() const {
  std::string out = std::to_string(records_ok_) + " ok, " +
                    std::to_string(total_malformed()) + " malformed";
  if (total_malformed() == 0) return out;
  out += " (";
  bool first = true;
  for (std::size_t i = 0; i < kIngestReasonCount; ++i) {
    if (counts_[i] == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += std::string(to_string(static_cast<IngestReason>(i))) + ": " +
           std::to_string(counts_[i]);
  }
  out += ")";
  return out;
}

void IngestReport::report_malformed(obs::Collector* obs, const std::string& stage) const {
  if (obs == nullptr) return;
  for (std::size_t i = 0; i < kIngestReasonCount; ++i) {
    if (counts_[i] == 0) continue;
    obs->add_counter(
        stage + ".malformed." + std::string(to_string(static_cast<IngestReason>(i))),
        counts_[i]);
  }
}

}  // namespace coral
