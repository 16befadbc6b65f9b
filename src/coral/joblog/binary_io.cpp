#include "coral/joblog/binary_io.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <optional>
#include <ostream>

#include "coral/common/binary_frame.hpp"
#include "coral/common/error.hpp"
#include "coral/common/storev3.hpp"
#include "coral/joblog/binary_stream.hpp"
#include "coral/obs/obs.hpp"

namespace coral::joblog {

namespace {

template <class T>
void append_raw(std::string& out, T v) {
  char buf[sizeof v];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

std::string header_payload(const JobLog& log) {
  std::string payload;
  payload.push_back(kJobHeaderTag);
  append_raw(payload, static_cast<std::uint64_t>(log.size()));
  return payload;
}

std::string table_payload(char tag, const std::vector<std::string>& table) {
  std::string payload;
  payload.push_back(tag);
  append_raw(payload, static_cast<std::uint32_t>(table.size()));
  for (const std::string& s : table) {
    append_raw(payload, static_cast<std::uint16_t>(s.size()));
    payload.append(s);
  }
  return payload;
}

void write_v2(std::ostream& out, const JobLog& log) {
  out.write(kJobMagic, sizeof kJobMagic);
  out.write(reinterpret_cast<const char*>(&kJobVersion), sizeof kJobVersion);

  // Metadata blocks are all written twice: losing any single frame must not
  // orphan the record blocks that follow.
  std::string framed;
  for (int copy = 0; copy < 2; ++copy) {
    bin::append_frame(framed, header_payload(log));
    bin::append_frame(framed, table_payload(kJobExecTag, log.exec_files()));
    bin::append_frame(framed, table_payload(kJobUserTag, log.users()));
    bin::append_frame(framed, table_payload(kJobProjectTag, log.projects()));
  }
  out.write(framed.data(), static_cast<std::streamsize>(framed.size()));

  std::string payload;
  for (std::size_t base = 0; base < log.size(); base += kJobRecordsPerBlock) {
    const std::size_t n = std::min(kJobRecordsPerBlock, log.size() - base);
    payload.clear();
    payload.push_back(kJobRecordTag);
    append_raw(payload, static_cast<std::uint32_t>(n));
    for (std::size_t i = base; i < base + n; ++i) {
      const JobRecord& j = log[i];
      PackedJob rec;
      rec.job_id = j.job_id;
      rec.exec = j.exec_id;
      rec.user = j.user_id;
      rec.project = j.project_id;
      rec.queue_usec = j.queue_time.usec();
      rec.start_usec = j.start_time.usec();
      rec.end_usec = j.end_time.usec();
      rec.first_midplane = j.partition.first_midplane();
      rec.midplane_count = j.partition.midplane_count();
      rec.exit_code = j.exit_code;
      append_raw(payload, rec);
    }
    framed.clear();
    bin::append_frame(framed, payload);
    out.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  }
}

void write_v3(std::ostream& out, const JobLog& log, const WriteOptions& opts) {
  const machine::MachineModel& machine = log.machine();
  out.write(kJobMagic, sizeof kJobMagic);
  out.write(reinterpret_cast<const char*>(&kJobVersion3), sizeof kJobVersion3);

  std::string meta_payload;
  meta_payload.push_back(kJobMetaTag);
  bin::append_store_meta(meta_payload,
                         bin::StoreMeta{std::string(machine.name()), std::string(kJobSchemaV3),
                                        static_cast<std::uint32_t>(kJobRecordsPerBlock), 0});

  // Metadata blocks are all written twice, exactly as in v2: losing any
  // single frame must not orphan the record blocks that follow.
  std::string head;
  for (const std::string& payload :
       {meta_payload, header_payload(log), table_payload(kJobExecTag, log.exec_files()),
        table_payload(kJobUserTag, log.users()),
        table_payload(kJobProjectTag, log.projects())}) {
    bin::append_frame(head, payload);
    bin::append_frame(head, payload);
  }
  out.write(head.data(), static_cast<std::streamsize>(head.size()));

  bin::SegmentWriter segments(out, kJobSegmentTag, head.size(), opts.blocks_per_segment);
  std::string scratch;
  for (std::size_t base = 0; base < log.size(); base += kJobRecordsPerBlock) {
    segments.write_block(encode_job_column_block(
        scratch, log, base, std::min(kJobRecordsPerBlock, log.size() - base)));
  }
  segments.finish();
}

}  // namespace

void write_binary(std::ostream& out, const JobLog& log, const WriteOptions& opts) {
  if (opts.version == kJobVersion) {
    write_v2(out, log);
  } else if (opts.version == kJobVersion3) {
    write_v3(out, log, opts);
  } else {
    throw InvalidArgument("unsupported binary job log version " +
                          std::to_string(opts.version));
  }
}

JobLog read_binary(std::istream& in, const ReadOptions& opts) {
  IngestReport local;
  IngestReport& rep = opts.report != nullptr ? *opts.report : local;
  const machine::MachineModel& machine =
      opts.machine != nullptr ? *opts.machine : machine::bgp_model();
  obs::Span span(opts.obs, "ingest.job_binary");

  // The framed input feeds the shared incremental decoder — the same front
  // door and decoder the fleet session runs, so network ingest is
  // byte-identical to this offline read by construction.
  bin::FramedInput input(opts.mode, kJobMagic, "binary job log");
  input.read_header(in);

  std::optional<bin::ZoneFilter> filter_store;
  if (!opts.predicate.unconstrained()) {
    filter_store.emplace(opts.predicate, machine.codec(), machine.midplane_count());
  }
  JobStreamDecoder decoder(opts.mode, machine);
  if (filter_store) decoder.set_filter(&*filter_store);
  // Pre-size from the declared total, capped by what the rest of a seekable
  // stream could physically hold, so a corrupt count cannot force a huge
  // allocation: v2 records are a fixed 56 bytes, v3 column blocks spend at
  // least one byte on each of a record's ten fields before compression.
  if (const auto rest = bin::bytes_left(in)) {
    decoder.set_reserve_cap(*rest / (input.version() == kJobVersion ? sizeof(PackedJob) : 10));
  }
  input.read_frames(in, [&](std::string_view payload, std::uint64_t offset) {
    decoder.on_payload(payload, offset);
  });
  const bin::BlockCounters counters = decoder.block_counters();
  JobLog log = decoder.finish(rep, input.damage());

  CORAL_OBS_COUNT(opts.obs, "ingest.job_binary.blocks_total", counters.total);
  CORAL_OBS_COUNT(opts.obs, "ingest.job_binary.blocks_decoded", counters.decoded);
  CORAL_OBS_COUNT(opts.obs, "ingest.job_binary.blocks_skipped", counters.skipped);

  span.counts(rep.records_seen(), rep.records_ok());
  rep.report_malformed(opts.obs, "ingest.job_binary");
  return log;
}

}  // namespace coral::joblog
