#include "coral/joblog/binary_stream.hpp"

#include <algorithm>
#include <cstring>

#include "coral/common/error.hpp"
#include "coral/common/varint.hpp"

namespace coral::joblog {

namespace {

void append_u32(std::string& out, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof v);
  out.append(buf, sizeof buf);
}

}  // namespace

std::vector<std::string> parse_job_table(bin::PayloadCursor& cur) {
  const auto count = cur.get<std::uint32_t>();
  if (count > 10'000'000) throw ParseError("implausible table size in binary job log");
  std::vector<std::string> table;
  table.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto len = cur.get<std::uint16_t>();
    table.push_back(cur.get_string(len));
  }
  return table;
}

void encode_job_column_block(std::string& payload, const JobLog& log, std::size_t base,
                             std::size_t n, bool compress, std::string& raw) {
  bin::ZoneMap zm;
  raw.clear();
  // Column order is the decode order below. Job ids and start times are
  // near-monotone, so both delta-code; queue and end are stored relative to
  // the record's own start (wait and duration — small, dense varints).
  std::int64_t prev = 0;
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint_signed(raw, log[i].job_id - prev);
    prev = log[i].job_id;
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint(raw, static_cast<std::uint64_t>(log[i].exec_id));
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint(raw, static_cast<std::uint64_t>(log[i].user_id));
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint(raw, static_cast<std::uint64_t>(log[i].project_id));
  }
  prev = 0;
  for (std::size_t i = base; i < base + n; ++i) {
    const std::int64_t start = log[i].start_time.usec();
    bin::put_varint_signed(raw, start - prev);
    prev = start;
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint_signed(raw, log[i].start_time.usec() - log[i].queue_time.usec());
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint_signed(raw, log[i].end_time.usec() - log[i].start_time.usec());
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint(raw, static_cast<std::uint64_t>(log[i].partition.first_midplane()));
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint(raw, static_cast<std::uint64_t>(log[i].partition.midplane_count()));
  }
  for (std::size_t i = base; i < base + n; ++i) {
    bin::put_varint_signed(raw, log[i].exit_code);
  }
  // Zone map: time covers the whole job lifetime, the bitmap folds every
  // midplane of the partition, and the key range carries the plain
  // [min first, max last] midplane ids (see zonemap.hpp).
  for (std::size_t i = base; i < base + n; ++i) {
    const JobRecord& j = log[i];
    zm.add_time(j.start_time.usec());
    zm.add_time(j.end_time.usec());
    const int first = j.partition.first_midplane();
    const int count = j.partition.midplane_count();
    zm.add_key(static_cast<std::uint32_t>(first));
    zm.add_key(static_cast<std::uint32_t>(first + count - 1));
    for (int k = 0; k < count; ++k) zm.add_midplane(first + k);
  }
  payload.push_back(kJobColumnTag);
  append_u32(payload, static_cast<std::uint32_t>(n));
  bin::append_zone_map(payload, zm);
  bin::append_column_body(payload, raw, compress);
}

void JobStreamDecoder::intern_tables() {
  // First record block: freeze whatever metadata survived. In an intact
  // file every table precedes the records, so strict mode can insist on
  // all three.
  if (mode_ == ParseMode::Strict && (!execs_ || !users_ || !projects_)) {
    throw ParseError("records before string tables in binary job log");
  }
  if (execs_) {
    for (const auto& s : *execs_) log_.intern_exec(s);
  }
  if (users_) {
    for (const auto& s : *users_) log_.intern_user(s);
  }
  if (projects_) {
    for (const auto& s : *projects_) log_.intern_project(s);
  }
  interned_ = true;
}

void JobStreamDecoder::emit_job(std::int64_t job_id, std::int64_t exec,
                                std::int64_t user, std::int64_t project,
                                std::int64_t queue_usec, std::int64_t start_usec,
                                std::int64_t end_usec, std::int64_t first_midplane,
                                std::int64_t midplane_count, std::int64_t exit_code,
                                std::uint64_t rec_offset) {
  const std::size_t n_execs = execs_ ? execs_->size() : 0;
  const std::size_t n_users = users_ ? users_->size() : 0;
  const std::size_t n_projects = projects_ ? projects_->size() : 0;
  if (exec < 0 || static_cast<std::uint64_t>(exec) >= n_execs || user < 0 ||
      static_cast<std::uint64_t>(user) >= n_users || project < 0 ||
      static_cast<std::uint64_t>(project) >= n_projects) {
    if (mode_ == ParseMode::Strict) {
      throw ParseError("bad table index in binary job log at byte offset " +
                       std::to_string(rec_offset));
    }
    record_rep_.add_malformed(IngestReason::BadRecord, rec_offset, "",
                              "string-table index out of range");
    return;
  }
  if (mode_ == ParseMode::Lenient && end_usec < start_usec) {
    record_rep_.add_malformed(IngestReason::BadRecord, rec_offset, "",
                              "job ends before it starts");
    return;
  }
  if (first_midplane != static_cast<int>(first_midplane) ||
      midplane_count != static_cast<int>(midplane_count) ||
      !machine_->is_legal_partition(static_cast<int>(first_midplane),
                                    static_cast<int>(midplane_count))) {
    // Same diagnostic the validating bgp::Partition constructor threw
    // before partition legality became a model question.
    const std::string what = "illegal partition: first midplane " +
                             std::to_string(first_midplane) + ", size " +
                             std::to_string(midplane_count);
    if (mode_ == ParseMode::Strict) throw InvalidArgument(what);
    record_rep_.add_malformed(IngestReason::BadLocation, rec_offset, "", what);
    return;
  }
  if (filter_ != nullptr && !(filter_->match_span(start_usec, end_usec) &&
                              filter_->match_midplane_range(
                                  static_cast<int>(first_midplane),
                                  static_cast<int>(midplane_count)))) {
    // Exact-filtered jobs are valid — they count as ok so accounting is
    // query-independent; they just do not land in the log.
    record_rep_.add_ok();
    return;
  }
  JobRecord j;
  j.job_id = job_id;
  j.exec_id = static_cast<ExecId>(exec);
  j.user_id = static_cast<UserId>(user);
  j.project_id = static_cast<ProjectId>(project);
  j.queue_time = TimePoint(queue_usec);
  j.start_time = TimePoint(start_usec);
  j.end_time = TimePoint(end_usec);
  j.exit_code = static_cast<int>(exit_code);
  j.partition = bgp::Partition::unchecked(static_cast<int>(first_midplane),
                                          static_cast<int>(midplane_count));
  log_.append(j);
  record_rep_.add_ok();
}

void JobStreamDecoder::decode_records(bin::PayloadCursor& cur) {
  if (!interned_) intern_tables();
  const auto n = cur.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t rec_offset = cur.offset();
    PackedJob rec;
    cur.read(&rec, sizeof rec);
    ++attempted_;
    emit_job(rec.job_id, rec.exec, rec.user, rec.project, rec.queue_usec,
             rec.start_usec, rec.end_usec, rec.first_midplane, rec.midplane_count,
             rec.exit_code, rec_offset);
  }
}

void JobStreamDecoder::decode_columns(bin::PayloadCursor& cur) {
  bin::ColumnBlock block;
  if (!bin::read_column_block(cur, filter_, scratch_, attempted_, blocks_, block)) return;
  const std::uint64_t block_at = block.offset;
  const std::uint32_t n = block.count;
  const std::string_view body = block.body;
  const auto bad_block = [&]() -> ParseError {
    return ParseError("corrupt column block in binary job log at byte offset " +
                      std::to_string(block_at));
  };
  // All-or-nothing column decode, like the RAS blocks: a damaged body loses
  // the whole block to the top-up, never a prefix of it. Ten varint columns
  // of at least one byte each bound the count.
  if (std::uint64_t{n} * 10 > body.size()) throw bad_block();
  std::vector<std::int64_t> ids(n), starts(n), waits(n), durs(n);
  std::vector<std::uint64_t> execs(n), users(n), projs(n), firsts(n), counts(n);
  std::vector<std::int64_t> exits(n);
  std::size_t pos = 0;
  std::int64_t prev = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::int64_t d = 0;
    if (!bin::get_varint_signed(body, pos, d)) throw bad_block();
    prev += d;
    ids[i] = prev;
  }
  const auto read_u32_column = [&](std::vector<std::uint64_t>& col) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t v = 0;
      if (!bin::get_varint(body, pos, v) || v > UINT32_MAX) throw bad_block();
      col[i] = v;
    }
  };
  read_u32_column(execs);
  read_u32_column(users);
  read_u32_column(projs);
  prev = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    std::int64_t d = 0;
    if (!bin::get_varint_signed(body, pos, d)) throw bad_block();
    prev += d;
    starts[i] = prev;
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!bin::get_varint_signed(body, pos, waits[i])) throw bad_block();
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!bin::get_varint_signed(body, pos, durs[i])) throw bad_block();
  }
  read_u32_column(firsts);
  read_u32_column(counts);
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!bin::get_varint_signed(body, pos, exits[i])) throw bad_block();
  }
  // Writer-canonical shape: the columns end exactly at the body's end.
  if (pos != body.size()) throw bad_block();
  ++blocks_.decoded;

  if (!interned_) intern_tables();
  attempted_ += n;
  for (std::uint32_t i = 0; i < n; ++i) {
    emit_job(ids[i], static_cast<std::int64_t>(execs[i]),
             static_cast<std::int64_t>(users[i]), static_cast<std::int64_t>(projs[i]),
             starts[i] - waits[i], starts[i], starts[i] + durs[i],
             static_cast<std::int64_t>(firsts[i]), static_cast<std::int64_t>(counts[i]),
             exits[i], block_at);
  }
}

void JobStreamDecoder::on_payload(std::string_view payload,
                                  std::uint64_t payload_offset) {
  bin::PayloadCursor cur(payload, payload_offset, "binary job log");
  try {
    const char tag = cur.get<char>();
    if (tag == kJobHeaderTag) {
      const auto n = cur.get<std::uint64_t>();
      if (!total_) {
        total_ = n;
        log_.reserve(static_cast<std::size_t>(std::min(n, reserve_cap_)));
      }
      return;
    }
    if (tag == kJobExecTag || tag == kJobUserTag || tag == kJobProjectTag) {
      auto& slot = tag == kJobExecTag ? execs_ : tag == kJobUserTag ? users_ : projects_;
      if (!slot) slot = parse_job_table(cur);
      return;
    }
    if (tag == kJobMetaTag) {
      bin::StoreMeta m = bin::parse_store_meta(cur, machine_->name(), mode_);
      if (!meta_) meta_ = std::move(m);
      return;
    }
    if (tag == kJobSegmentTag) {
      // Footers index blocks the stream delivers anyway; their counts are
      // kept only while no header total has survived.
      std::vector<bin::SegmentEntry> entries;
      bin::parse_segment_footer(cur, entries);
      if (!total_) footers_.list(entries);
      return;
    }
    if (tag == kJobColumnTag) {
      decode_columns(cur);
      if (!total_) footers_.deliver(payload_offset - bin::kBlockHeaderBytes);
      return;
    }
    if (tag != kJobRecordTag) {
      if (mode_ == ParseMode::Strict) {
        throw ParseError("unknown block tag in binary job log at byte offset " +
                         std::to_string(payload_offset - bin::kBlockHeaderBytes));
      }
      return;
    }
    ++blocks_.total;
    decode_records(cur);
    ++blocks_.decoded;
  } catch (const Error&) {
    if (mode_ == ParseMode::Strict) throw;
    // CRC-valid but unparseable payload: skip; the lost-record top-up in
    // finish() accounts for its records.
  }
}

JobLog JobStreamDecoder::finish(IngestReport& rep, const IngestReport& frame_damage) {
  rep.merge(record_rep_);
  record_rep_ = IngestReport{};
  if (!interned_) {
    // No record blocks (empty log): still preserve the string tables so a
    // round trip keeps interned names.
    if (execs_) {
      for (const auto& s : *execs_) log_.intern_exec(s);
    }
    if (users_) {
      for (const auto& s : *users_) log_.intern_user(s);
    }
    if (projects_) {
      for (const auto& s : *projects_) log_.intern_project(s);
    }
  }

  bin::check_declared_total(total_, attempted_, mode_, "binary job log", "header block",
                            rep, footers_.undelivered_records());
  if (mode_ == ParseMode::Lenient) rep.adopt_samples(frame_damage);

  log_.finalize();
  return std::move(log_);
}

}  // namespace coral::joblog
