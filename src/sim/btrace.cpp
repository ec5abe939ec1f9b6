#include "sim/btrace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "sim/message.hpp"

namespace vgprs {

namespace {

void append_key(ByteWriter& w, const DispatchKey& key) {
  w.u64(static_cast<std::uint64_t>(key.at.count_micros()));
  w.u64(static_cast<std::uint64_t>(key.sent_at.count_micros()));
  w.u64(key.seq);
  w.u32(key.sub);
}

DispatchKey read_key(ByteReader& r) {
  DispatchKey key;
  key.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
  key.sent_at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
  key.seq = r.u64();
  key.sub = r.u32();
  return key;
}

std::string record_context(std::uint64_t index, std::uint8_t kind,
                           std::size_t offset, const char* what) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "record %llu (kind 0x%02X) at offset %zu: %s",
                static_cast<unsigned long long>(index), kind, offset, what);
  return buf;
}

}  // namespace

void append_btrace_record(std::vector<std::uint8_t>& dst, BtraceRecord kind,
                          std::span<const std::uint8_t> payload) {
  dst.push_back(kBtraceMagic);
  dst.push_back(kBtraceVersion);
  dst.push_back(static_cast<std::uint8_t>(kind));
  dst.push_back(0);
  const auto len = static_cast<std::uint32_t>(payload.size());
  dst.push_back(static_cast<std::uint8_t>(len >> 24));
  dst.push_back(static_cast<std::uint8_t>(len >> 16));
  dst.push_back(static_cast<std::uint8_t>(len >> 8));
  dst.push_back(static_cast<std::uint8_t>(len));
  dst.insert(dst.end(), payload.begin(), payload.end());
}

void append_btrace_trace(std::vector<std::uint8_t>& dst,
                         const TraceRecorder& trace) {
  ByteWriter p;
  for (const TraceRecord& r : trace.records()) {
    p.clear();
    append_key(p, r.key);
    if (const auto* note = msg_cast<TraceNote>(r.msg.get())) {
      const TraceEntry e = trace.entry(r);
      p.u64(static_cast<std::uint64_t>(note->at.count_micros()));
      p.str(e.from);
      p.str(e.to);
      p.str(note->what);
      p.str(note->detail);
      append_btrace_record(dst, BtraceRecord::kFault, p.data());
    } else {
      p.u32(r.from.value());
      p.u32(r.to.value());
      r.msg->encode_to(p);
      append_btrace_record(dst, BtraceRecord::kTrace, p.data());
    }
  }
}

// --- SpanCaptureLog ---------------------------------------------------------

void SpanCaptureLog::on_span_op(const SpanTracker::Op& op) {
  scratch_.clear();
  switch (op.op) {
    case SpanTracker::OpKind::kOpen:
      scratch_.u64(static_cast<std::uint64_t>(op.at.count_micros()));
      scratch_.u8(static_cast<std::uint8_t>(op.kind));
      scratch_.u64(op.correlation);
      scratch_.str(op.opener);
      append_btrace_record(buf_, BtraceRecord::kSpanOpen, scratch_.data());
      return;
    case SpanTracker::OpKind::kClose:
      scratch_.u64(static_cast<std::uint64_t>(op.at.count_micros()));
      scratch_.u8(static_cast<std::uint8_t>(op.kind));
      scratch_.u8(static_cast<std::uint8_t>(op.outcome));
      scratch_.u64(op.correlation);
      append_btrace_record(buf_, BtraceRecord::kSpanClose, scratch_.data());
      return;
    case SpanTracker::OpKind::kAttribute:
      scratch_.u64(op.correlation);
      append_btrace_record(buf_, BtraceRecord::kSpanAttr, scratch_.data());
      return;
  }
}

void write_btrace_file_info(std::ostream& out, std::string_view scenario,
                            std::uint64_t seed, std::uint32_t iters) {
  ByteWriter p;
  p.str(scenario);
  p.u64(seed);
  p.u32(iters);
  std::vector<std::uint8_t> blob;
  append_btrace_record(blob, BtraceRecord::kFileInfo, p.data());
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
}

// --- offline decode ---------------------------------------------------------

namespace {

struct TraceRec {
  DispatchKey key;
  bool fault = false;
  std::span<const std::uint8_t> payload;
  std::uint64_t index = 0;    // record ordinal, for diagnostics
  std::size_t offset = 0;
};

struct RawSegment {
  std::string system;
  std::map<std::uint32_t, std::string> nodes;
  std::map<std::uint16_t, std::string> msg_names;
  std::vector<DecodedShard> shards;
  std::vector<TraceRec> trace;
  std::vector<SpanTracker::Op> span_ops;
  std::vector<std::pair<std::string, std::int64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> hists;
  bool ended = false;
  std::uint64_t events = 0;
  std::int64_t sim_time_us = 0;
};

struct RawFile {
  BtraceInfo info;
  bool has_info = false;
  std::vector<RawSegment> segments;
  std::uint64_t records = 0;
};

/// Structural parse of one file: frames every record, validates headers,
/// parses scalar payloads eagerly and keeps trace/fault payloads as views
/// (materialized after the per-segment DispatchKey sort).
Result<RawFile> parse_file(std::span<const std::uint8_t> file) {
  RawFile out;
  RawSegment* seg = nullptr;
  bool in_shard = false;
  std::size_t offset = 0;

  auto fail = [&](ErrorCode code, std::uint8_t kind, const char* what) {
    return Error{code, record_context(out.records, kind, offset, what)};
  };

  while (offset < file.size()) {
    if (file.size() - offset < kBtraceHeaderSize) {
      return fail(ErrorCode::kDecodeTruncated, 0,
                  "truncated record header at end of file");
    }
    const std::uint8_t magic = file[offset];
    const std::uint8_t version = file[offset + 1];
    const std::uint8_t kind_raw = file[offset + 2];
    const std::uint32_t len = (std::uint32_t{file[offset + 4]} << 24) |
                              (std::uint32_t{file[offset + 5]} << 16) |
                              (std::uint32_t{file[offset + 6]} << 8) |
                              std::uint32_t{file[offset + 7]};
    if (magic != kBtraceMagic) {
      return fail(ErrorCode::kDecodeBadValue, kind_raw, "bad record magic");
    }
    if (version != kBtraceVersion) {
      return fail(ErrorCode::kDecodeBadValue, kind_raw,
                  "unsupported btrace version");
    }
    if (len > kBtraceMaxRecordBytes) {
      return fail(ErrorCode::kDecodeBadValue, kind_raw,
                  "record length exceeds format maximum");
    }
    if (file.size() - offset - kBtraceHeaderSize < len) {
      return fail(ErrorCode::kDecodeTruncated, kind_raw,
                  "record payload truncated");
    }
    const std::span<const std::uint8_t> payload =
        file.subspan(offset + kBtraceHeaderSize, len);
    const auto kind = static_cast<BtraceRecord>(kind_raw);
    ByteReader r(payload);

    auto need_segment = [&]() -> bool { return seg != nullptr; };

    switch (kind) {
      case BtraceRecord::kFileInfo: {
        if (out.has_info || out.records != 0) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kFileInfo must be the first and only file header");
        }
        out.info.scenario = r.str();
        out.info.seed = r.u64();
        out.info.iters = r.u32();
        out.has_info = true;
        break;
      }
      case BtraceRecord::kRunBegin: {
        if (!out.has_info || seg != nullptr) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kRunBegin outside file body or inside an open segment");
        }
        out.segments.emplace_back();
        seg = &out.segments.back();
        seg->system = r.str();
        (void)r.u32();  // shard count; the kShardBegin records follow
        in_shard = false;
        break;
      }
      case BtraceRecord::kNodeTable: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kNodeTable outside a segment");
        }
        const std::uint32_t count = r.u32();
        for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
          const std::uint32_t id = r.u32();
          std::string name = r.str();
          auto it = seg->nodes.find(id);
          if (it == seg->nodes.end()) {
            seg->nodes.emplace(id, std::move(name));
          } else if (it->second != name) {
            return fail(ErrorCode::kDecodeBadValue, kind_raw,
                        "conflicting node table entry");
          }
        }
        break;
      }
      case BtraceRecord::kMsgTable: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kMsgTable outside a segment");
        }
        const std::uint32_t count = r.u32();
        for (std::uint32_t i = 0; i < count && !r.failed(); ++i) {
          const std::uint16_t wire = r.u16();
          seg->msg_names[wire] = r.str();
        }
        break;
      }
      case BtraceRecord::kShardBegin: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kShardBegin outside a segment");
        }
        DecodedShard sh;
        sh.index = r.u32();
        sh.dropped_records = r.u64();
        sh.dropped_bytes = r.u64();
        seg->shards.push_back(sh);
        in_shard = true;
        break;
      }
      case BtraceRecord::kTrace:
      case BtraceRecord::kFault: {
        if (!need_segment() || !in_shard) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "trace record outside a shard section");
        }
        TraceRec rec;
        rec.key = read_key(r);
        rec.fault = kind == BtraceRecord::kFault;
        rec.payload = payload;
        rec.index = out.records;
        rec.offset = offset;
        if (r.failed()) {
          return fail(ErrorCode::kDecodeTruncated, kind_raw,
                      "trace record shorter than its dispatch key");
        }
        seg->trace.push_back(rec);
        // Defer the rest of the payload to materialization.
        offset += kBtraceHeaderSize + len;
        ++out.records;
        continue;
      }
      case BtraceRecord::kSpanOpen: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span record outside a segment");
        }
        in_shard = false;
        SpanTracker::Op op;
        op.op = SpanTracker::OpKind::kOpen;
        op.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
        const std::uint8_t k = r.u8();
        if (k >= kSpanKindCount) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span kind out of domain");
        }
        op.kind = static_cast<SpanKind>(k);
        op.correlation = r.u64();
        op.opener = r.str();
        seg->span_ops.push_back(std::move(op));
        break;
      }
      case BtraceRecord::kSpanClose: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span record outside a segment");
        }
        in_shard = false;
        SpanTracker::Op op;
        op.op = SpanTracker::OpKind::kClose;
        op.at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
        const std::uint8_t k = r.u8();
        const std::uint8_t oc = r.u8();
        if (k >= kSpanKindCount || oc > 3) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span kind/outcome out of domain");
        }
        op.kind = static_cast<SpanKind>(k);
        op.outcome = static_cast<SpanOutcome>(oc);
        op.correlation = r.u64();
        seg->span_ops.push_back(std::move(op));
        break;
      }
      case BtraceRecord::kSpanAttr: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "span record outside a segment");
        }
        in_shard = false;
        SpanTracker::Op op;
        op.op = SpanTracker::OpKind::kAttribute;
        op.correlation = r.u64();
        seg->span_ops.push_back(std::move(op));
        break;
      }
      case BtraceRecord::kMetricCounter: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "metric record outside a segment");
        }
        in_shard = false;
        std::string name = r.str();
        const auto value = static_cast<std::int64_t>(r.u64());
        seg->counters.emplace_back(std::move(name), value);
        break;
      }
      case BtraceRecord::kMetricGauge: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "metric record outside a segment");
        }
        in_shard = false;
        std::string name = r.str();
        const double value = r.f64();
        seg->gauges.emplace_back(std::move(name), value);
        break;
      }
      case BtraceRecord::kMetricHist: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "metric record outside a segment");
        }
        in_shard = false;
        std::string name = r.str();
        HistogramSummary h;
        h.count = static_cast<std::size_t>(r.u64());
        h.min = r.f64();
        h.max = r.f64();
        h.mean = r.f64();
        h.p50 = r.f64();
        h.p95 = r.f64();
        h.p99 = r.f64();
        seg->hists.emplace_back(std::move(name), h);
        break;
      }
      case BtraceRecord::kRunEnd: {
        if (!need_segment()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kRunEnd outside a segment");
        }
        if (r.u8() != 1 && !r.failed()) {
          return fail(ErrorCode::kDecodeBadValue, kind_raw,
                      "kRunEnd primary flag must be 1");
        }
        seg->events = r.u64();
        seg->sim_time_us = static_cast<std::int64_t>(r.u64());
        seg->ended = true;
        seg = nullptr;
        in_shard = false;
        break;
      }
      default:
        return fail(ErrorCode::kDecodeBadValue, kind_raw,
                    "unknown record kind");
    }
    if (!r.exhausted()) {
      return fail(r.failed() ? ErrorCode::kDecodeTruncated
                             : ErrorCode::kDecodeBadValue,
                  kind_raw,
                  r.failed() ? "payload shorter than its fields"
                             : "payload has trailing bytes");
    }
    offset += kBtraceHeaderSize + len;
    ++out.records;
  }
  if (!out.has_info) {
    return Error{ErrorCode::kDecodeTruncated,
                 "capture has no kFileInfo header (empty or not a btrace "
                 "file)"};
  }
  if (seg != nullptr) {
    return Error{ErrorCode::kDecodeTruncated,
                 "capture ends inside a run segment (missing kRunEnd)"};
  }
  return out;
}

/// Decodes one kTrace/kFault record into an entry of `run`, which takes
/// ownership of the decoded message or fault note (and the fault's endpoint
/// names) the entry views.
Result<TraceEntry> materialize(
    const TraceRec& rec, const std::map<std::uint32_t, std::string_view>& nodes,
    DecodedRun& run) {
  ByteReader r(rec.payload);
  (void)read_key(r);
  auto fail = [&](ErrorCode code, const char* what) {
    return Error{code, record_context(rec.index,
                                      rec.fault ? 0x11 : 0x10, rec.offset,
                                      what)};
  };
  if (rec.fault) {
    const SimTime at = SimTime::from_micros(static_cast<std::int64_t>(r.u64()));
    std::string from = r.str();
    std::string to = r.str();
    std::string what = r.str();
    std::string detail = r.str();
    if (!r.exhausted()) {
      return fail(ErrorCode::kDecodeTruncated, "malformed fault record");
    }
    auto note = pool_message<TraceNote>(at, std::move(what), std::move(detail));
    const TraceEntry e{at, run.names->emplace_back(std::move(from)),
                       run.names->emplace_back(std::move(to)), note->name(),
                       note.get()};
    run.messages.push_back(std::move(note));
    return e;
  }
  const std::uint32_t from = r.u32();
  const std::uint32_t to = r.u32();
  if (r.failed()) {
    return fail(ErrorCode::kDecodeTruncated, "malformed trace record");
  }
  const auto from_it = nodes.find(from);
  const auto to_it = nodes.find(to);
  if (from_it == nodes.end() || to_it == nodes.end()) {
    return fail(ErrorCode::kDecodeBadValue,
                "trace record references a node id missing from the node "
                "table");
  }
  auto decoded = MessageRegistry::instance().decode(
      rec.payload.subspan(rec.payload.size() - r.remaining()));
  if (!decoded.ok()) {
    return Error{decoded.error().code,
                 record_context(rec.index, 0x10, rec.offset,
                                ("wire image does not decode: " +
                                 decoded.error().to_string())
                                    .c_str())};
  }
  const MessagePtr& msg = run.messages.emplace_back(std::move(decoded).value());
  return TraceEntry{rec.key.at, from_it->second, to_it->second, msg->name(),
                    msg.get()};
}

Result<DecodedCapture> assemble(std::vector<RawSegment>& segments,
                                const BtraceInfo& info, std::uint64_t records) {
  DecodedCapture out;
  out.info = info;
  out.records = records;
  for (RawSegment& seg : segments) {
    if (out.runs.empty() || out.runs.back().system != seg.system) {
      out.runs.emplace_back();
      out.runs.back().system = seg.system;
    }
    DecodedRun& run = out.runs.back();
    ++run.segments;
    run.shards.insert(run.shards.end(), seg.shards.begin(), seg.shards.end());

    // The same strict total order the sharded engine merges its per-shard
    // observability buffers in (see dispatch_key.hpp).
    std::sort(seg.trace.begin(), seg.trace.end(),
              [](const TraceRec& a, const TraceRec& b) { return a.key < b.key; });
    std::map<std::uint32_t, std::string_view> nodes;
    for (auto& [id, name] : seg.nodes) {
      nodes.emplace(id, run.names->emplace_back(std::move(name)));
    }
    run.trace.reserve(run.trace.size() + seg.trace.size());
    for (const TraceRec& rec : seg.trace) {
      Result<TraceEntry> entry = materialize(rec, nodes, run);
      if (!entry.ok()) return entry.error();
      run.trace.push_back(std::move(entry).value());
    }

    // Spans: replay the op log through a fresh tracker per segment — each
    // segment was a separate Network, so correlations must not bleed.
    SpanTracker tracker;
    tracker.set_enabled(true);
    for (const SpanTracker::Op& op : seg.span_ops) tracker.apply(op);
    run.spans.insert(run.spans.end(), tracker.spans().begin(),
                     tracker.spans().end());

    // Metric deltas: counters and gauges sum across a group's segments —
    // the same aggregation vgprs_report's fig9 loop performs with
    // MetricsRegistry::merge_from.
    for (auto& [name, v] : seg.counters) run.metrics.counters[name] += v;
    for (auto& [name, v] : seg.gauges) run.metrics.gauges[name] += v;
    for (auto& [name, h] : seg.hists) {
      HistogramSummary& dst = run.metrics.histograms[name];
      if (dst.count == 0) {
        dst = h;
      } else if (h.count != 0) {
        // Percentiles of separate segments cannot be merged exactly; keep
        // exact count/min/max and a weighted mean, latest percentiles.
        const double total = static_cast<double>(dst.count + h.count);
        dst.mean = (dst.mean * static_cast<double>(dst.count) +
                    h.mean * static_cast<double>(h.count)) /
                   total;
        dst.min = std::min(dst.min, h.min);
        dst.max = std::max(dst.max, h.max);
        dst.count += h.count;
        dst.p50 = h.p50;
        dst.p95 = h.p95;
        dst.p99 = h.p99;
      }
    }
    run.events += seg.events;
    run.sim_time_ms += static_cast<double>(seg.sim_time_us) / 1000.0;
  }
  return out;
}

}  // namespace

Result<DecodedCapture> decode_capture(std::span<const std::uint8_t> file) {
  Result<RawFile> parsed = parse_file(file);
  if (!parsed.ok()) return parsed.error();
  RawFile raw = std::move(parsed).value();
  return assemble(raw.segments, raw.info, raw.records);
}

}  // namespace vgprs
