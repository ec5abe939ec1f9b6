// vgprs.btrace.v1: packed binary observability capture.
//
// The capture serializes the one record stream the TraceRecorder keeps
// (sim/trace.hpp): each delivery as a packed record of integers plus the
// message's wire image, encoded when the segment is written, with no name
// strings and no summary formatting.  An offline decoder reconstructs the
// exact live-export artifacts later.
//
// File layout (all integers big-endian, matching ByteWriter):
//
//   record := header payload
//   header := magic u8 (0xB7) | version u8 (1) | kind u8 | reserved u8 (0)
//             | length u32 (payload bytes)
//
// A capture file is a flat record stream:
//
//   kFileInfo                       scenario str, seed u64, iters u32
//   per run segment:
//     kRunBegin                     system str, num_shards u32
//     kNodeTable                    node-name intern table (id -> name)
//     kMsgTable                     wire-type -> message-name table
//     per shard section:
//       kShardBegin                 shard u32, dropped records/bytes u64
//       kTrace / kFault records     the section's stream, dispatch order
//     kSpanOpen/kSpanClose/kSpanAttr  global-order span operation log
//     kMetricCounter/Gauge/Hist    final metric deltas for the segment
//     kRunEnd                       primary u8 (always 1), events u64,
//                                   sim_time_us i64
//
// The writer puts the whole trace, already merged, in the first of the
// segment's shard sections and leaves the others empty.  Older writers
// spread it over the sections by dispatching shard; the decoder merges a
// segment's sections by DispatchKey either way.
//
// kTrace records carry the DispatchKey (at, sent_at, seq, sub) of the
// dispatch that produced them plus NodeId endpoints and the message's wire
// image; the decoder sorts a segment's records by DispatchKey — the same
// strict total order the sharded engine's merge uses — then re-decodes the
// wire bytes through the MessageRegistry, so message names and parameter
// summaries are regenerated byte-identically without ever having been
// formatted during the run.  Node names are interned once per segment in
// kNodeTable; procedure (span) names are the SpanKind enum.
//
// Versioning: the per-record (magic, version) pair gates decode — an
// unknown version or record kind is a clean diagnostic, never a crash; all
// payload parsing goes through the bounds-checked ByteReader and a decoder
// must tolerate truncation at any byte.  Compatible extensions add new
// record kinds (old decoders may skip unknown kinds of a known version);
// any payload-layout change bumps the version.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sim/dispatch_key.hpp"
#include "sim/message.hpp"
#include "sim/metrics.hpp"
#include "sim/span.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace vgprs {

inline constexpr std::uint8_t kBtraceMagic = 0xB7;
inline constexpr std::uint8_t kBtraceVersion = 1;
inline constexpr std::size_t kBtraceHeaderSize = 8;
/// Upper bound on a single record's payload; anything larger in a file is
/// corruption, not data (the largest legitimate record is a node table).
inline constexpr std::uint32_t kBtraceMaxRecordBytes = 1u << 24;

enum class BtraceRecord : std::uint8_t {
  kFileInfo = 0x01,
  kRunBegin = 0x02,
  kNodeTable = 0x03,
  kMsgTable = 0x04,
  kShardBegin = 0x05,
  kRunEnd = 0x06,
  kTrace = 0x10,
  kFault = 0x11,
  kSpanOpen = 0x12,
  kSpanClose = 0x13,
  kSpanAttr = 0x14,
  kMetricCounter = 0x18,
  kMetricGauge = 0x19,
  kMetricHist = 0x1A,
};

/// Appends one framed record (header + payload) to `dst`.
void append_btrace_record(std::vector<std::uint8_t>& dst, BtraceRecord kind,
                          std::span<const std::uint8_t> payload);

/// Appends one kTrace record per delivery of `trace`, and one kFault record
/// per TraceNote, in trace order.  Wire images are encoded here.
void append_btrace_trace(std::vector<std::uint8_t>& dst,
                         const TraceRecorder& trace);

/// SpanTracker observer serializing the global-order span operation log.
/// Ops arrive in the same deterministic order on every worker count (direct
/// calls in the sequential engine, merge-time replay in the sharded one),
/// so the log needs no keys — replaying it in file order reconstructs the
/// tracker's spans exactly.
class SpanCaptureLog final : public SpanObserver {
 public:
  void on_span_op(const SpanTracker::Op& op) override;

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return buf_; }
  [[nodiscard]] bool empty() const { return buf_.empty(); }
  void clear() { buf_.clear(); }

 private:
  std::vector<std::uint8_t> buf_;
  ByteWriter scratch_;
};

/// Writes the one-per-file kFileInfo record.
void write_btrace_file_info(std::ostream& out, std::string_view scenario,
                            std::uint64_t seed, std::uint32_t iters);

// --- offline decode ---------------------------------------------------------

struct BtraceInfo {
  std::string scenario;
  std::uint64_t seed = 0;
  std::uint32_t iters = 0;
};

struct DecodedShard {
  std::uint32_t index = 0;
  std::uint64_t dropped_records = 0;
  std::uint64_t dropped_bytes = 0;
};

/// One reconstructed run: consecutive capture segments with the same system
/// name merged the way vgprs_report aggregates repeated iterations
/// (fig9-style): traces and spans concatenate in segment order, counters
/// and gauges sum, events sum, simulated time sums in ms.
struct DecodedRun {
  std::string system;
  std::size_t segments = 0;
  std::vector<DecodedShard> shards;
  std::vector<TraceEntry> trace;  // merged into global dispatch order
  std::vector<Span> spans;
  MetricsSnapshot metrics;
  std::uint64_t events = 0;
  double sim_time_ms = 0.0;
  // What `trace` views: node names and every decoded message or fault
  // note, shared so that the views outlive any copy or move of the run.
  std::shared_ptr<std::deque<std::string>> names =
      std::make_shared<std::deque<std::string>>();
  std::vector<MessagePtr> messages;
};

struct DecodedCapture {
  BtraceInfo info;
  std::vector<DecodedRun> runs;
  std::uint64_t records = 0;  // total records parsed
};

/// Decodes a single capture file.  Message wire images are re-decoded
/// through the (process-global) MessageRegistry — register the protocol
/// modules first.  Any structural problem (bad magic, unknown version,
/// truncation, over-long record, unparseable payload, unknown node id or
/// wire type) returns a diagnostic error naming the offending record and
/// byte offset; decode never crashes on corrupt input.
[[nodiscard]] Result<DecodedCapture> decode_capture(
    std::span<const std::uint8_t> file);

}  // namespace vgprs
