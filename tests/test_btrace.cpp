// vgprs.btrace.v1 packed binary capture: live-vs-decoded equality (the
// decoder must reconstruct the exact trace / span / metric artifacts a live
// run exports), ring eviction accounting, fault records, and robustness of
// the decoder against truncated or corrupted input (clean diagnostics, never
// a crash).
#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/btrace.hpp"
#include "sim/export.hpp"
#include "sim/fault.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

Result<DecodedCapture> decode_str(const std::string& s) {
  return decode_capture(as_bytes(s));
}

void expect_traces_equal(const std::vector<TraceEntry>& a,
                         const std::vector<TraceEntry>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at, b[i].at) << "entry " << i;
    EXPECT_EQ(a[i].from, b[i].from) << "entry " << i;
    EXPECT_EQ(a[i].to, b[i].to) << "entry " << i;
    EXPECT_EQ(a[i].message, b[i].message) << "entry " << i;
    EXPECT_EQ(a[i].summary, b[i].summary) << "entry " << i;
  }
}

void expect_spans_equal(const std::vector<Span>& a, const std::vector<Span>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].kind, b[i].kind) << "span " << i;
    EXPECT_EQ(a[i].outcome, b[i].outcome) << "span " << i;
    EXPECT_EQ(a[i].correlation, b[i].correlation) << "span " << i;
    EXPECT_EQ(a[i].opened, b[i].opened) << "span " << i;
    EXPECT_EQ(a[i].closed, b[i].closed) << "span " << i;
    EXPECT_EQ(a[i].hops, b[i].hops) << "span " << i;
    EXPECT_EQ(a[i].opener, b[i].opener) << "span " << i;
  }
}

struct CaptureRun {
  std::string bytes;  // the capture file image
  std::vector<TraceEntry> live_trace;
  std::vector<Span> live_spans;
  MetricsSnapshot snapshot;
  std::uint64_t events = 0;
  std::int64_t sim_time_us = 0;
};

/// Registration + `calls` call cycles with capture enabled, everything a
/// live run would export collected alongside the capture image.
CaptureRun run_capture_scenario(bool sharded, unsigned workers,
                                std::size_t ring_bytes = 0,
                                std::uint32_t calls = 3) {
  VgprsParams params;
  params.sharded = sharded;
  params.workers = workers;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->net.enable_capture(CaptureConfig{ring_bytes});
  std::ostringstream os;
  write_btrace_file_info(os, "test", params.seed, calls);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  std::uint64_t events = s->settle();
  Msisdn callee = s->ms[0]->config().msisdn;
  for (std::uint32_t i = 0; i < calls; ++i) {
    s->terminals[0]->place_call(callee);
    events += s->settle();
    s->terminals[0]->hangup();
    events += s->settle();
  }
  CaptureRun out;
  out.snapshot = s->net.metrics_snapshot();
  out.sim_time_us = s->net.now().count_micros();
  s->net.write_capture_segment(os, "vgprs", events, out.snapshot);
  out.bytes = os.str();
  s->net.trace().for_each(
      [&](const TraceEntry& e) { out.live_trace.push_back(e); });
  out.live_spans = s->net.spans().spans();
  out.events = events;
  return out;
}

TEST(BtraceRoundTrip, SequentialCaptureDecodesToLiveArtifacts) {
  register_all_messages();
  CaptureRun run = run_capture_scenario(false, 1);
  Result<DecodedCapture> decoded = decode_str(run.bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const DecodedCapture& cap = decoded.value();
  EXPECT_EQ(cap.info.scenario, "test");
  EXPECT_EQ(cap.info.seed, 1u);
  EXPECT_EQ(cap.info.iters, 3u);
  ASSERT_EQ(cap.runs.size(), 1u);
  const DecodedRun& r = cap.runs.front();
  EXPECT_EQ(r.system, "vgprs");
  EXPECT_EQ(r.events, run.events);
  EXPECT_DOUBLE_EQ(r.sim_time_ms,
                   static_cast<double>(run.sim_time_us) / 1000.0);
  expect_traces_equal(r.trace, run.live_trace);
  expect_spans_equal(r.spans, run.live_spans);
  EXPECT_EQ(r.metrics.counters, run.snapshot.counters);
  EXPECT_EQ(r.metrics.gauges, run.snapshot.gauges);
  // The regenerated trace must serialize byte-identically too.
  std::ostringstream live_jsonl;
  std::ostringstream dec_jsonl;
  write_trace_jsonl(live_jsonl, run.live_trace);
  write_trace_jsonl(dec_jsonl, r.trace);
  EXPECT_EQ(live_jsonl.str(), dec_jsonl.str());
}

TEST(BtraceRoundTrip, ShardedCaptureMatchesSequentialDecode) {
  register_all_messages();
  CaptureRun seq = run_capture_scenario(false, 1);
  CaptureRun sharded = run_capture_scenario(true, 8);
  Result<DecodedCapture> a = decode_str(seq.bytes);
  Result<DecodedCapture> b = decode_str(sharded.bytes);
  ASSERT_TRUE(a.ok()) << a.error().to_string();
  ASSERT_TRUE(b.ok()) << b.error().to_string();
  ASSERT_EQ(b.value().runs.size(), 1u);
  // The sharded engine is deterministic and thread-count-invariant, so the
  // decoded sharded capture must equal the sequential one entry for entry.
  expect_traces_equal(b.value().runs.front().trace,
                      a.value().runs.front().trace);
  expect_spans_equal(b.value().runs.front().spans,
                     a.value().runs.front().spans);
  EXPECT_EQ(b.value().runs.front().metrics.counters,
            a.value().runs.front().metrics.counters);
  EXPECT_GT(b.value().runs.front().shards.size(), 1u);
}

TEST(BtraceRoundTrip, RingEvictionKeepsNewestRecordsAndCountsDrops) {
  register_all_messages();
  CaptureRun full = run_capture_scenario(false, 1);
  // A ring far smaller than the full capture: old chunks must be evicted.
  CaptureRun ring = run_capture_scenario(false, 1, 4 * 1024);
  Result<DecodedCapture> decoded = decode_str(ring.bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  const DecodedRun& r = decoded.value().runs.front();
  ASSERT_EQ(r.shards.size(), 1u);
  EXPECT_GT(r.shards.front().dropped_records, 0u);
  EXPECT_GT(r.shards.front().dropped_bytes, 0u);
  ASSERT_FALSE(r.trace.empty());
  ASSERT_LT(r.trace.size(), full.live_trace.size());
  // What survives is exactly the newest suffix of the full trace.
  const std::size_t skip = full.live_trace.size() - r.trace.size();
  std::vector<TraceEntry> tail(full.live_trace.begin() +
                                   static_cast<std::ptrdiff_t>(skip),
                               full.live_trace.end());
  expect_traces_equal(r.trace, tail);
}

TEST(BtraceRoundTrip, FaultAnnotationsRoundTrip) {
  register_all_messages();
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->net.enable_capture({});
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"GPRS_Attach_Request", "", "", 1, 1},
       FaultKind::kDrop});
  s->net.install_faults(std::move(sched));
  std::ostringstream os;
  write_btrace_file_info(os, "faults", params.seed, 1);
  s->ms[0]->power_on();
  std::uint64_t events = s->settle();
  MetricsSnapshot snap = s->net.metrics_snapshot();
  s->net.write_capture_segment(os, "vgprs", events, snap);
  std::vector<TraceEntry> live;
  s->net.trace().for_each([&](const TraceEntry& e) { live.push_back(e); });
  Result<DecodedCapture> decoded = decode_str(os.str());
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_traces_equal(decoded.value().runs.front().trace, live);
  // The injected drop's annotation must be among the decoded entries.
  bool saw_fault = false;
  for (const TraceEntry& e : decoded.value().runs.front().trace) {
    if (e.message.find("fault.drop") != std::string::npos) saw_fault = true;
  }
  EXPECT_TRUE(saw_fault) << "fault annotation lost in capture round-trip";
}

// --- decoder robustness -----------------------------------------------------

TEST(BtraceRobustness, TruncationAtAnyLengthFailsCleanly) {
  register_all_messages();
  CaptureRun run = run_capture_scenario(false, 1, 0, 1);
  const std::string& full = run.bytes;
  Result<DecodedCapture> whole = decode_str(full);
  ASSERT_TRUE(whole.ok());
  // Every strict prefix must either decode (ends exactly on a record
  // boundary before the open segment) or fail with a diagnostic — and a
  // prefix cut mid-segment must name the problem, never crash.
  for (std::size_t len = 0; len < full.size();
       len += (len < 256 ? 1 : 211)) {
    Result<DecodedCapture> r = decode_str(full.substr(0, len));
    if (!r.ok()) {
      EXPECT_FALSE(r.error().message.empty()) << "silent failure at " << len;
    }
  }
}

TEST(BtraceRobustness, ByteFlipsNeverCrashTheDecoder) {
  register_all_messages();
  CaptureRun run = run_capture_scenario(false, 1, 0, 1);
  std::string bytes = run.bytes;
  // Flip a byte, decode, restore; stride keeps the sweep fast while still
  // hitting headers, tables, keys, wire images, and metric payloads.
  for (std::size_t pos = 0; pos < bytes.size(); pos += 13) {
    const char orig = bytes[pos];
    bytes[pos] = static_cast<char>(bytes[pos] ^ 0xFF);
    Result<DecodedCapture> r = decode_str(bytes);
    if (!r.ok()) {
      EXPECT_FALSE(r.error().message.empty()) << "silent failure at " << pos;
    }
    bytes[pos] = orig;
  }
}

TEST(BtraceRobustness, UnknownRecordKindIsDiagnosed) {
  ByteWriter p;
  p.str("x");
  p.u64(1);
  p.u32(1);
  std::vector<std::uint8_t> file;
  append_btrace_record(file, BtraceRecord::kFileInfo, p.data());
  append_btrace_record(file, static_cast<BtraceRecord>(0x7F), {});
  Result<DecodedCapture> r = decode_capture(file);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("unknown record kind"), std::string::npos)
      << r.error().message;
}

TEST(BtraceRobustness, MissingFileInfoIsDiagnosed) {
  std::vector<std::uint8_t> empty;
  Result<DecodedCapture> r = decode_capture(empty);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("kFileInfo"), std::string::npos);
}

TEST(BtraceRobustness, OversizedRecordLengthIsDiagnosed) {
  std::vector<std::uint8_t> file = {kBtraceMagic, kBtraceVersion, 0x01, 0,
                                    0xFF, 0xFF, 0xFF, 0xFF};
  Result<DecodedCapture> r = decode_capture(file);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("exceeds"), std::string::npos)
      << r.error().message;
}

}  // namespace
}  // namespace vgprs
