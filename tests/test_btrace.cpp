// vgprs.btrace.v1 packed binary capture: live-vs-decoded equality (the
// decoder must reconstruct the exact trace / span / metric artifacts a live
// run exports), fault records, captures written by the previous writer
// (one shard section per engine shard), and robustness of the decoder
// against truncated or corrupted input (clean diagnostics, never a crash).
#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "sim/btrace.hpp"
#include "sim/export.hpp"
#include "sim/fault.hpp"
#include "tr23821/tr_scenario.hpp"
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
    EXPECT_EQ(a[i].summary(), b[i].summary()) << "entry " << i;
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
  std::unique_ptr<VgprsScenario> scenario;  // what live_trace views
  std::vector<TraceEntry> live_trace;
  std::vector<Span> live_spans;
  MetricsSnapshot snapshot;
  std::uint64_t events = 0;
  std::int64_t sim_time_us = 0;
};

/// Registration + `calls` call cycles with capture enabled, everything a
/// live run would export collected alongside the capture image.
CaptureRun run_capture_scenario(bool sharded, unsigned workers,
                                std::uint32_t calls = 3) {
  VgprsParams params;
  params.sharded = sharded;
  params.workers = workers;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->net.enable_capture();
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
  out.live_trace = s->net.trace().entries();
  out.live_spans = s->net.spans().spans();
  out.events = events;
  out.scenario = std::move(s);
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

TEST(BtraceRoundTrip, FaultAnnotationsRoundTrip) {
  register_all_messages();
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->net.enable_capture();
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
  const std::vector<TraceEntry> live = s->net.trace().entries();
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

// --- captures written by the previous writer ---------------------------------

// tests/golden/capture_*.btrace were written by the writer this one
// replaced, which kept one ring per engine shard and wrote one shard
// section each:
//   vgprs_report --scenario fig6 --iters 1 --threads 4 --capture ...
//   vgprs_report --faults --iters 1 --capture ...
// Each must decode to what the same run records live today: the same
// trace JSONL, and the same spans, metrics, events and simulated time that
// vgprs_report's per-run JSON is built from.

std::string read_golden(const std::string& name) {
  std::ifstream in(std::string(VGPRS_GOLDEN_DIR) + "/" + name,
                   std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden capture " << name;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// What vgprs_report records for one finished network.
struct LiveRun {
  std::shared_ptr<const void> scenario;  // what trace views
  std::vector<TraceEntry> trace;
  std::vector<Span> spans;
  MetricsSnapshot snapshot;
  std::uint64_t events = 0;
  std::int64_t sim_time_us = 0;
};

template <typename Scenario>
LiveRun finish_live(std::unique_ptr<Scenario> s, std::uint64_t events) {
  LiveRun out;
  out.trace = s->net.trace().entries();
  out.spans = s->net.spans().spans();
  out.snapshot = s->net.metrics_snapshot();
  out.events = events;
  out.sim_time_us = s->net.now().count_micros();
  out.scenario = std::move(s);
  return out;
}

/// vgprs_report --faults --iters 1 on either system.
template <typename Scenario>
LiveRun run_fault_cycle(std::unique_ptr<Scenario> s) {
  s->net.spans().set_enabled(true);
  const std::uint64_t events = drive_fault_cycles(*s, 1);
  return finish_live(std::move(s), events);
}

std::string jsonl(const std::vector<TraceEntry>& trace) {
  std::ostringstream os;
  write_trace_jsonl(os, trace);
  return os.str();
}

void expect_decodes_to_live(const DecodedCapture& cap,
                            const std::vector<LiveRun>& live) {
  const std::vector<DecodedRun>& runs = cap.runs;
  ASSERT_EQ(runs.size(), live.size());
  for (std::size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(jsonl(runs[i].trace), jsonl(live[i].trace)) << "run " << i;
    expect_spans_equal(runs[i].spans, live[i].spans);
    EXPECT_EQ(runs[i].metrics.counters, live[i].snapshot.counters);
    EXPECT_EQ(runs[i].metrics.gauges, live[i].snapshot.gauges);
    EXPECT_EQ(runs[i].events, live[i].events);
    EXPECT_DOUBLE_EQ(runs[i].sim_time_ms,
                     static_cast<double>(live[i].sim_time_us) / 1000.0);
  }
}

TEST(BtraceRoundTrip, PreviousWriterShardedCaptureDecodesToLiveRun) {
  register_all_messages();
  VgprsParams params;
  params.sharded = true;
  params.workers = 4;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  std::uint64_t events = s->settle();
  s->terminals[0]->place_call(s->ms[0]->config().msisdn);
  events += s->settle();
  s->terminals[0]->hangup();
  events += s->settle();
  std::vector<LiveRun> live;
  live.push_back(finish_live(std::move(s), events));
  Result<DecodedCapture> decoded =
      decode_str(read_golden("capture_fig6_iters1_threads4.btrace"));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  EXPECT_GT(decoded.value().runs.front().shards.size(), 1u)
      << "the golden capture should hold one section per engine shard";
  expect_decodes_to_live(decoded.value(), live);
}

TEST(BtraceRoundTrip, PreviousWriterFaultCaptureDecodesToLiveRun) {
  register_all_messages();
  std::vector<LiveRun> live;
  live.push_back(run_fault_cycle(build_vgprs(VgprsParams{})));
  live.push_back(run_fault_cycle(build_tr23821(TrParams{})));
  Result<DecodedCapture> decoded =
      decode_str(read_golden("capture_faults_iters1.btrace"));
  ASSERT_TRUE(decoded.ok()) << decoded.error().to_string();
  expect_decodes_to_live(decoded.value(), live);
}

// --- decoder robustness -----------------------------------------------------

TEST(BtraceRobustness, TruncationAtAnyLengthFailsCleanly) {
  register_all_messages();
  CaptureRun run = run_capture_scenario(false, 1, 1);
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
  CaptureRun run = run_capture_scenario(false, 1, 1);
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
