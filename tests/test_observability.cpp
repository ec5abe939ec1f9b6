// The observability layer: SpanTracker lifecycle and outcomes,
// MetricsRegistry instruments / snapshot / diff / merge, Histogram edge
// cases, and structural validation of every JSON export (metrics snapshot,
// JSONL trace, Chrome trace_event / Perfetto spans) — including the Fig. 9
// handoff export the vgprs_report tool ships.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/export.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

// --- Histogram edge cases ---------------------------------------------------

TEST(HistogramEdge, EmptyHistogramReturnsZeroEverywhere) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 0.0);
  HistogramSummary s = h.summary();
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.p99, 0.0);
}

TEST(HistogramEdge, SingleSampleIsEveryStatistic) {
  Histogram h;
  h.add(42.5);
  EXPECT_EQ(h.count(), 1u);
  EXPECT_DOUBLE_EQ(h.mean(), 42.5);
  EXPECT_DOUBLE_EQ(h.min(), 42.5);
  EXPECT_DOUBLE_EQ(h.max(), 42.5);
  EXPECT_DOUBLE_EQ(h.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 42.5);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.5);
}

TEST(HistogramEdge, NearestRankBoundaries) {
  Histogram h;
  for (int v = 1; v <= 10; ++v) h.add(static_cast<double>(v));
  // Nearest-rank: q=0 is the smallest sample, q=1 the largest.
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 10.0);
  // q outside [0,1] clamps instead of indexing out of range.
  EXPECT_DOUBLE_EQ(h.percentile(-0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.5), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(h.mean(), 5.5);
}

TEST(HistogramEdge, SimDurationOverloadRecordsMillis) {
  Histogram h;
  h.add(SimDuration::millis(250));
  EXPECT_DOUBLE_EQ(h.mean(), 250.0);
}

TEST(HistogramEdge, FixedBucketModeKeepsScalarsExact) {
  Histogram h = Histogram::fixed(0.0, 100.0, 10);
  EXPECT_TRUE(h.fixed_buckets());
  h.add(5.0);
  h.add(95.0);
  h.add(250.0);  // out of range: clamped to the top bucket
  EXPECT_EQ(h.count(), 3u);
  // min/max/mean track the raw samples even though buckets quantize.
  EXPECT_DOUBLE_EQ(h.min(), 5.0);
  EXPECT_DOUBLE_EQ(h.max(), 250.0);
  EXPECT_NEAR(h.mean(), (5.0 + 95.0 + 250.0) / 3.0, 1e-9);
  // Percentiles are bucket midpoints clamped to the observed range.
  EXPECT_GE(h.percentile(0.0), 5.0);
  EXPECT_LE(h.percentile(1.0), 250.0);
}

TEST(HistogramEdge, MergeRequiresMatchingLayout) {
  Histogram sampled;
  sampled.add(1.0);
  Histogram bucketed = Histogram::fixed(0.0, 10.0, 5);
  bucketed.add(1.0);
  EXPECT_THROW(sampled.merge(bucketed), std::logic_error);

  Histogram other;
  other.add(3.0);
  sampled.merge(other);
  EXPECT_EQ(sampled.count(), 2u);
  EXPECT_DOUBLE_EQ(sampled.percentile(1.0), 3.0);
}

// --- SpanTracker ------------------------------------------------------------

TEST(SpanTrackerTest, DisabledTrackerRecordsNothing) {
  SpanTracker t;
  EXPECT_FALSE(t.enabled());
  t.open(SpanKind::kRegistration, 7, "MS1", SimTime());
  EXPECT_TRUE(t.spans().empty());
  EXPECT_FALSE(t.close(SpanKind::kRegistration, 7, SpanOutcome::kOk,
                       SimTime()));
}

TEST(SpanTrackerTest, CloseMatchesMostRecentOpenSpan) {
  SpanTracker t;
  t.set_enabled(true);
  t.open(SpanKind::kOrigination, 5, "MS1", SimTime::from_micros(100));
  t.open(SpanKind::kOrigination, 5, "MS1", SimTime::from_micros(200));
  ASSERT_TRUE(t.close(SpanKind::kOrigination, 5, SpanOutcome::kOk,
                      SimTime::from_micros(300)));
  // LIFO: the second span closed; the first is still open.
  EXPECT_EQ(t.open_count(), 1u);
  EXPECT_EQ(t.spans()[0].outcome, SpanOutcome::kOpen);
  EXPECT_EQ(t.spans()[1].outcome, SpanOutcome::kOk);
  EXPECT_EQ(t.spans()[1].duration().count_micros(), 100);
  // Closing with no matching open span reports failure.
  EXPECT_FALSE(t.close(SpanKind::kHandoff, 5, SpanOutcome::kOk,
                       SimTime::from_micros(400)));
}

TEST(SpanTrackerTest, AttributeDeliveryBumpsOpenSpansOnly) {
  SpanTracker t;
  t.set_enabled(true);
  t.open(SpanKind::kRegistration, 9, "MS1", SimTime());
  t.attribute_delivery(9);
  t.attribute_delivery(9);
  t.attribute_delivery(12345);  // no span with this correlation
  ASSERT_TRUE(
      t.close(SpanKind::kRegistration, 9, SpanOutcome::kOk, SimTime()));
  EXPECT_EQ(t.spans()[0].hops, 2u);
  t.attribute_delivery(9);  // span closed: no further attribution
  EXPECT_EQ(t.spans()[0].hops, 2u);
}

TEST(SpanTrackerTest, RegistrationOpensAndClosesOkInLiveScenario) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->ms[0]->power_on();
  s->settle();
  EXPECT_EQ(s->net.spans().count(SpanKind::kRegistration, SpanOutcome::kOk),
            1u);
  EXPECT_EQ(s->net.spans().open_count(), 0u);
  const Span& span = s->net.spans().spans().front();
  EXPECT_GT(span.duration().count_micros(), 0);
  EXPECT_GT(span.hops, 0u);
}

TEST(SpanTrackerTest, InjectedTimeoutSurfacesAsTimeoutOutcome) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  LinkProfile dead;
  dead.loss_probability = 1.0;
  s->net.set_link_profile(s->ms[0]->id(), s->bts->id(), dead);
  s->ms[0]->power_on();
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kDetached);
  // The guard timer fired; the span must say so — not linger open.
  EXPECT_EQ(
      s->net.spans().count(SpanKind::kRegistration, SpanOutcome::kTimeout),
      1u);
  EXPECT_EQ(s->net.spans().open_count(), 0u);
}

TEST(SpanTrackerTest, CallCycleYieldsOriginationAndReleaseSpans) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->ms[0]->hangup();
  s->settle();
  const SpanTracker& spans = s->net.spans();
  EXPECT_EQ(spans.count(SpanKind::kOrigination, SpanOutcome::kOk), 1u);
  EXPECT_EQ(spans.count(SpanKind::kRelease, SpanOutcome::kOk), 1u);
  EXPECT_EQ(spans.count(SpanKind::kPdpActivation, SpanOutcome::kOk), 2u)
      << "signaling context at registration + voice context for the call";
  EXPECT_EQ(spans.open_count(), 0u);
}

// --- MetricsRegistry --------------------------------------------------------

TEST(MetricsRegistryTest, InstrumentsAccumulateAndSnapshot) {
  MetricsRegistry m;
  ++m.counter("net/messages_sent");
  ++m.counter("net/messages_sent");
  m.gauge("sgsn/contexts") = 3.0;
  m.histogram("call/setup_ms").add(100.0);
  m.histogram("call/setup_ms").add(200.0);
  MetricsSnapshot snap = m.snapshot();
  EXPECT_EQ(snap.counters.at("net/messages_sent"), 2);
  EXPECT_DOUBLE_EQ(snap.gauges.at("sgsn/contexts"), 3.0);
  EXPECT_EQ(snap.histograms.at("call/setup_ms").count, 2u);
  EXPECT_DOUBLE_EQ(snap.histograms.at("call/setup_ms").mean, 150.0);
}

TEST(MetricsRegistryTest, DisabledRegistryWritesToSink) {
  MetricsRegistry m;
  m.set_enabled(false);
  ++m.counter("net/messages_sent");
  m.gauge("x") = 9.0;
  m.histogram("y").add(1.0);
  EXPECT_TRUE(m.counters().empty());
  EXPECT_TRUE(m.gauges().empty());
  EXPECT_TRUE(m.histograms().empty());
}

TEST(MetricsRegistryTest, DiffSubtractsCounters) {
  MetricsRegistry m;
  ++m.counter("calls");
  MetricsSnapshot before = m.snapshot();
  ++m.counter("calls");
  ++m.counter("calls");
  ++m.counter("drops");  // key absent from `before`
  MetricsSnapshot delta = MetricsSnapshot::diff(before, m.snapshot());
  EXPECT_EQ(delta.counters.at("calls"), 2);
  EXPECT_EQ(delta.counters.at("drops"), 1);
}

TEST(MetricsRegistryTest, MergeFoldsCountersGaugesHistograms) {
  MetricsRegistry a;
  MetricsRegistry b;
  ++a.counter("calls");
  ++b.counter("calls");
  a.gauge("load") = 1.0;
  b.gauge("load") = 2.0;
  a.histogram("ms").add(10.0);
  b.histogram("ms").add(30.0);
  a.merge_from(b);
  MetricsSnapshot snap = a.snapshot();
  EXPECT_EQ(snap.counters.at("calls"), 2);
  EXPECT_DOUBLE_EQ(snap.gauges.at("load"), 3.0);
  EXPECT_EQ(snap.histograms.at("ms").count, 2u);
}

// A fig6-style terminated call, run at 1, 2 and 8 workers: the snapshot /
// diff / merge pipeline the sharded engine uses to fold per-shard registries
// must leave counters and histogram percentiles identical to the sequential
// run — metrics are part of the determinism contract, not just traces.
TEST(MetricsRegistryTest, SnapshotDiffMergeAreWorkerCountInvariant) {
  auto run_fig6 = [](unsigned workers) {
    VgprsParams params;
    params.seed = 7;
    if (workers > 1) {
      params.sharded = true;
      params.workers = workers;
    }
    auto s = build_vgprs(params);
    s->net.spans().set_enabled(true);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    MetricsSnapshot registered = s->net.metrics_snapshot();
    s->terminals[0]->place_call(s->ms[0]->config().msisdn);
    s->settle();
    // Procedure latencies live in spans; fold them into the registry so the
    // snapshot carries histograms whose percentiles must match too.
    for (const Span& sp : s->net.spans().spans()) {
      if (sp.is_open()) continue;
      std::string name = "span/";
      name += to_string(sp.kind);
      name += "_ms";
      s->net.metrics().histogram(name).add(sp.duration().as_millis());
    }
    MetricsSnapshot total = s->net.metrics_snapshot();
    return std::pair{registered, total};
  };

  auto [seq_registered, seq_total] = run_fig6(1);
  MetricsSnapshot seq_call = MetricsSnapshot::diff(seq_registered, seq_total);
  ASSERT_FALSE(seq_total.counters.empty());
  ASSERT_FALSE(seq_total.histograms.empty());

  for (unsigned w : {2u, 8u}) {
    auto [registered, total] = run_fig6(w);
    EXPECT_EQ(total.counters, seq_total.counters)
        << "counters differ between 1 and " << w << " workers";
    ASSERT_EQ(total.histograms.size(), seq_total.histograms.size());
    for (const auto& [name, h] : seq_total.histograms) {
      const HistogramSummary& got = total.histograms.at(name);
      EXPECT_EQ(got.count, h.count) << name << " at " << w << " workers";
      EXPECT_DOUBLE_EQ(got.p50, h.p50) << name << " at " << w << " workers";
      EXPECT_DOUBLE_EQ(got.p95, h.p95) << name << " at " << w << " workers";
      EXPECT_DOUBLE_EQ(got.p99, h.p99) << name << " at " << w << " workers";
    }
    // The call-phase delta (diff of the two snapshots) is invariant too.
    MetricsSnapshot call = MetricsSnapshot::diff(registered, total);
    EXPECT_EQ(call.counters, seq_call.counters)
        << "call-phase counter delta differs at " << w << " workers";
  }

  // merge_from folds a whole run into an aggregate the same way at any
  // worker count: aggregating the 8-worker run on top of the sequential one
  // doubles every counter and histogram count.
  MetricsRegistry aggregate;
  for (unsigned w : {1u, 8u}) {
    VgprsParams params;
    params.seed = 7;
    if (w > 1) {
      params.sharded = true;
      params.workers = w;
    }
    auto s = build_vgprs(params);
    s->net.spans().set_enabled(true);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->terminals[0]->place_call(s->ms[0]->config().msisdn);
    s->settle();
    for (const Span& sp : s->net.spans().spans()) {
      if (sp.is_open()) continue;
      std::string name = "span/";
      name += to_string(sp.kind);
      name += "_ms";
      s->net.metrics().histogram(name).add(sp.duration().as_millis());
    }
    // metrics_snapshot() folds the net/* counters into the registry; take
    // one so merge_from sees the same keys the snapshot comparisons used.
    (void)s->net.metrics_snapshot();
    aggregate.merge_from(s->net.metrics());
  }
  MetricsSnapshot merged = aggregate.snapshot();
  for (const auto& [name, value] : seq_total.counters) {
    EXPECT_EQ(merged.counters.at(name), 2 * value) << name;
  }
  for (const auto& [name, h] : seq_total.histograms) {
    EXPECT_EQ(merged.histograms.at(name).count, 2 * h.count) << name;
  }
}

// --- structured export ------------------------------------------------------

/// Tiny structural JSON checker: quotes balance, braces/brackets nest and
/// balance outside strings, and the document is a single value.  Not a full
/// parser — CI runs python3 -m json.tool for that — but enough to catch
/// escaping and comma-bookkeeping regressions at unit-test speed.
void expect_structurally_valid_json(const std::string& text) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  bool top_closed = false;
  for (char c : text) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{':
      case '[':
        ASSERT_FALSE(top_closed) << "trailing content after top-level value";
        ++depth;
        break;
      case '}':
      case ']':
        --depth;
        ASSERT_GE(depth, 0) << "unbalanced close";
        if (depth == 0) top_closed = true;
        break;
      default: break;
    }
  }
  EXPECT_FALSE(in_string) << "unterminated string";
  EXPECT_EQ(depth, 0) << "unbalanced braces/brackets";
  EXPECT_TRUE(top_closed) << "no top-level value";
}

TEST(ExportTest, MetricsJsonIsStructurallyValid) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->settle();
  std::ostringstream out;
  write_metrics_json(out, s->net.metrics_snapshot());
  const std::string text = out.str();
  expect_structurally_valid_json(text);
  EXPECT_NE(text.find("\"schema\": \"vgprs.metrics.v1\""), std::string::npos);
  EXPECT_NE(text.find("\"counters\""), std::string::npos);
  EXPECT_NE(text.find("net/messages_delivered"), std::string::npos);
}

TEST(ExportTest, TraceJsonlIsOneObjectPerDelivery) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->settle();
  std::ostringstream out;
  write_trace_jsonl(out, s->net.trace().entries());
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    expect_structurally_valid_json(line);
    EXPECT_EQ(line.front(), '{');
    EXPECT_NE(line.find("\"ts_us\""), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, s->net.trace().size());
}

TEST(ExportTest, Fig9HandoffPerfettoExportIsStructurallyValid) {
  // The Fig. 9 artifact vgprs_report ships: run a handoff with spans on,
  // export Chrome trace_event JSON, and check its structure.
  HandoffParams params;
  auto s = build_handoff(params);
  s->net.spans().set_enabled(true);
  s->ms->power_on();
  s->terminal->register_endpoint();
  s->settle();
  s->ms->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                             CellId(202));
  s->settle();
  ASSERT_GE(s->net.spans().count(SpanKind::kHandoff, SpanOutcome::kOk), 1u);

  std::ostringstream out;
  write_spans_chrome_trace(out, s->net.spans().spans());
  const std::string text = out.str();
  expect_structurally_valid_json(text);
  // Perfetto essentials: a traceEvents array, process/thread metadata, and
  // complete ("X") events carrying the handoff lane + outcome args.
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"process_name\""), std::string::npos);
  EXPECT_NE(text.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(text.find("\"handoff\""), std::string::npos);
  EXPECT_NE(text.find("\"outcome\": \"ok\""), std::string::npos);
  // No event may be emitted with negative duration.
  EXPECT_EQ(text.find("\"dur\": -"), std::string::npos);
}

TEST(ExportTest, SpansJsonMarksOpenSpansWithNullClose) {
  SpanTracker t;
  t.set_enabled(true);
  t.open(SpanKind::kOrigination, 3, "MS1", SimTime::from_micros(50));
  std::ostringstream out;
  write_spans_json(out, t.spans());
  const std::string text = out.str();
  expect_structurally_valid_json(text);
  EXPECT_NE(text.find("\"closed_us\": null"), std::string::npos);
  EXPECT_NE(text.find("\"outcome\": \"open\""), std::string::npos);
}

TEST(ExportTest, ForensicsDumpListsOpenSpans) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  // Open a span by hand and never close it: the dump must surface it.
  s->net.spans().open(SpanKind::kHandoff, 424242, "TEST", s->net.now());
  s->ms[0]->power_on();
  s->settle();
  const std::string dump = dump_forensics(s->net, 10);
  EXPECT_NE(dump.find("open spans: 1"), std::string::npos);
  EXPECT_NE(dump.find("handoff"), std::string::npos);
  EXPECT_NE(dump.find("424242"), std::string::npos);
}

}  // namespace
}  // namespace vgprs
