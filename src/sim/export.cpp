#include "sim/export.hpp"

#include <sstream>

#include "common/json.hpp"
#include "sim/network.hpp"

namespace vgprs {

namespace {

void write_histogram_summary(JsonWriter& w, const HistogramSummary& h) {
  w.begin_object();
  w.kv("count", static_cast<std::uint64_t>(h.count));
  w.kv("min", h.min);
  w.kv("max", h.max);
  w.kv("mean", h.mean);
  w.kv("p50", h.p50);
  w.kv("p95", h.p95);
  w.kv("p99", h.p99);
  w.end_object();
}

}  // namespace

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot) {
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "vgprs.metrics.v1");
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : snapshot.counters) w.kv(name, value);
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : snapshot.gauges) w.kv(name, value);
  w.end_object();
  w.key("histograms");
  w.begin_object();
  for (const auto& [name, h] : snapshot.histograms) {
    w.key(name);
    write_histogram_summary(w, h);
  }
  w.end_object();
  w.end_object();
  out << "\n";
}

namespace {

void write_trace_line(std::ostream& out, const TraceEntry& e) {
  JsonWriter w(out, 0);
  w.begin_object();
  w.kv("ts_us", e.at.count_micros());
  w.kv("from", e.from);
  w.kv("to", e.to);
  w.kv("message", e.message);
  w.kv("summary", e.summary());
  w.end_object();
  out << "\n";
}

}  // namespace

void write_trace_jsonl(std::ostream& out,
                       const std::vector<TraceEntry>& entries) {
  for (const TraceEntry& e : entries) write_trace_line(out, e);
}

void write_spans_chrome_trace(std::ostream& out, const std::vector<Span>& spans,
                              std::string_view process_name) {
  JsonWriter w(out);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents");
  w.begin_array();
  // Process + one named thread lane per span kind, so the timeline groups
  // registrations / calls / handoffs into separate rows.
  w.begin_object();
  w.kv("ph", "M");
  w.kv("name", "process_name");
  w.kv("pid", 1);
  w.kv("tid", 0);
  w.key("args");
  w.begin_object();
  w.kv("name", process_name);
  w.end_object();
  w.end_object();
  for (std::size_t kind = 0; kind < kSpanKindCount; ++kind) {
    w.begin_object();
    w.kv("ph", "M");
    w.kv("name", "thread_name");
    w.kv("pid", 1);
    w.kv("tid", static_cast<std::int64_t>(kind + 1));
    w.key("args");
    w.begin_object();
    w.kv("name", to_string(static_cast<SpanKind>(kind)));
    w.end_object();
    w.end_object();
  }
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("ph", "X");
    w.kv("name", to_string(s.kind));
    w.kv("cat", "procedure");
    w.kv("pid", 1);
    w.kv("tid", static_cast<std::int64_t>(s.kind) + 1);
    w.kv("ts", s.opened.count_micros());
    w.kv("dur", s.is_open() ? std::int64_t{0} : s.duration().count_micros());
    w.key("args");
    w.begin_object();
    w.kv("correlation", s.correlation);
    w.kv("opener", s.opener);
    w.kv("outcome", to_string(s.outcome));
    w.kv("hops", static_cast<std::uint64_t>(s.hops));
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out << "\n";
}

void write_spans_json(std::ostream& out, const std::vector<Span>& spans) {
  JsonWriter w(out);
  w.begin_array();
  for (const Span& s : spans) {
    w.begin_object();
    w.kv("kind", to_string(s.kind));
    w.kv("outcome", to_string(s.outcome));
    w.kv("correlation", s.correlation);
    w.kv("opener", s.opener);
    w.kv("opened_us", s.opened.count_micros());
    if (s.is_open()) {
      w.key("closed_us");
      w.null();
    } else {
      w.kv("closed_us", s.closed.count_micros());
      w.kv("duration_ms", s.duration().as_millis());
    }
    w.kv("hops", static_cast<std::uint64_t>(s.hops));
    w.end_object();
  }
  w.end_array();
  out << "\n";
}

std::string dump_forensics(const Network& net, std::size_t tail) {
  std::ostringstream out;
  const TraceRecorder& trace = net.trace();
  const std::size_t total = trace.size();
  const std::size_t skip = total > tail ? total - tail : 0;
  out << "--- forensics: last " << (total - skip) << " of " << total
      << " trace entries ---\n";
  std::size_t i = 0;
  trace.for_each([&](const TraceEntry& e) {
    if (i++ < skip) return;
    out << "  " << e.at.to_string() << "  " << e.from << " -> " << e.to
        << "  " << e.summary() << "\n";
  });
  const SpanTracker& spans = net.spans();
  out << "--- open spans: " << spans.open_count() << " ---\n";
  out << spans.open_to_string();
  return out.str();
}

}  // namespace vgprs
