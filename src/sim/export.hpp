// Structured export of observability data:
//  * write_metrics_json   — a MetricsSnapshot as one JSON object;
//  * write_trace_jsonl    — trace entries as JSON Lines, one delivery per
//                           line (grep/jq-friendly);
//  * write_spans_chrome_trace — spans in Chrome trace_event format
//                           (chrome://tracing / Perfetto: one lane per
//                           span kind, complete "X" events, args carry
//                           correlation / opener / hops / outcome);
//  * write_spans_json     — spans as a plain JSON array (the vgprs_report
//                           per-procedure artifact builds on this);
//  * dump_forensics       — human-readable tail of the trace plus every
//                           still-open span, for failed flow assertions.
#pragma once

#include <cstddef>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "sim/metrics.hpp"
#include "sim/span.hpp"
#include "sim/trace.hpp"

namespace vgprs {

class Network;

void write_metrics_json(std::ostream& out, const MetricsSnapshot& snapshot);

/// One JSON object per entry: a live trace's entries(), or the entries a
/// decoded capture holds (see sim/btrace.hpp).
void write_trace_jsonl(std::ostream& out,
                       const std::vector<TraceEntry>& entries);

/// Chrome trace_event JSON ("traceEvents" array).  Spans become complete
/// ("X") events on one thread lane per SpanKind; still-open spans are
/// emitted with zero duration and outcome "open" so leaks are visible in
/// the timeline rather than silently dropped.
void write_spans_chrome_trace(std::ostream& out, const std::vector<Span>& spans,
                              std::string_view process_name = "vgprs-sim");

void write_spans_json(std::ostream& out, const std::vector<Span>& spans);

/// Last `tail` trace entries (oldest-first) + open spans, as plain text.
[[nodiscard]] std::string dump_forensics(const Network& net,
                                         std::size_t tail = 40);

}  // namespace vgprs
