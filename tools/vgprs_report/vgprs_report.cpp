// vgprs_report: run a named paper scenario with spans + metrics enabled and
// print / export per-procedure latency tables.
//
//   vgprs_report --scenario fig6 --iters 20 --json out.json
//
// Scenarios mirror the paper's figures:
//   fig4  N mobile stations register (IMSI attach + PDP + RAS).
//   fig5  sequential MS->terminal originations with release.
//   fig6  sequential terminal->MS terminations with release.
//   fig7  classic-GSM tromboned call delivery to a roamer.
//   fig8  vGPRS call delivery to the same roamer (no tromboning).
//   fig9  inter-MSC handoffs, one fresh network per iteration (seed+i).
//   sec6  the Section 6 comparison: vGPRS vs TR 23.821 on the same
//         registration / origination / termination workload.
//   faults  (also: --faults)  both systems under one identical fault
//         schedule — lost attach, corrupted PDP activation, gatekeeper
//         outages, a dead backbone link and a latency spike — reporting
//         per-procedure recovery latency and fault/recovery counters.
//
// Exports: --json (vgprs.report.v1 artifact), --metrics (metrics snapshot),
// --chrome-trace (Perfetto / chrome://tracing span timeline), --trace-jsonl
// (message trace as JSON Lines), --capture (packed binary vgprs.btrace.v1
// capture; see sim/btrace.hpp).
//
// Offline decode of a capture:
//
//   vgprs_report decode --in capture.btrace [--json out.json]
//                       [--trace-jsonl out.jsonl] [--chrome-trace out.json]
//                       [--metrics out.json] [--diff other.btrace]
//
// decode prints the same per-procedure tables a live run prints and
// re-exports the same artifacts; --diff compares two captures (first trace
// divergence, per-procedure latency deltas) and exits 1 when they differ.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "sim/btrace.hpp"
#include "sim/export.hpp"
#include "sim/fault.hpp"
#include "sim/metrics.hpp"
#include "sim/span.hpp"
#include "sim/stats.hpp"
#include "tr23821/tr_scenario.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

struct Options {
  std::string scenario;
  std::string json_path;
  std::string metrics_path;
  std::string chrome_path;
  std::string jsonl_path;
  std::string capture_path;   // binary capture
  std::uint32_t iters = 20;
  std::uint64_t seed = 1;
  unsigned threads = 1;       // >1: sharded engine with this many workers
  bool shard_stats = false;   // --shard-stats 1: per-shard window profile
};

/// Strict decimal parse: whole string, digits only, range-checked.  The
/// std::stoul calls this replaces threw uncaught exceptions on junk like
/// --iters=x or overflow, taking the whole process down with a traceback
/// instead of a usage line.
bool parse_u64_arg(const char* text, std::uint64_t max, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (std::isdigit(static_cast<unsigned char>(*p)) == 0) return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0' || v > max) return false;
  out = v;
  return true;
}

/// --threads N with N > 1 runs the scenario on the sharded engine, the
/// topology partitioned along its seams by the scenario builder.  Results
/// are deterministic for a given N-independent partition; see DESIGN.md
/// "Sharded engine".
template <typename Params>
void apply_threads(Params& params, const Options& opt) {
  params.sharded = opt.threads > 1;
  params.workers = opt.threads;
}

/// Everything one scenario run produces.
struct RunResult {
  std::string system;  // "vgprs", "tr23821", "gsm"
  std::vector<Span> spans;
  std::vector<TraceEntry> trace;  // the run's own message trace
  MetricsSnapshot metrics;
  std::vector<ShardPerfStats> shard_perf;  // --shard-stats only
  double sim_time_ms = 0.0;
  std::size_t events = 0;
  // What `trace` views: the scenarios that ran, or the decoded capture.
  std::vector<std::shared_ptr<const void>> owners;
};

/// Sink for --capture: owns the output stream, writes the kFileInfo header
/// once, and serializes one btrace segment per finished network.  Inactive
/// (all methods no-ops) when the flag was not given.
class CaptureWriter {
 public:
  /// Returns false (with a message on stderr) when the output cannot be
  /// opened.
  bool open(const Options& opt) {
    shard_stats_ = opt.shard_stats;
    if (opt.capture_path.empty()) return true;
    out_.open(opt.capture_path, std::ios::binary);
    if (!out_) {
      std::fprintf(stderr, "vgprs_report: cannot write %s\n",
                   opt.capture_path.c_str());
      return false;
    }
    write_btrace_file_info(out_, opt.scenario, opt.seed, opt.iters);
    return true;
  }

  /// Enables spans + binary capture + shard profiling on a freshly built
  /// scenario network.
  void arm(Network& net) const {
    net.spans().set_enabled(true);
    net.enable_shard_stats(shard_stats_);
    if (out_.is_open()) net.enable_capture();
  }

  /// True while every capture write so far has succeeded.
  [[nodiscard]] bool ok() const { return !out_.fail(); }

  /// Writes everything `net` captured as one segment and resets its
  /// buffers.  `snapshot` must be the exact snapshot the report uses for
  /// this run so the offline decode reproduces it byte for byte.
  void finish(Network& net, std::string_view system, std::uint64_t events,
              const MetricsSnapshot& snapshot) {
    if (out_.is_open()) {
      net.write_capture_segment(out_, system, events, snapshot);
    }
  }

 private:
  bool shard_stats_ = false;
  std::ofstream out_;
};

/// Per-SpanKind digest of a run's spans.
struct ProcedureStats {
  SpanKind kind = SpanKind::kRegistration;
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t timeout = 0;
  std::size_t rejected = 0;
  std::size_t open = 0;
  Histogram latency_ms;  // closed spans only
  Histogram hops;        // closed spans only
};

std::vector<ProcedureStats> digest(const std::vector<Span>& spans) {
  std::vector<ProcedureStats> stats(kSpanKindCount);
  for (std::size_t k = 0; k < kSpanKindCount; ++k) {
    stats[k].kind = static_cast<SpanKind>(k);
  }
  for (const Span& span : spans) {
    ProcedureStats& p = stats[static_cast<std::size_t>(span.kind)];
    ++p.total;
    switch (span.outcome) {
      case SpanOutcome::kOpen:
        ++p.open;
        continue;  // no latency for open spans
      case SpanOutcome::kOk:
        ++p.ok;
        break;
      case SpanOutcome::kTimeout:
        ++p.timeout;
        break;
      case SpanOutcome::kRejected:
        ++p.rejected;
        break;
    }
    p.latency_ms.add(span.duration());
    p.hops.add(static_cast<double>(span.hops));
  }
  std::erase_if(stats, [](const ProcedureStats& p) { return p.total == 0; });
  return stats;
}

void print_table(const RunResult& run) {
  std::printf("== %s: %zu events, %.1f ms simulated ==\n", run.system.c_str(),
              run.events, run.sim_time_ms);
  std::printf("%-18s %6s %5s %8s %9s %5s %9s %9s %9s %7s\n", "procedure",
              "count", "ok", "timeout", "rejected", "open", "p50(ms)",
              "p95(ms)", "p99(ms)", "hops");
  for (const ProcedureStats& p : digest(run.spans)) {
    std::printf("%-18s %6zu %5zu %8zu %9zu %5zu %9.2f %9.2f %9.2f %7.1f\n",
                std::string(to_string(p.kind)).c_str(), p.total, p.ok,
                p.timeout, p.rejected, p.open, p.latency_ms.percentile(0.50),
                p.latency_ms.percentile(0.95), p.latency_ms.percentile(0.99),
                p.hops.mean());
  }
  std::int64_t sent = 0;
  auto it = run.metrics.counters.find("net/messages_sent");
  if (it != run.metrics.counters.end()) sent = it->second;
  std::printf("messages sent: %lld\n", static_cast<long long>(sent));
  if (!run.shard_perf.empty()) {
    std::printf("%-6s %9s %9s %9s %9s %11s\n", "shard", "windows", "events",
                "busy(ms)", "drain(ms)", "barrier(ms)");
    const auto ms = [](std::uint64_t ns) {
      return static_cast<double>(ns) / 1e6;
    };
    for (std::size_t s = 0; s < run.shard_perf.size(); ++s) {
      const ShardPerfStats& p = run.shard_perf[s];
      std::printf("%-6zu %9llu %9llu %9.2f %9.2f %11.2f\n", s,
                  static_cast<unsigned long long>(p.windows),
                  static_cast<unsigned long long>(p.events), ms(p.busy_ns),
                  ms(p.drain_ns), ms(p.barrier_ns));
    }
  }
  std::printf("\n");
}

void write_run_json(JsonWriter& w, const RunResult& run) {
  w.begin_object();
  w.kv("system", run.system);
  w.kv("events", static_cast<std::uint64_t>(run.events));
  w.kv("sim_time_ms", run.sim_time_ms);
  w.key("procedures");
  w.begin_array();
  for (const ProcedureStats& p : digest(run.spans)) {
    w.begin_object();
    w.kv("name", to_string(p.kind));
    w.kv("count", static_cast<std::uint64_t>(p.total));
    w.kv("ok", static_cast<std::uint64_t>(p.ok));
    w.kv("timeout", static_cast<std::uint64_t>(p.timeout));
    w.kv("rejected", static_cast<std::uint64_t>(p.rejected));
    w.kv("open", static_cast<std::uint64_t>(p.open));
    w.key("latency_ms");
    w.begin_object();
    w.kv("p50", p.latency_ms.percentile(0.50));
    w.kv("p95", p.latency_ms.percentile(0.95));
    w.kv("p99", p.latency_ms.percentile(0.99));
    w.kv("mean", p.latency_ms.mean());
    w.kv("min", p.latency_ms.min());
    w.kv("max", p.latency_ms.max());
    w.end_object();
    w.key("hops");
    w.begin_object();
    w.kv("mean", p.hops.mean());
    w.kv("max", p.hops.max());
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.key("counters");
  w.begin_object();
  for (const auto& [name, value] : run.metrics.counters) {
    w.kv(name, static_cast<std::int64_t>(value));
  }
  w.end_object();
  w.key("gauges");
  w.begin_object();
  for (const auto& [name, value] : run.metrics.gauges) w.kv(name, value);
  w.end_object();
  w.end_object();
}

// --- scenario runners --------------------------------------------------------

template <typename Scenario>
RunResult finish_run(std::unique_ptr<Scenario> s, std::string system,
                     std::size_t events, CaptureWriter& cap) {
  Network& net = s->net;
  RunResult r;
  r.system = std::move(system);
  if (net.shard_stats_enabled() && net.num_shards() > 1) {
    r.shard_perf = net.shard_perf();
  }
  r.spans = net.spans().spans();
  r.trace = net.trace().entries();
  r.metrics = net.metrics_snapshot();
  r.sim_time_ms = static_cast<double>(net.now().count_micros()) / 1000.0;
  r.events = events;
  cap.finish(net, r.system, events, r.metrics);
  r.owners.push_back(std::move(s));
  return r;
}

RunResult run_fig4(const Options& opt, CaptureWriter& cap) {
  VgprsParams params;
  params.num_ms = opt.iters;
  params.seed = opt.seed;
  apply_threads(params, opt);
  auto s = build_vgprs(params);
  cap.arm(s->net);
  for (MobileStation* ms : s->ms) ms->power_on();
  std::size_t events = s->settle();
  return finish_run(std::move(s), "vgprs", events, cap);
}

RunResult run_fig5(const Options& opt, CaptureWriter& cap) {
  VgprsParams params;
  params.seed = opt.seed;
  apply_threads(params, opt);
  auto s = build_vgprs(params);
  cap.arm(s->net);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  std::size_t events = s->settle();
  Msisdn callee = make_subscriber(88, 1000).msisdn;
  for (std::uint32_t i = 0; i < opt.iters; ++i) {
    s->ms[0]->dial(callee);
    events += s->settle();
    s->ms[0]->hangup();
    events += s->settle();
  }
  return finish_run(std::move(s), "vgprs", events, cap);
}

RunResult run_fig6(const Options& opt, CaptureWriter& cap) {
  VgprsParams params;
  params.seed = opt.seed;
  apply_threads(params, opt);
  auto s = build_vgprs(params);
  cap.arm(s->net);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  std::size_t events = s->settle();
  Msisdn callee = s->ms[0]->config().msisdn;
  for (std::uint32_t i = 0; i < opt.iters; ++i) {
    s->terminals[0]->place_call(callee);
    events += s->settle();
    s->terminals[0]->hangup();
    events += s->settle();
  }
  return finish_run(std::move(s), "vgprs", events, cap);
}

RunResult run_tromboning(const Options& opt, bool use_vgprs,
                         CaptureWriter& cap) {
  TrombParams params;
  params.seed = opt.seed;
  apply_threads(params, opt);
  params.use_vgprs = use_vgprs;
  auto s = build_tromboning(params);
  cap.arm(s->net);
  s->roamer->power_on();
  std::size_t events = s->settle();
  for (std::uint32_t i = 0; i < opt.iters; ++i) {
    s->caller->place_call(s->roamer_id.msisdn);
    events += s->settle();
    s->caller->hangup();
    events += s->settle();
  }
  s->net.metrics().gauge("tromboning/international_trunks") =
      static_cast<double>(s->international_trunks());
  return finish_run(std::move(s), use_vgprs ? "vgprs" : "gsm", events, cap);
}

RunResult run_fig9(const Options& opt, CaptureWriter& cap) {
  // One fresh network per handoff so every iteration starts from the same
  // topology; seeds vary so link jitter produces a latency distribution.
  RunResult combined;
  combined.system = "vgprs";
  MetricsRegistry aggregate;
  for (std::uint32_t i = 0; i < opt.iters; ++i) {
    HandoffParams params;
    params.seed = opt.seed + i;
    params.target_is_vmsc = (i % 2) == 1;  // alternate GSM / VMSC targets
    apply_threads(params, opt);
    auto s = build_handoff(params);
    cap.arm(s->net);
    std::size_t iter_events = 0;
    s->ms->power_on();
    s->terminal->register_endpoint();
    iter_events += s->settle();
    s->ms->dial(make_subscriber(88, 1000).msisdn);
    iter_events += s->settle();
    s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                               CellId(202));
    iter_events += s->settle();
    s->ms->hangup();
    iter_events += s->settle();
    combined.events += iter_events;
    const auto& spans = s->net.spans().spans();
    combined.spans.insert(combined.spans.end(), spans.begin(), spans.end());
    const std::vector<TraceEntry> trace = s->net.trace().entries();
    combined.trace.insert(combined.trace.end(), trace.begin(), trace.end());
    // Sync net/* counters into the registry, and hand the exact snapshot to
    // the capture so an offline decode re-aggregates the iterations the way
    // merge_from below does.
    MetricsSnapshot snap = s->net.metrics_snapshot();
    aggregate.merge_from(s->net.metrics());
    combined.sim_time_ms +=
        static_cast<double>(s->net.now().count_micros()) / 1000.0;
    cap.finish(s->net, "vgprs", iter_events, snap);
    combined.owners.push_back(std::move(s));
  }
  combined.metrics = aggregate.snapshot();
  return combined;
}

RunResult run_tr23821_workload(const Options& opt, CaptureWriter& cap) {
  TrParams params;
  params.seed = opt.seed;
  apply_threads(params, opt);
  auto s = build_tr23821(params);
  cap.arm(s->net);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  std::size_t events = s->settle();
  Msisdn term_alias = make_subscriber(88, 1000).msisdn;
  Msisdn ms_number = make_subscriber(88, 1).msisdn;
  for (std::uint32_t i = 0; i < opt.iters; ++i) {
    // MO call with per-call PDP reactivation (the TR resource policy).
    s->ms[0]->dial(term_alias);
    events += s->settle();
    s->ms[0]->hangup();
    events += s->settle();
    // MT call through network-initiated PDP activation.
    s->terminals[0]->place_call(ms_number);
    events += s->settle();
    s->terminals[0]->hangup();
    events += s->settle();
  }
  return finish_run(std::move(s), "tr23821", events, cap);
}

RunResult run_vgprs_workload(const Options& opt, CaptureWriter& cap) {
  VgprsParams params;
  params.seed = opt.seed;
  apply_threads(params, opt);
  auto s = build_vgprs(params);
  cap.arm(s->net);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  std::size_t events = s->settle();
  Msisdn term_alias = make_subscriber(88, 1000).msisdn;
  Msisdn ms_number = s->ms[0]->config().msisdn;
  for (std::uint32_t i = 0; i < opt.iters; ++i) {
    s->ms[0]->dial(term_alias);
    events += s->settle();
    s->ms[0]->hangup();
    events += s->settle();
    s->terminals[0]->place_call(ms_number);
    events += s->settle();
    s->terminals[0]->hangup();
    events += s->settle();
  }
  return finish_run(std::move(s), "vgprs", events, cap);
}

// --- fault / recovery comparison ---------------------------------------------

/// One system's --faults run (drive_fault_cycles, scenario.hpp).
template <typename Params, typename Scenario>
RunResult run_faults(const Options& opt, CaptureWriter& cap,
                     std::unique_ptr<Scenario> (*build)(const Params&),
                     const char* system) {
  Params params;
  params.seed = opt.seed;
  apply_threads(params, opt);
  auto s = build(params);
  cap.arm(s->net);
  const std::size_t events = drive_fault_cycles(*s, opt.iters);
  return finish_run(std::move(s), system, events, cap);
}

std::vector<RunResult> run_scenario(const Options& opt, CaptureWriter& cap) {
  if (opt.scenario == "fig4") return {run_fig4(opt, cap)};
  if (opt.scenario == "fig5") return {run_fig5(opt, cap)};
  if (opt.scenario == "fig6") return {run_fig6(opt, cap)};
  if (opt.scenario == "fig7") return {run_tromboning(opt, false, cap)};
  if (opt.scenario == "fig8") return {run_tromboning(opt, true, cap)};
  if (opt.scenario == "fig9") return {run_fig9(opt, cap)};
  if (opt.scenario == "sec6") {
    RunResult v = run_vgprs_workload(opt, cap);
    RunResult t = run_tr23821_workload(opt, cap);
    std::vector<RunResult> out;
    out.push_back(std::move(v));
    out.push_back(std::move(t));
    return out;
  }
  if (opt.scenario == "faults") {
    RunResult v = run_faults(opt, cap, build_vgprs, "vgprs");
    RunResult t = run_faults(opt, cap, build_tr23821, "tr23821");
    std::vector<RunResult> out;
    out.push_back(std::move(v));
    out.push_back(std::move(t));
    return out;
  }
  return {};
}

constexpr const char* kScenarios[] = {"fig4", "fig5", "fig6", "fig7",
                                      "fig8", "fig9", "sec6", "faults"};

int usage() {
  std::fprintf(stderr,
               "usage: vgprs_report --scenario <name> [--iters N] [--seed S]\n"
               "                    [--threads N] [--json PATH] [--metrics "
               "PATH]\n"
               "                    [--chrome-trace PATH] [--trace-jsonl "
               "PATH]\n"
               "                    [--capture PATH] [--shard-stats 0|1]\n"
               "       vgprs_report decode --in PATH [--json PATH]\n"
               "                    [--metrics PATH] [--chrome-trace PATH]\n"
               "                    [--trace-jsonl PATH] [--diff PATH]\n"
               "--threads N with N > 1 runs the sharded engine on N worker\n"
               "threads.  Deterministic: traces, spans and metrics snapshots\n"
               "are byte-identical for every N (including N = 1) — worker\n"
               "count only changes wall-clock interleaving, never results\n"
               "--shard-stats 1 adds per-shard window-protocol profiling\n"
               "(windows / events plus wall-clock busy, drain and barrier\n"
               "time; the time columns are scheduling-dependent and\n"
               "excluded from the determinism guarantee; busy/drain are\n"
               "measured per shard, barrier is the owning worker's wait\n"
               "repeated on each shard it owns)\n"
               "--capture writes the run's trace, span operations and metrics\n"
               "as a packed binary vgprs.btrace.v1 capture; decode reads one\n"
               "back and reprints/re-exports the run\n"
               "scenarios:");
  for (const char* s : kScenarios) std::fprintf(stderr, " %s", s);
  std::fprintf(stderr, "\n");
  return 2;
}

/// Writes the vgprs.report.v1 artifact for a list of runs.
bool write_report_json(const std::string& path, std::string_view scenario,
                       std::uint64_t seed, std::uint32_t iters,
                       const std::vector<RunResult>& runs) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "vgprs_report: cannot write %s\n", path.c_str());
    return false;
  }
  JsonWriter w(out);
  w.begin_object();
  w.kv("schema", "vgprs.report.v1");
  w.kv("scenario", scenario);
  w.kv("seed", seed);
  w.kv("iterations", static_cast<std::uint64_t>(iters));
  w.key("runs");
  w.begin_array();
  for (const RunResult& r : runs) write_run_json(w, r);
  w.end_array();
  w.end_object();
  out << "\n";
  return static_cast<bool>(out);
}

/// Shared export tail for live runs and decoded captures.
int export_artifacts(const Options& opt, std::string_view scenario,
                     std::uint64_t seed, std::uint32_t iters,
                     const std::vector<RunResult>& runs) {
  if (!opt.json_path.empty() &&
      !write_report_json(opt.json_path, scenario, seed, iters, runs)) {
    return 1;
  }
  if (!opt.metrics_path.empty()) {
    std::ofstream out(opt.metrics_path);
    write_metrics_json(out, runs.front().metrics);
    out << "\n";
  }
  if (!opt.chrome_path.empty()) {
    std::ofstream out(opt.chrome_path);
    write_spans_chrome_trace(out, runs.front().spans,
                             "vgprs-" + std::string(scenario));
    out << "\n";
  }
  if (!opt.jsonl_path.empty()) {
    std::ofstream out(opt.jsonl_path);
    write_trace_jsonl(out, runs.front().trace);
  }
  return 0;
}

int run(const Options& opt) {
  register_all_messages();
  CaptureWriter cap;
  if (!cap.open(opt)) return 1;
  std::vector<RunResult> runs = run_scenario(opt, cap);
  if (runs.empty()) {
    std::fprintf(stderr, "vgprs_report: unknown scenario '%s'\n",
                 opt.scenario.c_str());
    return usage();
  }
  if (!cap.ok()) {
    std::fprintf(stderr, "vgprs_report: capture write failed\n");
    return 1;
  }
  for (const RunResult& r : runs) print_table(r);
  return export_artifacts(opt, opt.scenario, opt.seed, opt.iters, runs);
}

// --- decode ------------------------------------------------------------------

Result<DecodedCapture> load_capture(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Error{ErrorCode::kDecodeTruncated,
                 "cannot read capture file " + path};
  }
  try {
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(in),
                                          std::istreambuf_iterator<char>()};
    return decode_capture(bytes);
  } catch (const std::ios_base::failure& e) {  // e.g. the path is a directory
    return Error{ErrorCode::kDecodeTruncated,
                 "cannot read capture file " + path + ": " + e.what()};
  }
}

std::vector<RunResult> to_run_results(DecodedCapture cap) {
  // The runs' entries view names and messages the decoded runs own.
  const auto owner = std::make_shared<DecodedCapture>(std::move(cap));
  std::vector<RunResult> runs;
  runs.reserve(owner->runs.size());
  for (DecodedRun& run : owner->runs) {
    RunResult r;
    r.system = std::move(run.system);
    r.spans = std::move(run.spans);
    r.trace = std::move(run.trace);
    r.metrics = std::move(run.metrics);
    r.sim_time_ms = run.sim_time_ms;
    r.events = run.events;
    r.owners.push_back(owner);
    runs.push_back(std::move(r));
  }
  return runs;
}

/// Compares two decoded captures: first trace divergence, then per-procedure
/// latency deltas.  Returns true when identical.
bool diff_captures(const std::vector<RunResult>& a,
                   const std::vector<RunResult>& b) {
  bool same = true;
  if (a.size() != b.size()) {
    std::printf("diff: %zu runs vs %zu runs\n", a.size(), b.size());
    same = false;
  }
  const std::size_t nruns = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < nruns; ++i) {
    const RunResult& ra = a[i];
    const RunResult& rb = b[i];
    if (ra.system != rb.system) {
      std::printf("diff: run %zu system '%s' vs '%s'\n", i, ra.system.c_str(),
                  rb.system.c_str());
      same = false;
    }
    if (ra.events != rb.events) {
      std::printf("diff: run %zu events %zu vs %zu\n", i, ra.events,
                  rb.events);
      same = false;
    }
    // First trace divergence, with both sides' entries.
    const std::size_t n = std::min(ra.trace.size(), rb.trace.size());
    std::size_t d = 0;
    while (d < n) {
      const TraceEntry& ea = ra.trace[d];
      const TraceEntry& eb = rb.trace[d];
      if (ea.at != eb.at || ea.from != eb.from || ea.to != eb.to ||
          ea.message != eb.message || ea.summary() != eb.summary()) {
        break;
      }
      ++d;
    }
    if (d < n || ra.trace.size() != rb.trace.size()) {
      same = false;
      std::printf("diff: run %zu traces diverge at entry %zu of %zu/%zu\n", i,
                  d, ra.trace.size(), rb.trace.size());
      auto show = [&](const char* tag, const std::vector<TraceEntry>& t) {
        if (d < t.size()) {
          const TraceEntry& e = t[d];
          std::printf("  %s: %10.3f ms  %.*s -> %.*s  %s\n", tag,
                      e.at.as_millis(), static_cast<int>(e.from.size()),
                      e.from.data(), static_cast<int>(e.to.size()),
                      e.to.data(), e.summary().c_str());
        } else {
          std::printf("  %s: <no entry>\n", tag);
        }
      };
      show("a", ra.trace);
      show("b", rb.trace);
    }
    // Per-procedure latency deltas.
    std::vector<ProcedureStats> pa = digest(ra.spans);
    std::vector<ProcedureStats> pb = digest(rb.spans);
    for (const ProcedureStats& qa : pa) {
      const ProcedureStats* qb = nullptr;
      for (const ProcedureStats& q : pb) {
        if (q.kind == qa.kind) qb = &q;
      }
      if (qb == nullptr) {
        std::printf("diff: run %zu procedure %s only in a\n", i,
                    std::string(to_string(qa.kind)).c_str());
        same = false;
        continue;
      }
      const double dp50 =
          qa.latency_ms.percentile(0.50) - qb->latency_ms.percentile(0.50);
      const double dp95 =
          qa.latency_ms.percentile(0.95) - qb->latency_ms.percentile(0.95);
      if (qa.total != qb->total || qa.ok != qb->ok || dp50 != 0.0 ||
          dp95 != 0.0) {
        std::printf(
            "diff: run %zu %-16s count %zu/%zu ok %zu/%zu "
            "p50 delta %+.3f ms p95 delta %+.3f ms\n",
            i, std::string(to_string(qa.kind)).c_str(), qa.total, qb->total,
            qa.ok, qb->ok, dp50, dp95);
        same = false;
      }
    }
    for (const ProcedureStats& q : pb) {
      bool in_a = false;
      for (const ProcedureStats& qa : pa) in_a = in_a || qa.kind == q.kind;
      if (!in_a) {
        std::printf("diff: run %zu procedure %s only in b\n", i,
                    std::string(to_string(q.kind)).c_str());
        same = false;
      }
    }
  }
  return same;
}

struct DecodeOptions {
  std::string in_path;
  std::string diff_path;
  Options exports;  // json/metrics/chrome/jsonl paths reused
};

int run_decode(const DecodeOptions& opt) {
  register_all_messages();
  Result<DecodedCapture> decoded = load_capture(opt.in_path);
  if (!decoded.ok()) {
    std::fprintf(stderr, "vgprs_report: decode %s failed: %s\n",
                 opt.in_path.c_str(), decoded.error().to_string().c_str());
    return 1;
  }
  DecodedCapture cap = std::move(decoded).value();
  std::printf("capture: scenario=%s seed=%llu iterations=%u records=%llu\n",
              cap.info.scenario.c_str(),
              static_cast<unsigned long long>(cap.info.seed), cap.info.iters,
              static_cast<unsigned long long>(cap.records));
  for (const DecodedRun& run : cap.runs) {
    for (const DecodedShard& sh : run.shards) {
      if (sh.dropped_records != 0) {
        std::printf(
            "  (shard %u ring dropped %llu records / %llu bytes)\n", sh.index,
            static_cast<unsigned long long>(sh.dropped_records),
            static_cast<unsigned long long>(sh.dropped_bytes));
      }
    }
  }
  const BtraceInfo info = cap.info;
  std::vector<RunResult> runs = to_run_results(std::move(cap));
  for (const RunResult& r : runs) print_table(r);

  if (!opt.diff_path.empty()) {
    Result<DecodedCapture> other = load_capture(opt.diff_path);
    if (!other.ok()) {
      std::fprintf(stderr, "vgprs_report: decode %s failed: %s\n",
                   opt.diff_path.c_str(), other.error().to_string().c_str());
      return 1;
    }
    std::vector<RunResult> other_runs =
        to_run_results(std::move(other).value());
    if (diff_captures(runs, other_runs)) {
      std::printf("captures identical\n");
    } else {
      return 1;
    }
  }
  return export_artifacts(opt.exports, info.scenario, info.seed, info.iters,
                          runs);
}

}  // namespace
}  // namespace vgprs

namespace {

int main_decode(int argc, char** argv) {
  vgprs::DecodeOptions opt;
  for (int i = 2; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vgprs_report: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--in") == 0) {
      opt.in_path = next("--in");
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      opt.diff_path = next("--diff");
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.exports.json_path = next("--json");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opt.exports.metrics_path = next("--metrics");
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0) {
      opt.exports.chrome_path = next("--chrome-trace");
    } else if (std::strcmp(argv[i], "--trace-jsonl") == 0) {
      opt.exports.jsonl_path = next("--trace-jsonl");
    } else {
      return vgprs::usage();
    }
  }
  if (opt.in_path.empty()) return vgprs::usage();
  return vgprs::run_decode(opt);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "decode") == 0) {
    return main_decode(argc, argv);
  }
  vgprs::Options opt;
  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "vgprs_report: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    auto next_uint = [&](const char* flag, std::uint64_t max) -> std::uint64_t {
      std::uint64_t v = 0;
      if (!vgprs::parse_u64_arg(next(flag), max, v)) {
        std::fprintf(stderr,
                     "vgprs_report: %s needs an unsigned integer <= %llu\n",
                     flag, static_cast<unsigned long long>(max));
        std::exit(vgprs::usage());
      }
      return v;
    };
    if (std::strcmp(argv[i], "--scenario") == 0) {
      opt.scenario = next("--scenario");
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      opt.scenario = "faults";
    } else if (std::strcmp(argv[i], "--json") == 0) {
      opt.json_path = next("--json");
    } else if (std::strcmp(argv[i], "--metrics") == 0) {
      opt.metrics_path = next("--metrics");
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0) {
      opt.chrome_path = next("--chrome-trace");
    } else if (std::strcmp(argv[i], "--trace-jsonl") == 0) {
      opt.jsonl_path = next("--trace-jsonl");
    } else if (std::strcmp(argv[i], "--capture") == 0) {
      opt.capture_path = next("--capture");
    } else if (std::strcmp(argv[i], "--iters") == 0) {
      opt.iters = static_cast<std::uint32_t>(
          next_uint("--iters", std::numeric_limits<std::uint32_t>::max()));
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      opt.seed = next_uint("--seed", std::numeric_limits<std::uint64_t>::max());
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      opt.threads = static_cast<unsigned>(
          next_uint("--threads", std::numeric_limits<unsigned>::max()));
    } else if (std::strcmp(argv[i], "--shard-stats") == 0) {
      opt.shard_stats = next_uint("--shard-stats", 1) != 0;
    } else {
      return vgprs::usage();
    }
  }
  if (opt.scenario.empty()) return vgprs::usage();
  return vgprs::run(opt);
}
