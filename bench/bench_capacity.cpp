// CAP — engineering extension: wall-clock capacity of the simulator and of
// the VMSC's procedures (registrations and calls per second of host CPU),
// plus codec microbenchmarks.  Uses google-benchmark.
//
// Capacity runs disable tracing (TraceMode::kDisabled): the numbers measure
// the engine and the procedures, not the trace-string formatter, and memory
// stays flat without manual trace clearing.
//
// `--json <path>` additionally writes the shared vgprs.bench.v1 summary
// (events/s, registrations/s, calls/s, codec ns/op) for CI perf tracking,
// plus exact work counters per registration and per call from a fixed,
// untimed pass, which CI compares exactly.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace vgprs {
namespace {

void BM_EventThroughput(benchmark::State& state) {
  register_all_messages();
  struct Echo final : public Node {
    using Node::Node;
    NodeId peer;
    std::int64_t remaining = 0;
    void on_message(const Envelope& env) override {
      if (remaining-- > 0) send(peer, env.msg);
    }
  };
  for (auto _ : state) {
    state.PauseTiming();
    Network net;
    net.trace().set_mode(TraceMode::kDisabled);
    auto& a = net.add<Echo>("a");
    auto& b = net.add<Echo>("b");
    net.connect(a, b, LinkProfile{});
    a.peer = b.id();
    b.peer = a.id();
    a.remaining = b.remaining = state.range(0) / 2;
    auto ping = std::make_shared<UmPagingRequest>();
    state.ResumeTiming();
    net.send(a.id(), b.id(), ping);
    net.run_until_idle();
    state.counters["events/s"] = benchmark::Counter(
        static_cast<double>(net.stats().messages_delivered),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_EventThroughput)->Arg(10000);

void BM_VgprsRegistration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    VgprsParams params;
    params.num_ms = n;
    auto s = build_vgprs(params);
    s->net.trace().set_mode(TraceMode::kDisabled);
    for (auto* ms : s->ms) ms->power_on();
    s->settle();
    if (s->vmsc->ready_count() != n) state.SkipWithError("registration");
    state.counters["registrations/s"] = benchmark::Counter(
        static_cast<double>(n),
        benchmark::Counter::kIsIterationInvariantRate);
  }
}
BENCHMARK(BM_VgprsRegistration)->Arg(1)->Arg(16)->Arg(64);

// Arg(0) = bare, Arg(1) = with span tracking on — the pair quantifies the
// pay-for-use claim of the observability layer.
void BM_VgprsCallCycle(benchmark::State& state) {
  const bool instrumented = state.range(0) != 0;
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.trace().set_mode(TraceMode::kDisabled);
  s->net.spans().set_enabled(instrumented);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  Msisdn callee = make_subscriber(88, 1000).msisdn;
  std::int64_t calls = 0;
  for (auto _ : state) {
    s->ms[0]->dial(callee);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    ++calls;
    // Spans accumulate; keep memory flat on the instrumented variant.
    if (instrumented && calls % 256 == 0) s->net.spans().clear();
  }
  state.counters["calls/s"] = benchmark::Counter(
      static_cast<double>(calls), benchmark::Counter::kIsRate);
  state.SetLabel(instrumented ? "spans on" : "spans off");
}
BENCHMARK(BM_VgprsCallCycle)->Arg(0)->Arg(1);

// One metropolitan-scale scenario (16 cells under a single VMSC) executed
// by the sharded engine.  range(0) = subscribers, range(1) = worker
// threads, with 0 meaning not sharded at all: the sequential engine on the
// same network is the baseline every worker count's speedup is quoted
// against (same calls, same event order).  Registration is untimed
// setup; each iteration is a wave of 2048 simultaneous cross-cell call
// cycles, which keeps every shard seam (Abis, A, Gn, Gi, IP) busy.
// A page is one delivery whatever the cell size, so a call costs the same
// work at every scale and the rows report calls/s.
void BM_ShardedCallMix(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto workers = static_cast<unsigned>(state.range(1));
  VgprsParams params;
  params.num_ms = n;
  params.num_cells = 16;
  params.bsc_channels = 8192;
  params.seed = 11;
  params.sharded = workers > 0;
  params.workers = std::max(workers, 1u);
  auto s = build_vgprs(params);
  s->net.trace().set_mode(TraceMode::kDisabled);
  // Power on in waves so the per-BSC SDCCH pool (8192) never saturates.
  const std::size_t wave = 16u * 4096u;
  for (std::size_t base = 0; base < s->ms.size(); base += wave) {
    const std::size_t end = std::min(s->ms.size(), base + wave);
    for (std::size_t i = base; i < end; ++i) s->ms[i]->power_on();
    s->settle();
  }
  if (s->vmsc->ready_count() != n) {
    state.SkipWithError("registration incomplete");
    return;
  }
  // MSs are round-robin over the 16 cells, so adjacent indices sit in
  // adjacent cells: pairing (2p, 2p+1) makes every call cross-cell (and,
  // under the shard plan, cross-shard).
  const std::size_t pairs = std::min<std::size_t>(s->ms.size() / 2, 2048);
  std::int64_t calls = 0;
  for (auto _ : state) {
    for (std::size_t p = 0; p < pairs; ++p) {
      s->ms[2 * p]->dial(s->ms[2 * p + 1]->config().msisdn);
    }
    s->settle();
    for (std::size_t p = 0; p < pairs; ++p) {
      s->ms[2 * p]->hangup();
    }
    s->settle();
    calls += static_cast<std::int64_t>(pairs);
  }
  state.counters["calls/s"] = benchmark::Counter(
      static_cast<double>(calls), benchmark::Counter::kIsRate);
  state.SetLabel(params.sharded
                     ? std::to_string(s->net.num_shards()) + " shards"
                     : "unsharded");
}
BENCHMARK(BM_ShardedCallMix)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 4})
    ->Args({10000, 8})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 4})
    ->Args({100000, 8})
    ->Args({1000000, 0})
    ->Args({1000000, 1})
    ->Args({1000000, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Recording-overhead ablation: the same 8-worker call mix as
// BM_ShardedCallMix, with range(1) selecting what each delivery costs.
// 0 = nothing recorded (kDisabled baseline), 1 = the trace records every
// delivery (one TraceRecord: key, endpoint ids, message reference),
// 2 = recorded, plus a btrace segment written to a discarding stream each
// iteration (wire images are encoded at write time).  Every iteration
// clears what it recorded: no ring bounds the trace, only clear() does.
// The events/s ratios of rows 1 and 2 to row 0 are the recording costs
// EXPERIMENTS.md §CAP reports; no bound is asserted on them.
void BM_CaptureOverhead(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const int mode = static_cast<int>(state.range(1));
  VgprsParams params;
  params.num_ms = n;
  params.num_cells = 16;
  params.bsc_channels = 8192;
  params.seed = 11;
  params.sharded = true;
  params.workers = 8;
  auto s = build_vgprs(params);
  s->net.trace().set_mode(TraceMode::kDisabled);
  const std::size_t wave = 16u * 4096u;
  for (std::size_t base = 0; base < s->ms.size(); base += wave) {
    const std::size_t end = std::min(s->ms.size(), base + wave);
    for (std::size_t i = base; i < end; ++i) s->ms[i]->power_on();
    s->settle();
  }
  if (s->vmsc->ready_count() != n) {
    state.SkipWithError("registration incomplete");
    return;
  }
  if (mode == 1) s->net.trace().set_mode(TraceMode::kFull);
  if (mode == 2) s->net.enable_capture();
  std::ostream discard(nullptr);
  const std::size_t pairs = std::min<std::size_t>(s->ms.size() / 2, 2048);
  std::uint64_t delivered = 0;
  for (auto _ : state) {
    const std::uint64_t before = s->net.stats().messages_delivered;
    for (std::size_t p = 0; p < pairs; ++p) {
      s->ms[2 * p]->dial(s->ms[2 * p + 1]->config().msisdn);
    }
    s->settle();
    for (std::size_t p = 0; p < pairs; ++p) {
      s->ms[2 * p]->hangup();
    }
    s->settle();
    delivered += s->net.stats().messages_delivered - before;
    if (mode == 2) {
      s->net.write_capture_segment(discard, "vgprs", 0, MetricsSnapshot{});
    }
    s->net.trace().clear();
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
  state.SetLabel(mode == 0   ? "trace off"
                 : mode == 1 ? "recorded"
                             : "recorded + segment");
}
BENCHMARK(BM_CaptureOverhead)
    ->Args({10000, 0})
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({100000, 0})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_CodecRoundTrip(benchmark::State& state) {
  register_all_messages();
  UmSetup msg;
  msg.imsi = Imsi(466920000000001ULL, 15);
  msg.call_ref = CallRef(42);
  msg.calling = Msisdn(880900000001ULL, 12);
  msg.called = Msisdn(880900001000ULL, 12);
  ByteWriter scratch;
  for (auto _ : state) {
    scratch.clear();
    msg.encode_to(scratch);
    auto decoded = MessageRegistry::instance().decode(scratch.data());
    benchmark::DoNotOptimize(decoded);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CodecRoundTrip);

void BM_NestedTunnelEncapsulation(benchmark::State& state) {
  register_all_messages();
  auto arq = pool_message<RasArq>();
  arq->called = Msisdn(880900000001ULL, 12);
  for (auto _ : state) {
    auto pdu = pool_message<GtpPdu>();
    pdu->teid = TunnelId(1);
    pdu->inner = make_ip_datagram(IpAddress(10, 1, 0, 1),
                                  IpAddress(192, 168, 1, 1), arq);
    GbUnitData frame;
    frame.imsi = Imsi(466920000000001ULL, 15);
    frame.inner = std::move(pdu);
    auto wire = frame.encode();
    benchmark::DoNotOptimize(wire);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_NestedTunnelEncapsulation);

// Ablation for DESIGN.md decision #1 (wire-serialize every link): how much
// host CPU the byte-level codecs cost relative to pointer-passing.
void BM_RegistrationSerializationAblation(benchmark::State& state) {
  const bool serialize = state.range(0) != 0;
  for (auto _ : state) {
    VgprsParams params;
    params.num_ms = 16;
    auto s = build_vgprs(params);
    s->net.trace().set_mode(TraceMode::kDisabled);
    s->net.set_serialize_links(serialize);
    for (auto* ms : s->ms) ms->power_on();
    s->settle();
    if (s->vmsc->ready_count() != 16) state.SkipWithError("registration");
  }
  state.SetLabel(serialize ? "wire-serialized links"
                           : "pointer-passing links");
}
BENCHMARK(BM_RegistrationSerializationAblation)->Arg(1)->Arg(0);

void BM_TrombSetup(benchmark::State& state) {
  const bool vg = state.range(0) != 0;
  for (auto _ : state) {
    TrombParams params;
    params.use_vgprs = vg;
    auto s = build_tromboning(params);
    s->net.trace().set_mode(TraceMode::kDisabled);
    s->roamer->power_on();
    s->settle();
    s->caller->place_call(s->roamer_id.msisdn);
    s->settle();
    benchmark::DoNotOptimize(s->international_trunks());
  }
}
BENCHMARK(BM_TrombSetup)->Arg(0)->Arg(1);

// --- --json summary ---------------------------------------------------------

/// Captures every finished run (in addition to normal console output) so a
/// compact summary can be written after the fact.
class CaptureReporter final : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& report) override {
    for (const auto& r : report) runs_.push_back(r);
    ConsoleReporter::ReportRuns(report);
  }
  [[nodiscard]] const std::vector<Run>& runs() const { return runs_; }

 private:
  std::vector<Run> runs_;
};

/// Counters reaching a reporter are already finalized (rate flags applied
/// by the library); the stored value is what the console displays.
double counter_rate(const benchmark::BenchmarkReporter::Run& run,
                    const std::string& name) {
  auto it = run.counters.find(name);
  return it == run.counters.end() ? 0.0 : it->second.value;
}

double ns_per_op(const benchmark::BenchmarkReporter::Run& run) {
  if (run.iterations == 0) return 0.0;
  return run.real_accumulated_time / static_cast<double>(run.iterations) *
         1e9;
}

/// Folds the captured runs into the shared (scenario, metric, unit, value)
/// schema all benches emit.
void summarize(const std::vector<benchmark::BenchmarkReporter::Run>& runs,
               bench::JsonReport& report) {
  // Sharded call mix rows by worker count (0 = unsharded), remembered for
  // the derived speedup_<N>w_over_unsharded rows CI's perf-smoke warns on.
  struct MixScale {
    unsigned subscribers;
    const char* scale;
    std::map<unsigned, double> by_workers;
  };
  MixScale mix[] = {
      {10000, "10k", {}}, {100000, "100k", {}}, {1000000, "1m", {}}};
  for (const auto& run : runs) {
    const std::string name = run.run_name.str();
    unsigned subscribers = 0;
    unsigned workers = 0;
    if (name.find("BM_EventThroughput") != std::string::npos) {
      report.add("engine", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_VgprsRegistration/64") != std::string::npos) {
      report.add("registration_64ms", "registrations_per_s", "1/s",
                 counter_rate(run, "registrations/s"));
    } else if (name.find("BM_VgprsCallCycle/0") != std::string::npos) {
      report.add("call_cycle", "calls_per_s", "1/s",
                 counter_rate(run, "calls/s"));
    } else if (name.find("BM_VgprsCallCycle/1") != std::string::npos) {
      report.add("call_cycle_spans_on", "calls_per_s", "1/s",
                 counter_rate(run, "calls/s"));
    } else if (std::sscanf(name.c_str(), "BM_ShardedCallMix/%u/%u",
                           &subscribers, &workers) == 2) {
      for (MixScale& m : mix) {
        if (m.subscribers != subscribers) continue;
        const double rate = counter_rate(run, "calls/s");
        m.by_workers[workers] = rate;
        report.add(std::string("sharded_call_mix_") + m.scale + "_" +
                       (workers == 0 ? std::string("unsharded")
                                     : std::to_string(workers) + "w"),
                   "calls_per_s", "1/s", rate);
      }
    } else if (name.find("BM_CaptureOverhead/10000/0") != std::string::npos) {
      report.add("capture_overhead_10k_off", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/10000/1") != std::string::npos) {
      report.add("capture_overhead_10k_recorded", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/10000/2") != std::string::npos) {
      report.add("capture_overhead_10k_segment", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/100000/0") !=
               std::string::npos) {
      report.add("capture_overhead_100k_off", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/100000/1") !=
               std::string::npos) {
      report.add("capture_overhead_100k_recorded", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/100000/2") !=
               std::string::npos) {
      report.add("capture_overhead_100k_segment", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CodecRoundTrip") != std::string::npos) {
      report.add("codec", "roundtrip_ns", "ns", ns_per_op(run));
    } else if (name.find("BM_NestedTunnelEncapsulation") !=
               std::string::npos) {
      report.add("codec", "nested_encapsulation_ns", "ns", ns_per_op(run));
    }
  }
  for (const MixScale& m : mix) {
    auto base = m.by_workers.find(0);
    if (base == m.by_workers.end() || base->second <= 0.0) continue;
    const std::string scenario = std::string("sharded_call_mix_") + m.scale;
    for (const auto& [workers, rate] : m.by_workers) {
      if (workers == 0 || rate <= 0.0) continue;
      report.add(scenario,
                 "speedup_" + std::to_string(workers) + "w_over_unsharded",
                 "ratio", rate / base->second);
    }
  }
}

/// Adds events, wire bytes and timers fired per operation between two
/// snapshots of one network as (scenario, <what>_per_<op>, count/<op>)
/// rows.  They count work, not time: any host reproduces them exactly.
void add_exact_rows(bench::JsonReport& report, const std::string& scenario,
                    const std::string& op, const NetworkStats& before,
                    const NetworkStats& after, double ops) {
  const auto add = [&](const char* what, std::uint64_t from,
                       std::uint64_t to) {
    report.add(scenario, std::string(what) + "_per_" + op, "count/" + op,
               static_cast<double>(to - from) / ops);
  };
  add("events", before.messages_delivered, after.messages_delivered);
  add("wire_bytes", before.bytes_on_wire, after.bytes_on_wire);
  add("timers_fired", before.timers_fired, after.timers_fired);
}

/// The untimed pass behind the exact rows: one BM_VgprsRegistration/64
/// iteration, and 16 cycles of BM_VgprsCallCycle/0 after its setup.
void exact_counters(bench::JsonReport& report) {
  {
    VgprsParams params;
    params.num_ms = 64;
    auto s = build_vgprs(params);
    s->net.trace().set_mode(TraceMode::kDisabled);
    const NetworkStats before = s->net.stats();
    for (auto* ms : s->ms) ms->power_on();
    s->settle();
    add_exact_rows(report, "registration_64ms", "registration", before,
                   s->net.stats(), params.num_ms);
  }
  {
    auto s = build_vgprs(VgprsParams{});
    s->net.trace().set_mode(TraceMode::kDisabled);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    const Msisdn callee = make_subscriber(88, 1000).msisdn;
    const NetworkStats before = s->net.stats();
    constexpr int kCalls = 16;
    for (int i = 0; i < kCalls; ++i) {
      s->ms[0]->dial(callee);
      s->settle();
      s->ms[0]->hangup();
      s->settle();
    }
    add_exact_rows(report, "call_cycle", "call", before, s->net.stats(),
                   kCalls);
  }
}

}  // namespace
}  // namespace vgprs

int main(int argc, char** argv) {
  // JsonReport::from_args strips our own --json <path> flag before
  // google-benchmark parses argv.
  vgprs::bench::JsonReport report =
      vgprs::bench::JsonReport::from_args(argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  vgprs::CaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  vgprs::summarize(reporter.runs(), report);
  vgprs::exact_counters(report);
  benchmark::Shutdown();
  return report.write("capacity") ? 0 : 1;
}
