// CAP — engineering extension: wall-clock capacity of the simulator and of
// the VMSC's procedures (registrations and calls per second of host CPU),
// plus codec microbenchmarks.  Uses google-benchmark.
//
// Capacity runs disable tracing (TraceMode::kDisabled): the numbers measure
// the engine and the procedures, not the trace-string formatter, and memory
// stays flat without manual trace clearing.
//
// `--json <path>` additionally writes the shared vgprs.bench.v1 summary
// (events/s, registrations/s, calls/s, codec ns/op) for CI perf tracking.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/export.hpp"

namespace vgprs {
namespace {

void BM_EventThroughput(benchmark::State& state) {
  register_all_messages();
  struct Echo final : public Node {
    using Node::Node;
    NodeId peer;
    std::int64_t remaining = 0;
    void on_message(const Envelope& env) override {
      if (remaining-- > 0) send(peer, MessagePtr(env.msg->clone()));
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

// The tentpole's headline number: one metropolitan-scale scenario (16
// cells under a single VMSC) executed by the sharded engine.  range(0) =
// subscribers, range(1) = worker threads; the 1-worker rows are the
// scaling baseline (same shard layout, same event order — only the thread
// count changes, so the ratio is pure engine speedup).  Registration is
// untimed setup; each iteration is a wave of simultaneous cross-cell call
// cycles, which keeps every shard seam (Abis, A, Gn, Gi, IP) busy.  The
// wave is capped at a fixed pair count strided across the population:
// every terminating leg pages the whole destination cell (n/16 MSs), so
// an uncapped wave at 100k subscribers would enqueue ~300M simultaneous
// paging events (~15 GB of heap) — the cap bounds peak in-flight memory
// while the per-event work stays identical.
void BM_ShardedCallMix(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto workers = static_cast<unsigned>(state.range(1));
  // The million-subscriber row spreads the population over 64 cells and
  // trims the wave: a terminating leg pages its whole destination cell
  // (n / num_cells MSs), so holding 16 cells / 2048 pairs at 1M would put
  // ~32M simultaneous paging events in flight.  64 cells x 256 pairs keeps
  // the peak at ~4M events while per-event work is unchanged.
  const bool million = n >= 1'000'000;
  VgprsParams params;
  params.num_ms = n;
  params.num_cells = million ? 64 : 16;
  params.bsc_channels = 8192;
  params.seed = 11;
  params.sharded = true;
  params.workers = workers;
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
  // under the shard plan, cross-shard) while the cap keeps the wave's
  // paging fan-out bounded.
  const std::size_t pairs =
      std::min<std::size_t>(s->ms.size() / 2, million ? 256 : 2048);
  std::uint64_t delivered = 0;
  std::int64_t calls = 0;
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
    calls += static_cast<std::int64_t>(pairs);
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
  state.counters["calls/s"] = benchmark::Counter(
      static_cast<double>(calls), benchmark::Counter::kIsRate);
  state.SetLabel(std::to_string(s->net.num_shards()) + " shards");
}
BENCHMARK(BM_ShardedCallMix)
    ->Args({10000, 1})
    ->Args({10000, 2})
    ->Args({10000, 8})
    ->Args({100000, 1})
    ->Args({100000, 2})
    ->Args({100000, 8})
    ->Args({1000000, 1})
    ->Args({1000000, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Capture-overhead ablation for the binary trace format: the same 8-worker
// call mix as BM_ShardedCallMix, with range(1) selecting what records each
// delivery.  0 = nothing (kDisabled baseline), 1 = full tracing + JSONL
// formatting per wave (the pre-btrace way to keep a complete record),
// 2 = binary ring capture (packed integer stores, no formatting).  The
// events/s ratio of rows 2 and 0 is the acceptance number: binary capture
// must cost <= 10% at the 10k-subscriber mix.
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
  s->net.trace().set_mode(mode == 1 ? TraceMode::kFull
                                    : TraceMode::kDisabled);
  if (mode == 2) {
    CaptureConfig cfg;
    cfg.ring_bytes_per_shard = 1u << 20;  // 1 MiB/shard, overwrite-oldest
    s->net.enable_capture(cfg);
  }
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
  if (mode == 1) s->net.trace().clear();
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
    if (mode == 1) {
      // The JSONL row pays its formatting cost inside the timed region,
      // exactly as a capture-to-disk run would; the bytes are discarded.
      std::ostringstream sink;
      write_trace_jsonl(sink, s->net.trace());
      benchmark::DoNotOptimize(sink);
      s->net.trace().clear();
    }
  }
  state.counters["events/s"] = benchmark::Counter(
      static_cast<double>(delivered), benchmark::Counter::kIsRate);
  state.SetLabel(mode == 0   ? "capture off"
                 : mode == 1 ? "JSONL tracing"
                             : "binary capture");
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
  RasArq arq;
  arq.called = Msisdn(880900000001ULL, 12);
  for (auto _ : state) {
    auto dgram = make_ip_datagram(IpAddress(10, 1, 0, 1),
                                  IpAddress(192, 168, 1, 1), arq);
    GtpPdu pdu;
    pdu.teid = TunnelId(1);
    pdu.payload = dgram->encode();
    GbUnitData frame;
    frame.imsi = Imsi(466920000000001ULL, 15);
    frame.payload = pdu.encode();
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
  // 1w/8w pairs of the sharded call mix, remembered for the derived
  // speedup_8w_over_1w rows CI's perf-smoke gates on.
  struct MixScale {
    const char* scale;
    double w1 = 0.0;
    double w8 = 0.0;
  };
  MixScale mix[] = {{"10k"}, {"100k"}, {"1m"}};
  for (const auto& run : runs) {
    const std::string name = run.run_name.str();
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
    } else if (name.find("BM_ShardedCallMix/10000/1") != std::string::npos) {
      mix[0].w1 = counter_rate(run, "events/s");
      report.add("sharded_call_mix_10k_1w", "events_per_s", "1/s", mix[0].w1);
    } else if (name.find("BM_ShardedCallMix/10000/8") != std::string::npos) {
      mix[0].w8 = counter_rate(run, "events/s");
      report.add("sharded_call_mix_10k_8w", "events_per_s", "1/s", mix[0].w8);
    } else if (name.find("BM_ShardedCallMix/1000000/1") !=
               std::string::npos) {
      mix[2].w1 = counter_rate(run, "events/s");
      report.add("sharded_call_mix_1m_1w", "events_per_s", "1/s", mix[2].w1);
    } else if (name.find("BM_ShardedCallMix/1000000/8") !=
               std::string::npos) {
      mix[2].w8 = counter_rate(run, "events/s");
      report.add("sharded_call_mix_1m_8w", "events_per_s", "1/s", mix[2].w8);
    } else if (name.find("BM_ShardedCallMix/100000/1") != std::string::npos) {
      mix[1].w1 = counter_rate(run, "events/s");
      report.add("sharded_call_mix_100k_1w", "events_per_s", "1/s",
                 mix[1].w1);
    } else if (name.find("BM_ShardedCallMix/100000/8") != std::string::npos) {
      mix[1].w8 = counter_rate(run, "events/s");
      report.add("sharded_call_mix_100k_8w", "events_per_s", "1/s",
                 mix[1].w8);
    } else if (name.find("BM_CaptureOverhead/10000/0") != std::string::npos) {
      report.add("capture_overhead_10k_off", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/10000/1") != std::string::npos) {
      report.add("capture_overhead_10k_jsonl", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/10000/2") != std::string::npos) {
      report.add("capture_overhead_10k_btrace", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/100000/0") !=
               std::string::npos) {
      report.add("capture_overhead_100k_off", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/100000/1") !=
               std::string::npos) {
      report.add("capture_overhead_100k_jsonl", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CaptureOverhead/100000/2") !=
               std::string::npos) {
      report.add("capture_overhead_100k_btrace", "events_per_s", "1/s",
                 counter_rate(run, "events/s"));
    } else if (name.find("BM_CodecRoundTrip") != std::string::npos) {
      report.add("codec", "roundtrip_ns", "ns", ns_per_op(run));
    } else if (name.find("BM_NestedTunnelEncapsulation") !=
               std::string::npos) {
      report.add("codec", "nested_encapsulation_ns", "ns", ns_per_op(run));
    }
  }
  for (const MixScale& m : mix) {
    if (m.w1 > 0.0 && m.w8 > 0.0) {
      report.add(std::string("sharded_call_mix_") + m.scale,
                 "speedup_8w_over_1w", "ratio", m.w8 / m.w1);
    }
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
  benchmark::Shutdown();
  return report.write("capacity") ? 0 : 1;
}
