// vgprs_perfbench: one run of one benchmark workload (see README.md).
//
//   vgprs_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--out DIR]
//
// --trace 0 measures the end-to-end metrics with all recording off, except
// what the workload itself records.  --trace 1 is the separate traced run:
// benchmark spans, counters read between phases, a trace-on census and the
// ablations; it prints the per-layer metrics.  The last line on stdout is
// the result object; the "diagnostics" line before it carries the exact
// counts, per-phase CPU and steal time and the traced run's raw numbers.
#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iomanip>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "probe.hpp"
#include "sim/arena.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// busy_hour_32k's worker threads; 4 CPU-bound threads on a 4-vCPU host
// took 1.0-2.0x as long as one.
constexpr unsigned kWorkers = 2;
// Set-ups per end-to-end run; setup_s is their median.
constexpr unsigned kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string out_dir;  // where the traced run writes its span log
};

constexpr const char* kUsage =
    "usage: vgprs_perfbench --workload NAME --seed N --seconds S --trace 0|1\n"
    "                       [--out DIR]\n";

bool parse_u64(const char* s, std::uint64_t& out) {
  if (s == nullptr || *s == '\0' || *s == '-') return false;
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return false;
  out = v;
  return true;
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t v = 0;
    if (flag == "--workload" && value != nullptr) {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed" && parse_u64(value, v)) {
      a.seed = v;
    } else if (flag == "--seconds" && parse_u64(value, v) && v > 0 &&
               v <= 3600) {
      a.seconds = static_cast<double>(v);
    } else if (flag == "--trace" && parse_u64(value, v) && v <= 1) {
      a.trace = static_cast<int>(v);
    } else if (flag == "--out" && value != nullptr) {
      a.out_dir = value;
    } else {
      return std::nullopt;
    }
    ++i;
  }
  if (!have_workload) return std::nullopt;
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// Nearest-rank percentile of simulated latencies, in milliseconds.
double percentile_ms(std::vector<std::int64_t> us, double q) {
  if (us.empty()) return 0.0;
  std::sort(us.begin(), us.end());
  std::size_t rank = static_cast<std::size_t>(q * static_cast<double>(us.size()));
  rank = std::min(rank, us.size() - 1);
  return static_cast<double>(us[rank]) / 1000.0;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Accumulates one JSON object's members as text.
class JsonObject {
 public:
  JsonObject& add(const std::string& key, const std::string& raw) {
    body_ += (body_.empty() ? "" : ", ") + ("\"" + key + "\": ") + raw;
    return *this;
  }
  JsonObject& add(const std::string& key, double v) { return add(key, num(v)); }
  JsonObject& add_u(const std::string& key, std::uint64_t v) {
    return add(key, std::to_string(v));
  }
  JsonObject& add_s(const std::string& key, const std::string& v) {
    std::string q = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    return add(key, q + "\"");
  }
  [[nodiscard]] std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

std::string usage_json(const Usage& u) {
  return JsonObject()
      .add("wall_s", u.wall_s)
      .add("cpu_s", u.cpu_s)
      .add("steal_s", u.steal_s)
      .str();
}

std::string latency_json(const Latencies& l) {
  JsonObject o;
  const char* names[2] = {"vgprs_call_setup", "tr_call_setup"};
  for (int s = 0; s < 2; ++s) {
    o.add(names[s], JsonObject()
                        .add_u("samples", l.call_setup[s].size())
                        .add("p50_ms", percentile_ms(l.call_setup[s], 0.50))
                        .add("p99_ms", percentile_ms(l.call_setup[s], 0.99))
                        .str());
  }
  o.add("vgprs_registration",
        JsonObject()
            .add_u("samples", l.registration.size())
            .add("p50_ms", percentile_ms(l.registration, 0.50))
            .add("p99_ms", percentile_ms(l.registration, 0.99))
            .str());
  return o.str();
}

std::string exact_json(const Exact& e) {
  const auto ops = static_cast<double>(e.ops);
  return JsonObject()
      .add_u("ops", e.ops)
      .add_u("events", e.delivered)
      .add_u("wire_bytes", e.wire_bytes)
      .add_u("timers", e.timers)
      .add_u("windows", e.windows)
      .add_u("fused_windows", e.fused)
      .add("events_per_op", ratio(static_cast<double>(e.delivered), ops))
      .add("wire_bytes_per_op", ratio(static_cast<double>(e.wire_bytes), ops))
      .add("timers_per_op", ratio(static_cast<double>(e.timers), ops))
      .add("windows_per_op", ratio(static_cast<double>(e.windows), ops))
      .add("fused_share", ratio(static_cast<double>(e.fused),
                                static_cast<double>(e.windows + e.fused)))
      .add("latency", latency_json(e.latency))
      .str();
}

void print_result(bool correct, const Tally& t,
                  const std::vector<Metric>& metrics) {
  JsonObject m;
  for (const Metric& x : metrics) {
    m.add(x.name, JsonObject().add("value", x.value).add_s("unit", x.unit).str());
  }
  const std::string line =
      JsonObject()
          .add("correct", correct ? "true" : "false")
          .add_u("attempted", t.attempted)
          .add_u("failed", t.attempted - t.completed)
          .add("metrics", m.str())
          .str();
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// One set-up: build, initial registration and the warm-up slice, whose
/// work counts and simulated latencies are exact for the seed.
struct SetUp {
  double seconds = 0.0;
  Usage usage;
  Tally tally;
  Exact exact;
};

SetUp set_up(Workload& w, bool shard_stats) {
  SetUp s;
  const Usage u0 = Usage::now();
  w.build();
  if (shard_stats) w.enable_shard_stats();
  w.register_all();
  const Counters c0 = w.counters();
  for (unsigned i = 0; i < w.warmup_waves(); ++i) s.tally += w.wave();
  const Counters c1 = w.counters();
  s.usage = Usage::now() - u0;
  s.seconds = s.usage.wall_s;
  s.exact.ops = s.tally.attempted;
  s.exact.delivered = c1.delivered - c0.delivered;
  s.exact.wire_bytes = c1.wire_bytes - c0.wire_bytes;
  s.exact.timers = c1.timers - c0.timers;
  s.exact.windows = c1.windows - c0.windows;
  s.exact.fused = c1.fused - c0.fused;
  s.exact.latency = w.latencies();
  return s;
}

std::string first_error(std::string a, const std::string& b) {
  return a.empty() ? b : a;
}

// --- end-to-end run ----------------------------------------------------------

std::string list_json(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) s += (i ? ", " : "") + num(v[i]);
  return s + "]";
}

int run_end_to_end(const Args& a) {
  std::unique_ptr<Workload> w;
  std::vector<double> setup_s;
  std::vector<Exact> exacts;
  std::string error;
  Tally total;
  Usage setup_usage;
  const auto replace = [&] {
    if (w) {
      w->verify_final();
      error = first_error(error, w->error());
    }
    w.reset();  // one network in memory at a time
    w = make_workload(a.workload, a.seed, kWorkers);
    const SetUp s = set_up(*w, false);
    total += s.tally;
    return s;
  };
  for (unsigned i = 0; i < kSetups; ++i) {
    const SetUp s = replace();
    setup_s.push_back(s.seconds);
    setup_usage += s.usage;
    exacts.push_back(s.exact);
  }
  // Peak memory of the fixed set-up work.  Ops in the timed phase keep
  // adding per-call records, so a later peak would grow with speed.
  const double rss_setup_mb = peak_rss_mb();
  bool repeat = true;
  for (const Exact& e : exacts) repeat = repeat && e == exacts.front();
  if (!repeat) error = first_error(error, "exact counts differ between set-ups");

  // Only wave time is measured.  A storm that runs out of subscribers is
  // set up afresh, untimed, and the clock resumes.
  std::vector<double> rates;
  Tally timed;
  double measured_s = 0.0;
  std::uint64_t restarts = 0;
  const Usage t0 = Usage::now();
  while (measured_s < a.seconds) {
    if (w->waves_left() == 0) {
      replace();
      ++restarts;
    }
    const double start = wall_now();
    const Tally t = w->wave();
    const double wave_s = wall_now() - start;
    measured_s += wave_s;
    rates.push_back(static_cast<double>(t.completed) / wave_s);
    timed += t;
  }
  const Usage timed_usage = Usage::now() - t0;
  w->verify_final();
  error = first_error(error, w->error());
  total += timed;
  const double ops_per_s = ratio(static_cast<double>(timed.completed), measured_s);

  std::vector<double> sorted = rates;
  std::sort(sorted.begin(), sorted.end());
  std::vector<double> quartiles;  // min, q1, median, q3, max of wave rates
  for (std::size_t q = 0; q <= 4 && !sorted.empty(); ++q) {
    quartiles.push_back(sorted[(sorted.size() - 1) * q / 4]);
  }
  const double rss_end_mb = peak_rss_mb();
  JsonObject diag;
  diag.add_s("workload", a.workload)
      .add_u("seed", a.seed)
      .add("setup_s", list_json(setup_s))
      .add("setup_usage", usage_json(setup_usage))
      .add("exact", exact_json(exacts.front()))
      .add("exact_repeats", repeat ? "true" : "false")
      .add("timed_usage", usage_json(timed_usage))
      .add("timed_measured_s", measured_s)
      .add_u("timed_restarts", restarts)
      .add_u("timed_waves", rates.size())
      .add_u("timed_ops", timed.completed)
      .add("timed_ops_per_cpu_s",
           ratio(static_cast<double>(timed.completed), timed_usage.cpu_s))
      .add("wave_rate_quartiles", list_json(quartiles))
      .add("peak_rss_end_mb", rss_end_mb)
      .add("rss_growth_bytes_per_op",
           ratio((rss_end_mb - rss_setup_mb) * 1048576.0,
                 static_cast<double>(timed.completed)))
      .add("run_latency", latency_json(w->latencies()))
      .add_s("error", error);
  std::printf("{\"diagnostics\": %s}\n", diag.str().c_str());

  const bool correct = error.empty() && total.completed == total.attempted;
  print_result(correct, total,
               {{"ops_per_s", ops_per_s, "1/s"},
                {"setup_s", median(setup_s), "s"},
                {"peak_rss_mb", rss_setup_mb, "MB"},
                {"completed_share",
                 ratio(static_cast<double>(total.completed),
                       static_cast<double>(total.attempted)),
                 "ratio"}});
  return 0;
}

// --- traced run --------------------------------------------------------------

/// Both sides of one A/B comparison, run as alternating waves.
struct Side {
  Tally tally;
  double wall_s = 0.0;
  std::uint64_t waves = 0;
  [[nodiscard]] double rate() const {
    return ratio(static_cast<double>(tally.completed), wall_s);
  }
};

struct AB {
  Side a;
  Side b;
  /// Share of side A's wall time that side B does without.
  [[nodiscard]] double share() const {
    return a.rate() > 0.0 && b.rate() > 0.0 ? 1.0 - a.rate() / b.rate() : 0.0;
  }
};

/// Alternates A and B waves (ABBA order, against drift) until `budget_s` of
/// wall time or `max_waves` per side; `configure(true)` selects side A.
/// `around` wraps each wave, so a caller can read counters on one side.
AB alternate(Workload& w, double budget_s, std::size_t max_waves,
             const std::function<void(bool)>& configure,
             const std::function<Tally(bool, const std::function<Tally()>&)>&
                 around) {
  AB r;
  const double t0 = wall_now();
  const auto run_side = [&](bool side_a) {
    Side& s = side_a ? r.a : r.b;
    configure(side_a);
    const double start = wall_now();
    s.tally += around(side_a, [&w] { return w.wave(); });
    s.wall_s += wall_now() - start;
    ++s.waves;
  };
  for (std::uint64_t round = 0;; ++round) {
    const bool a_first = round % 2 == 0;
    run_side(a_first);
    run_side(!a_first);
    if (wall_now() - t0 >= budget_s || r.a.waves >= max_waves ||
        w.waves_left() < 2) {
      break;
    }
  }
  return r;
}

std::string side_json(const Side& s) {
  return JsonObject()
      .add_u("waves", s.waves)
      .add_u("ops", s.tally.completed)
      .add("wall_s", s.wall_s)
      .add("ops_per_s", s.rate())
      .str();
}

int run_traced(const Args& a) {
  SpanLog log;
  log.set_enabled(true);
  std::string error;
  Tally total;
  JsonObject diag;
  diag.add_s("workload", a.workload).add_u("seed", a.seed);

  // Worker-count invariance: the same slice at 1 worker must do exactly
  // the work the measured worker count does.  Fused windows are the one
  // exception: a worker parks only when every shard it owns is quiet, so a
  // single worker owning all shards never fuses.
  std::optional<Exact> one_worker;
  if (a.workload == "busy_hour_32k") {
    auto ref = make_workload(a.workload, a.seed, 1);
    const SetUp s = set_up(*ref, false);
    one_worker = s.exact;
    total += s.tally;
    error = first_error(error, ref->error());
  }

  auto w = make_workload(a.workload, a.seed, kWorkers);
  w->set_span_log(&log);
  const Recording base = w->base_recording();
  SetUp setup;
  {
    Scope span(&log, "setup");
    setup = set_up(*w, true);
  }
  total += setup.tally;
  const Exact& ex = setup.exact;
  const std::array<double, kPhaseCount> setup_settle = w->settle_s();
  bool invariant = true;
  if (one_worker) {
    Exact unfused = *one_worker;
    unfused.fused = ex.fused;
    invariant = unfused == ex;
  }
  if (!invariant) {
    error = first_error(error, "exact counts differ between 1 and " +
                                   std::to_string(kWorkers) + " workers");
  }
  diag.add("setup_usage", usage_json(setup.usage)).add("exact", exact_json(ex));
  if (one_worker) {
    diag.add("exact_1_worker", exact_json(*one_worker))
        .add("worker_invariant", invariant ? "true" : "false");
  }

  // Trace-on census: per-message-type counts from the string trace.
  Families census;
  std::uint64_t census_ops = 0;
  {
    Scope span(&log, "census");
    Recording r = base;
    r.trace = true;
    w->set_recording(r);
    const Families before = w->families();
    for (unsigned i = 0; i < w->census_waves() && w->waves_left() > 0; ++i) {
      const Tally t = w->wave();
      census_ops += t.completed;
      total += t;
    }
    census = w->families() - before;
    w->set_recording(base);
  }

  // Four A/B comparisons share the remaining time (and, for the storm, the
  // remaining subscribers).
  const double pair_s = std::clamp(a.seconds / 4.0, 1.0, 5.0);
  std::size_t pairs_left = 4;
  const auto cap = [&] {
    const std::size_t left = w->waves_left();
    return left == SIZE_MAX ? left : std::max<std::size_t>(1, left / (2 * pairs_left--));
  };
  const auto plain_wave = [](bool, const std::function<Tally()>& f) {
    return f();
  };

  // Tracing overhead: benchmark spans on (A) against the plain loop (B).
  // The plain side also yields the per-layer costs read from counters.
  Counters plain_counters;
  double plain_settle_s = 0.0;
  std::uint64_t plain_allocs = 0;
  std::uint64_t plain_oversize = 0;
  const auto measure_plain = [&](bool side_a, const std::function<Tally()>& f) {
    if (side_a) return f();
    const Counters c0 = w->counters();
    const auto s0 = w->settle_s();
    const vgprs::MessagePoolStats p0 = vgprs::message_pool_stats();
    const std::uint64_t h0 = heap_allocs();
    count_heap_allocs(true);
    const Tally t = f();
    count_heap_allocs(false);
    plain_allocs += heap_allocs() - h0;
    plain_oversize += vgprs::message_pool_stats().oversize_allocs - p0.oversize_allocs;
    const Counters c1 = w->counters();
    const auto s1 = w->settle_s();
    for (std::size_t i = 0; i < kPhaseCount; ++i) plain_settle_s += s1[i] - s0[i];
    plain_counters.delivered += c1.delivered - c0.delivered;
    plain_counters.drain_ns += c1.drain_ns - c0.drain_ns;
    plain_counters.barrier_ns += c1.barrier_ns - c0.barrier_ns;
    plain_counters.idle_ns += c1.idle_ns - c0.idle_ns;
    plain_counters.worker_busy_ns.resize(c1.worker_busy_ns.size());
    for (std::size_t i = 0; i < c1.worker_busy_ns.size(); ++i) {
      plain_counters.worker_busy_ns[i] +=
          c1.worker_busy_ns[i] - c0.worker_busy_ns[i];
    }
    return t;
  };
  const Usage pairs_t0 = Usage::now();
  const AB overhead = alternate(
      *w, pair_s, cap(), [&](bool side_a) { log.set_enabled(side_a); },
      measure_plain);
  log.set_enabled(false);
  const auto with = [&](auto edit) {
    return [&, edit](bool side_a) {
      Recording r = base;
      edit(r, side_a);
      w->set_recording(r);
    };
  };
  const AB trace_ab = alternate(
      *w, pair_s, cap(), with([](Recording& r, bool on) { r.trace = on; }),
      plain_wave);
  const AB span_ab = alternate(
      *w, pair_s, cap(), with([](Recording& r, bool on) { r.spans = on; }),
      plain_wave);
  const AB codec_ab = alternate(
      *w, pair_s, cap(), with([](Recording& r, bool on) { r.serialize = on; }),
      plain_wave);
  w->set_recording(base);
  const Usage pairs_usage = Usage::now() - pairs_t0;
  for (const AB* p : {&overhead, &trace_ab, &span_ab, &codec_ab}) {
    total += p->a.tally;
    total += p->b.tally;
  }
  w->verify_final();
  error = first_error(error, w->error());

  const Counters end = w->counters();
  const double ops = static_cast<double>(ex.ops);
  const double cops = static_cast<double>(census_ops);
  const double plain_ops = static_cast<double>(overhead.b.tally.completed);
  const unsigned workers = std::max<unsigned>(
      1, static_cast<unsigned>(end.worker_busy_ns.size()));
  double busy_max = 0.0;
  double busy_sum = 0.0;
  for (std::uint64_t b : plain_counters.worker_busy_ns) {
    busy_max = std::max(busy_max, static_cast<double>(b));
    busy_sum += static_cast<double>(b);
  }
  const double busy_mean = busy_sum / workers;
  const double worker_wall_s = workers * plain_settle_s;
  const Latencies& lat = w->latencies();

  diag.add("census", JsonObject()
                         .add_u("ops", census_ops)
                         .add_u("entries", census.entries)
                         .add_u("um", census.um)
                         .add_u("bss", census.bss)
                         .add_u("map", census.map)
                         .add_u("gprs", census.gprs)
                         .add_u("h323", census.h323)
                         .add_u("paging_requests", census.paging_requests)
                         .add_u("paging_responses", census.paging_responses)
                         .add_u("pdp_activations", census.pdp_activations)
                         .add_u("spans_closed", census.spans_closed)
                         .str())
      .add("pairs_usage", usage_json(pairs_usage))
      .add("plain_windows",
           JsonObject()
               .add_u("workers", workers)
               .add("settle_s", plain_settle_s)
               .add("busy_s", busy_sum * 1e-9)
               .add("drain_s", static_cast<double>(plain_counters.drain_ns) * 1e-9)
               .add("barrier_s", static_cast<double>(plain_counters.barrier_ns) * 1e-9)
               .add("idle_s", static_cast<double>(plain_counters.idle_ns) * 1e-9)
               .str())
      .add("overhead", JsonObject()
                           .add("traced", side_json(overhead.a))
                           .add("plain", side_json(overhead.b))
                           .str())
      .add("trace_ablation", JsonObject()
                                 .add("full", side_json(trace_ab.a))
                                 .add("disabled", side_json(trace_ab.b))
                                 .str())
      .add("span_ablation", JsonObject()
                                .add("on", side_json(span_ab.a))
                                .add("off", side_json(span_ab.b))
                                .str())
      .add("codec_ablation", JsonObject()
                                 .add("serialize", side_json(codec_ab.a))
                                 .add("pointer", side_json(codec_ab.b))
                                 .str())
      .add("run_latency", latency_json(lat))
      .add_s("error", error);
  std::printf("{\"diagnostics\": %s}\n", diag.str().c_str());

  if (!a.out_dir.empty()) {
    const std::string path = a.out_dir + "/spans-" + a.workload + "-seed" +
                             std::to_string(a.seed) + ".json";
    std::ofstream out(path);
    out << std::setprecision(9);
    log.write_json(out);
    if (!out) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  }

  const bool correct = error.empty() && total.completed == total.attempted;
  print_result(
      correct, total,
      {{"sim.events_per_op", ratio(static_cast<double>(ex.delivered), ops), "count/op"},
       {"sim.wire_bytes_per_op", ratio(static_cast<double>(ex.wire_bytes), ops), "B/op"},
       {"sim.timers_per_op", ratio(static_cast<double>(ex.timers), ops), "count/op"},
       {"sim.ns_per_event",
        ratio(plain_settle_s * 1e9, static_cast<double>(plain_counters.delivered)), "ns"},
       // Set-up costs as shares of the traced set-up's wall time, so that a
       // phase a workload lacks reads 0 as a share, never as a constant time.
       {"bench.setup_s", setup.seconds, "s"},
       {"sim.settle_register_share", ratio(setup_settle[0], setup.seconds), "ratio"},
       {"sim.settle_call_share", ratio(setup_settle[1], setup.seconds), "ratio"},
       {"sim.settle_release_share", ratio(setup_settle[2], setup.seconds), "ratio"},
       {"vgprs.build_share", ratio(w->vgprs_build_s(), setup.seconds), "ratio"},
       {"tr23821.build_share", ratio(w->tr_build_s(), setup.seconds), "ratio"},
       {"sim.window_windows_per_op", ratio(static_cast<double>(ex.windows), ops), "count/op"},
       {"sim.window_fused_share",
        ratio(static_cast<double>(ex.fused), static_cast<double>(ex.windows + ex.fused)),
        "ratio"},
       // Window-protocol time as shares of the workers' settle wall time;
       // the busy share is the parallel efficiency.
       {"sim.window_drain_share",
        ratio(static_cast<double>(plain_counters.drain_ns) * 1e-9, worker_wall_s), "ratio"},
       {"sim.window_barrier_share",
        ratio(static_cast<double>(plain_counters.barrier_ns) * 1e-9, worker_wall_s), "ratio"},
       {"sim.window_idle_share",
        ratio(static_cast<double>(plain_counters.idle_ns) * 1e-9, worker_wall_s), "ratio"},
       {"sim.window_parallel_efficiency",
        ratio(busy_sum * 1e-9, worker_wall_s), "ratio"},
       {"sim.window_busy_imbalance", ratio(busy_max, busy_mean), "ratio"},
       {"sim.pool_chunks", static_cast<double>(vgprs::message_pool_stats().chunks), "count"},
       {"sim.pool_oversize_per_op", ratio(static_cast<double>(plain_oversize), plain_ops), "count/op"},
       {"sim.heap_allocs_per_op", ratio(static_cast<double>(plain_allocs), plain_ops), "count/op"},
       {"sim.trace_entries_per_op", ratio(static_cast<double>(census.entries), cops), "count/op"},
       {"sim.trace_share", trace_ab.share(), "ratio"},
       {"sim.trace_on_ops_per_s", trace_ab.a.rate(), "1/s"},
       {"sim.trace_off_ops_per_s", trace_ab.b.rate(), "1/s"},
       {"sim.span_share", span_ab.share(), "ratio"},
       {"sim.span_on_ops_per_s", span_ab.a.rate(), "1/s"},
       {"sim.span_off_ops_per_s", span_ab.b.rate(), "1/s"},
       {"sim.retransmits_per_op",
        ratio(static_cast<double>(end.retransmits), static_cast<double>(total.attempted)),
        "count/op"},
       {"sim.give_ups", static_cast<double>(end.give_ups), "count"},
       {"common.codec_share", codec_ab.share(), "ratio"},
       {"common.codec_on_ops_per_s", codec_ab.a.rate(), "1/s"},
       {"common.codec_off_ops_per_s", codec_ab.b.rate(), "1/s"},
       {"gsm.paging_copies_per_op", ratio(static_cast<double>(census.paging_requests), cops), "count/op"},
       {"gsm.paging_useful_ratio",
        ratio(static_cast<double>(census.paging_responses),
            static_cast<double>(census.paging_requests)),
        "ratio"},
       {"gsm.um_per_op", ratio(static_cast<double>(census.um), cops), "count/op"},
       {"gsm.bss_per_op", ratio(static_cast<double>(census.bss), cops), "count/op"},
       {"gsm.map_per_op", ratio(static_cast<double>(census.map), cops), "count/op"},
       {"gprs.deliveries_per_op", ratio(static_cast<double>(census.gprs), cops), "count/op"},
       {"gprs.pdp_activations_per_op", ratio(static_cast<double>(census.pdp_activations), cops), "count/op"},
       {"h323.deliveries_per_op", ratio(static_cast<double>(census.h323), cops), "count/op"},
       {"vgprs.call_setup_p50_ms", percentile_ms(lat.call_setup[0], 0.50), "sim_ms"},
       {"vgprs.call_setup_p99_ms", percentile_ms(lat.call_setup[0], 0.99), "sim_ms"},
       {"tr23821.call_setup_p50_ms", percentile_ms(lat.call_setup[1], 0.50), "sim_ms"},
       {"tr23821.call_setup_p99_ms", percentile_ms(lat.call_setup[1], 0.99), "sim_ms"},
       {"vgprs.registration_p50_ms", percentile_ms(lat.registration, 0.50), "sim_ms"},
       {"vgprs.registration_p99_ms", percentile_ms(lat.registration, 0.99), "sim_ms"},
       {"bench.plain_ops_per_s", overhead.b.rate(), "1/s"},
       {"bench.traced_ops_per_s", overhead.a.rate(), "1/s"},
       {"bench.tracing_overhead_share", overhead.share(), "ratio"}});
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const std::optional<perfbench::Args> args =
      perfbench::parse_args(argc, argv);
  if (!args) {
    std::fputs(perfbench::kUsage, stderr);
    return 2;
  }
  const auto& names = perfbench::workload_names();
  if (std::find(names.begin(), names.end(), args->workload) == names.end()) {
    std::fprintf(stderr, "unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  try {
    return args->trace == 1 ? perfbench::run_traced(*args)
                            : perfbench::run_end_to_end(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vgprs_perfbench: %s\n", e.what());
    return 1;
  }
}
