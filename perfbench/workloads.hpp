// The benchmark's three workloads.  Each drives the simulator only through
// its public API — build_vgprs / build_tr23821, the MobileStation,
// TrMobileStation and H323Terminal user calls, and Network::run_until_idle —
// as a closed loop in simulated time: a wave of user actions, settle, check,
// repeat.  The workload seed only chooses the generated inputs (call pairs,
// power-on order, call direction); every network keeps its builder seed.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "probe.hpp"
#include "sim/network.hpp"

namespace perfbench {

enum class Phase : std::uint8_t { kRegister, kCall, kRelease };
inline constexpr std::size_t kPhaseCount = 3;

/// What every delivery records, per network.
struct Recording {
  bool trace = false;     // TraceMode::kFull when on, kDisabled when off
  bool spans = false;     // SpanTracker enabled
  bool serialize = true;  // wire-codec round trip on every link
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  Tally& operator+=(const Tally& o) {
    attempted += o.attempted;
    completed += o.completed;
    return *this;
  }
};

/// Deliveries by protocol family, tallied from the string trace while it is
/// recording (the trace is the record stream a report consumes).
struct Families {
  std::uint64_t entries = 0;
  std::uint64_t um = 0;    // Um_*
  std::uint64_t bss = 0;   // Abis_*, A_*
  std::uint64_t map = 0;   // MAP_*
  std::uint64_t gprs = 0;  // Gb_*, GTP_*, GPRS_*, GGSN_*, PDP context messages
  std::uint64_t h323 = 0;  // IP_Datagram (RAS and Q.931 ride in these)
  std::uint64_t paging_requests = 0;   // Um_Paging_Request copies
  std::uint64_t paging_responses = 0;  // Um_Paging_Response
  std::uint64_t pdp_activations = 0;   // Activate_PDP_Context_Accept
  std::uint64_t spans_closed = 0;      // procedure spans read back

  Families operator-(const Families& o) const {
    return {entries - o.entries,
            um - o.um,
            bss - o.bss,
            map - o.map,
            gprs - o.gprs,
            h323 - o.h323,
            paging_requests - o.paging_requests,
            paging_responses - o.paging_responses,
            pdp_activations - o.pdp_activations,
            spans_closed - o.spans_closed};
  }
};

/// Counters summed over a workload's networks.  Everything but the
/// recovery counters comes from NetworkStats and shard_perf(); the *_ns
/// fields are wall clock and only filled while shard stats are on.
struct Counters {
  std::uint64_t delivered = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t timers = 0;
  std::uint64_t windows = 0;
  std::uint64_t fused = 0;
  std::int64_t retransmits = 0;
  std::int64_t give_ups = 0;
  std::uint64_t busy_ns = 0;
  std::uint64_t drain_ns = 0;
  std::uint64_t barrier_ns = 0;
  std::uint64_t idle_ns = 0;
  std::vector<std::uint64_t> worker_busy_ns;
};

/// Simulated latency samples in microseconds, appended as ops complete.
struct Latencies {
  std::array<std::vector<std::int64_t>, 2> call_setup;  // [vGPRS, TR 23.821]
  std::vector<std::int64_t> registration;               // vGPRS power-on
  bool operator==(const Latencies&) const = default;
};

/// The deterministic work of one slice of ops: for a fixed seed it repeats
/// bit for bit, run after run and at any worker count.
struct Exact {
  std::uint64_t ops = 0;
  std::uint64_t delivered = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t timers = 0;
  std::uint64_t windows = 0;
  std::uint64_t fused = 0;
  Latencies latency;
  bool operator==(const Exact&) const = default;
};

class Workload {
 public:
  virtual ~Workload() = default;
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  [[nodiscard]] virtual std::vector<vgprs::Network*> networks() = 0;
  /// Builds the topology; records per-system builder seconds.
  virtual void build() = 0;
  /// Initial registration that every op relies on.
  virtual void register_all() = 0;
  /// One closed-loop batch of ops, checked op by op.
  virtual Tally wave() = 0;
  /// Waves in the untimed warm-up slice (the exact-count slice).
  [[nodiscard]] virtual unsigned warmup_waves() const = 0;
  /// Waves the trace-on pass runs for the per-message-type counts.
  [[nodiscard]] virtual unsigned census_waves() const = 0;
  /// Waves still possible (the storm runs out of subscribers).
  [[nodiscard]] virtual std::size_t waves_left() const { return SIZE_MAX; }
  /// The recording a workload runs with outside ablations.
  [[nodiscard]] virtual Recording base_recording() const { return {}; }
  /// End-of-run consistency checks too costly to make every wave.
  virtual void verify_final() {}

  void set_recording(const Recording& r);
  void set_span_log(SpanLog* log) { log_ = log; }
  void enable_shard_stats();

  [[nodiscard]] Counters counters();
  [[nodiscard]] const Families& families() const { return families_; }
  [[nodiscard]] const Latencies& latencies() const { return latency_; }
  [[nodiscard]] const std::array<double, kPhaseCount>& settle_s() const {
    return settle_s_;
  }
  [[nodiscard]] double vgprs_build_s() const { return build_s_[0]; }
  [[nodiscard]] double tr_build_s() const { return build_s_[1]; }
  /// Empty while every output matched; else the first mismatch seen.
  [[nodiscard]] const std::string& error() const { return error_; }

 protected:
  /// run_until_idle with its wall time charged to `phase`.
  void settle(vgprs::Network& net, Phase phase);
  /// Reads and clears what the network recorded since the last call: the
  /// trace (tallied into families_) and the closed spans.
  void consume(vgprs::Network& net);
  void fail(std::string what);

  SpanLog* log_ = nullptr;
  Recording recording_;
  Families families_;
  Latencies latency_;
  std::array<double, kPhaseCount> settle_s_{};
  std::array<double, 2> build_s_{};
  std::uint64_t waves_ = 0;
  std::string error_;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();
/// Null for an unknown name.  `workers` only affects busy_hour_32k.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned workers);

}  // namespace perfbench
