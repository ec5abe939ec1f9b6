#include "workloads.hpp"

#include <algorithm>
#include <numeric>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"
#include "sim/span.hpp"
#include "sim/trace.hpp"
#include "tr23821/tr_scenario.hpp"
#include "vgprs/flows.hpp"
#include "vgprs/scenario.hpp"

namespace perfbench {

using vgprs::CallRef;
using vgprs::H323Terminal;
using vgprs::MobileStation;
using vgprs::Msisdn;
using vgprs::Network;
using vgprs::TrMobileStation;

namespace {

// Every network keeps one builder seed; the workload seed only picks inputs.
constexpr std::uint64_t kNetworkSeed = 11;
// Per-BSC SDCCH/TCH pools large enough that no wave ever blocks.
constexpr std::uint32_t kBscChannels = 8192;

const char* phase_span(Phase p) {
  switch (p) {
    case Phase::kRegister:
      return "settle.register";
    case Phase::kCall:
      return "settle.call";
    case Phase::kRelease:
      return "settle.release";
  }
  return "settle";
}

void tally(const vgprs::TraceEntry& e, Families& f) {
  const std::string_view m = e.message;
  ++f.entries;
  if (m.starts_with("Um_")) {
    ++f.um;
    if (m == "Um_Paging_Request") ++f.paging_requests;
    if (m == "Um_Paging_Response") ++f.paging_responses;
  } else if (m.starts_with("Abis_") || m.starts_with("A_")) {
    ++f.bss;
  } else if (m.starts_with("MAP_")) {
    ++f.map;
  } else if (m == "IP_Datagram") {
    ++f.h323;
  } else if (m.starts_with("Gb_") || m.starts_with("GTP_") ||
             m.starts_with("GPRS_") || m.starts_with("GGSN_") ||
             m.find("PDP_Context") != std::string_view::npos) {
    ++f.gprs;
    if (m == "Activate_PDP_Context_Accept") ++f.pdp_activations;
  }
}

std::int64_t now_us(const Network& net) { return net.now().count_micros(); }

// ---------------------------------------------------------------------------

/// vGPRS, 32,000 MSs over 16 cells, sharded engine on `workers` threads.
/// A wave is 256 concurrent cross-cell MS->MS call cycles between disjoint
/// pairs drawn from the whole population; an op is one call cycle.
class BusyHour final : public Workload {
 public:
  static constexpr std::uint32_t kSubscribers = 32000;
  static constexpr std::uint32_t kCells = 16;
  static constexpr std::uint32_t kCallsPerWave = 256;

  BusyHour(std::uint64_t seed, unsigned workers)
      : rng_(seed), workers_(workers) {}

  std::vector<Network*> networks() override { return {&s_->net}; }
  unsigned warmup_waves() const override { return 2; }
  unsigned census_waves() const override { return 1; }

  void build() override {
    vgprs::VgprsParams p;
    p.num_ms = kSubscribers;
    p.num_cells = kCells;
    p.bsc_channels = kBscChannels;
    p.seed = kNetworkSeed;
    p.sharded = true;
    p.workers = workers_;
    {
      Scope span(log_, "build.vgprs");
      const double t0 = wall_now();
      s_ = vgprs::build_vgprs(p);
      build_s_[0] = wall_now() - t0;
    }
    set_recording(base_recording());
    const std::size_t n = s_->ms.size();
    cell_.resize(n);
    mark_.assign(n, 0);
    connected_at_.assign(n, -1);
    registered_at_.assign(n, -1);
    std::unordered_map<std::string, std::uint32_t> cell_of;
    for (std::uint32_t i = 0; i < n; ++i) {
      MobileStation* ms = s_->ms[i];
      cell_[i] = cell_of.emplace(ms->config().bts_name, cell_of.size())
                     .first->second;
      ms->on_connected = [this, i](CallRef) {
        connected_at_[i] = now_us(s_->net);
      };
      ms->on_registered = [this, i] { registered_at_[i] = now_us(s_->net); };
    }
  }

  void register_all() override {
    const std::int64_t t0 = now_us(s_->net);
    {
      Scope span(log_, "power_on");
      for (MobileStation* ms : s_->ms) ms->power_on();
    }
    settle(s_->net, Phase::kRegister);
    for (std::size_t i = 0; i < s_->ms.size(); ++i) {
      if (s_->ms[i]->state() != MobileStation::State::kIdle ||
          registered_at_[i] < 0) {
        fail("busy_hour_32k: MS " + std::to_string(i) + " did not register");
        continue;
      }
      latency_.registration.push_back(registered_at_[i] - t0);
    }
    if (s_->vmsc->ready_count() != s_->ms.size()) {
      fail("busy_hour_32k: VMSC ready count " +
           std::to_string(s_->vmsc->ready_count()));
    }
    consume(s_->net);
  }

  Tally wave() override {
    ++waves_;
    const auto op = static_cast<std::int64_t>(waves_);
    const auto stamp = static_cast<std::uint32_t>(waves_);
    const auto n = static_cast<std::uint32_t>(s_->ms.size());
    for (std::uint32_t k = 0; k < kCallsPerWave; ++k) {
      std::uint32_t a = 0;
      do {
        a = static_cast<std::uint32_t>(rng_.next_below(n));
      } while (mark_[a] == stamp);
      mark_[a] = stamp;
      std::uint32_t b = 0;
      do {
        b = static_cast<std::uint32_t>(rng_.next_below(n));
      } while (mark_[b] == stamp || cell_[b] == cell_[a]);
      mark_[b] = stamp;
      pairs_[k] = {a, b};
    }
    const std::int64_t t0 = now_us(s_->net);
    {
      Scope span(log_, "dial", op);
      for (const auto& [a, b] : pairs_) {
        connected_at_[a] = -1;
        connected_at_[b] = -1;
        s_->ms[a]->dial(s_->ms[b]->config().msisdn);
      }
    }
    settle(s_->net, Phase::kCall);
    std::array<bool, kCallsPerWave> ok{};
    for (std::uint32_t k = 0; k < kCallsPerWave; ++k) {
      const auto [a, b] = pairs_[k];
      // The addressed callee must be the one connected: a misrouted call
      // leaves the caller connected to somebody else.
      ok[k] = s_->ms[a]->state() == MobileStation::State::kConnected &&
              s_->ms[b]->state() == MobileStation::State::kConnected &&
              connected_at_[a] >= 0;
      if (ok[k]) latency_.call_setup[0].push_back(connected_at_[a] - t0);
    }
    {
      Scope span(log_, "hangup", op);
      for (const auto& [a, b] : pairs_) s_->ms[a]->hangup();
    }
    settle(s_->net, Phase::kRelease);
    Tally t;
    t.attempted = kCallsPerWave;
    for (std::uint32_t k = 0; k < kCallsPerWave; ++k) {
      const auto [a, b] = pairs_[k];
      if (ok[k] && s_->ms[a]->state() == MobileStation::State::kIdle &&
          s_->ms[b]->state() == MobileStation::State::kIdle) {
        ++t.completed;
      }
    }
    consume(s_->net);
    return t;
  }

 private:
  vgprs::Rng rng_;
  unsigned workers_;
  std::unique_ptr<vgprs::VgprsScenario> s_;
  std::vector<std::uint32_t> cell_;
  std::vector<std::uint32_t> mark_;  // wave stamp: MS already in this wave
  std::vector<std::int64_t> connected_at_;
  std::vector<std::int64_t> registered_at_;
  std::array<std::pair<std::uint32_t, std::uint32_t>, kCallsPerWave> pairs_{};
};

// ---------------------------------------------------------------------------

/// vGPRS, 100,000 MSs over 16 cells, sequential engine.  MSs power on in
/// waves of 1,024 in a seeded order; an op is one Fig. 4 registration.
/// The population is consumed, so the run ends early if it runs out.
class Storm final : public Workload {
 public:
  static constexpr std::uint32_t kSubscribers = 100000;
  static constexpr std::uint32_t kCells = 16;
  static constexpr std::uint32_t kPerWave = 1024;

  explicit Storm(std::uint64_t seed) : rng_(seed) {}

  std::vector<Network*> networks() override { return {&s_->net}; }
  unsigned warmup_waves() const override { return 8; }
  unsigned census_waves() const override { return 4; }
  std::size_t waves_left() const override {
    return (order_.size() - next_ + kPerWave - 1) / kPerWave;
  }

  void build() override {
    vgprs::VgprsParams p;
    p.num_ms = kSubscribers;
    p.num_cells = kCells;
    p.bsc_channels = kBscChannels;
    p.seed = kNetworkSeed;
    {
      Scope span(log_, "build.vgprs");
      const double t0 = wall_now();
      s_ = vgprs::build_vgprs(p);
      build_s_[0] = wall_now() - t0;
    }
    set_recording(base_recording());
    const std::size_t n = s_->ms.size();
    registered_at_.assign(n, -1);
    for (std::uint32_t i = 0; i < n; ++i) {
      s_->ms[i]->on_registered = [this, i] {
        registered_at_[i] = now_us(s_->net);
      };
    }
    order_.resize(n);
    std::iota(order_.begin(), order_.end(), 0u);
    for (std::size_t i = n; i > 1; --i) {
      std::swap(order_[i - 1], order_[rng_.next_below(i)]);
    }
  }

  /// Fig. 4 needs nothing registered beforehand.  H.323 terminal 0 stays
  /// off: build_vgprs gives it the alias of MS #999's MSISDN (a known
  /// numbering defect), which would merge two gatekeeper entries.
  void register_all() override { gk_base_ = s_->gk->registration_count(); }

  Tally wave() override {
    ++waves_;
    const std::size_t end = std::min(order_.size(), next_ + kPerWave);
    const std::int64_t t0 = now_us(s_->net);
    {
      Scope span(log_, "power_on", static_cast<std::int64_t>(waves_));
      for (std::size_t j = next_; j < end; ++j) s_->ms[order_[j]]->power_on();
    }
    settle(s_->net, Phase::kRegister);
    Tally t;
    t.attempted = end - next_;
    for (std::size_t j = next_; j < end; ++j) {
      const std::uint32_t i = order_[j];
      if (s_->ms[i]->state() == MobileStation::State::kIdle &&
          registered_at_[i] >= 0) {
        ++t.completed;
        latency_.registration.push_back(registered_at_[i] - t0);
      }
    }
    registered_ += t.completed;
    next_ = end;
    // Fig. 4 ends with the VMSC's RAS registration of the MS's alias.
    if (s_->gk->registration_count() - gk_base_ != registered_) {
      fail("registration_storm_100k: gatekeeper holds " +
           std::to_string(s_->gk->registration_count() - gk_base_) +
           " MS aliases for " + std::to_string(registered_) +
           " registered MSs");
    }
    consume(s_->net);
    return t;
  }

  void verify_final() override {
    if (s_->vmsc->ready_count() != registered_) {
      fail("registration_storm_100k: VMSC ready count " +
           std::to_string(s_->vmsc->ready_count()) + " for " +
           std::to_string(registered_) + " registered MSs");
    }
  }

 private:
  vgprs::Rng rng_;
  std::unique_ptr<vgprs::VgprsScenario> s_;
  std::vector<std::uint32_t> order_;
  std::size_t next_ = 0;
  std::uint64_t registered_ = 0;
  std::size_t gk_base_ = 0;
  std::vector<std::int64_t> registered_at_;
};

// ---------------------------------------------------------------------------

/// Section 6: one vGPRS and one TR 23.821 network at the Fig. 2(b) size
/// (1 MS, 1 H.323 terminal each), sequential engine, recording the full
/// string trace and spans and consuming them after every wave, as
/// vgprs_report does.  An op is one call; each cycle makes one MS->terminal
/// and one terminal->MS call in each system, in a seeded order.
class Section6 final : public Workload {
 public:
  static constexpr std::uint32_t kCyclesPerWave = 16;

  explicit Section6(std::uint64_t seed) : rng_(seed) {}

  std::vector<Network*> networks() override { return {&vg_->net, &tr_->net}; }
  unsigned warmup_waves() const override { return 16; }
  unsigned census_waves() const override { return 16; }
  Recording base_recording() const override { return {true, true, true}; }

  void build() override {
    {
      Scope span(log_, "build.vgprs");
      const double t0 = wall_now();
      vgprs::VgprsParams p;
      p.seed = kNetworkSeed;
      vg_ = vgprs::build_vgprs(p);
      build_s_[0] = wall_now() - t0;
    }
    {
      Scope span(log_, "build.tr23821");
      const double t0 = wall_now();
      vgprs::TrParams p;
      p.seed = kNetworkSeed;
      tr_ = vgprs::build_tr23821(p);
      build_s_[1] = wall_now() - t0;
    }
    set_recording(base_recording());
    vg_->ms[0]->on_registered = [this] { registered_at_ = now_us(vg_->net); };
    vg_->ms[0]->on_connected = [this](CallRef) {
      ms_connected_[0] = now_us(vg_->net);
    };
    vg_->terminals[0]->on_connected = [this](CallRef) {
      term_connected_[0] = now_us(vg_->net);
    };
    tr_->ms[0]->on_connected = [this](CallRef) {
      ms_connected_[1] = now_us(tr_->net);
    };
    tr_->terminals[0]->on_connected = [this](CallRef) {
      term_connected_[1] = now_us(tr_->net);
    };
  }

  void register_all() override {
    const std::int64_t t0 = now_us(vg_->net);
    {
      Scope span(log_, "power_on");
      vg_->ms[0]->power_on();
      tr_->ms[0]->power_on();
    }
    {
      Scope span(log_, "register_endpoint");
      vg_->terminals[0]->register_endpoint();
      tr_->terminals[0]->register_endpoint();
    }
    settle(vg_->net, Phase::kRegister);
    settle(tr_->net, Phase::kRegister);
    if (vg_->ms[0]->state() != MobileStation::State::kIdle ||
        registered_at_ < 0 ||
        tr_->ms[0]->state() != TrMobileStation::State::kIdle ||
        vg_->terminals[0]->state() != H323Terminal::State::kRegistered ||
        tr_->terminals[0]->state() != H323Terminal::State::kRegistered) {
      fail("section6_report: registration incomplete");
    } else {
      latency_.registration.push_back(registered_at_ - t0);
    }
    consume(vg_->net);
    consume(tr_->net);
  }

  Tally wave() override {
    ++waves_;
    Tally t;
    for (std::uint32_t c = 0; c < kCyclesPerWave; ++c) {
      for (int sys = 0; sys < 2; ++sys) {
        const bool mo_first = rng_.next_below(2) == 0;
        t.completed += call(sys, mo_first) ? 1 : 0;
        t.completed += call(sys, !mo_first) ? 1 : 0;
        t.attempted += 2;
        if (!flows_checked_[sys] && recording_.trace) check_flows(sys);
      }
    }
    consume(vg_->net);
    consume(tr_->net);
    return t;
  }

 private:
  static bool ms_idle(const MobileStation* ms) {
    return ms->state() == MobileStation::State::kIdle;
  }
  static bool ms_idle(const TrMobileStation* ms) {
    return ms->state() == TrMobileStation::State::kIdle;
  }
  static bool ms_connected(const MobileStation* ms) {
    return ms->state() == MobileStation::State::kConnected;
  }
  static bool ms_connected(const TrMobileStation* ms) {
    return ms->state() == TrMobileStation::State::kConnected;
  }

  /// One call cycle; true when the addressed party connected and both
  /// ends are idle again after the release.
  bool call(int sys, bool mobile_originated) {
    Network& net = sys == 0 ? vg_->net : tr_->net;
    H323Terminal* term = sys == 0 ? vg_->terminals[0] : tr_->terminals[0];
    const auto op = static_cast<std::int64_t>(waves_);
    ms_connected_[sys] = -1;
    term_connected_[sys] = -1;
    const std::int64_t t0 = now_us(net);
    {
      Scope span(log_, mobile_originated ? "dial" : "place_call", op);
      if (!mobile_originated) {
        term->place_call(sys == 0 ? vg_->ms[0]->config().msisdn : tr_number_);
      } else if (sys == 0) {
        vg_->ms[0]->dial(terminal_alias_);
      } else {
        tr_->ms[0]->dial(terminal_alias_);
      }
    }
    settle(net, Phase::kCall);
    const bool ms_up =
        sys == 0 ? ms_connected(vg_->ms[0]) : ms_connected(tr_->ms[0]);
    const std::int64_t caller_at =
        mobile_originated ? ms_connected_[sys] : term_connected_[sys];
    bool ok = ms_up &&
              term->state() == H323Terminal::State::kConnected &&
              caller_at >= 0;
    if (ok) latency_.call_setup[sys].push_back(caller_at - t0);
    {
      Scope span(log_, "hangup", op);
      if (!mobile_originated) {
        term->hangup();
      } else if (sys == 0) {
        vg_->ms[0]->hangup();
      } else {
        tr_->ms[0]->hangup();
      }
    }
    settle(net, Phase::kRelease);
    const bool ms_down = sys == 0 ? ms_idle(vg_->ms[0]) : ms_idle(tr_->ms[0]);
    ok = ok && ms_down &&
         term->state() == H323Terminal::State::kRegistered;
    return ok;
  }

  /// The first cycle of each system must reproduce the paper's flows.
  void check_flows(int sys) {
    flows_checked_[sys] = true;
    const vgprs::TraceRecorder& trace = (sys == 0 ? vg_->net : tr_->net).trace();
    struct Named {
      const char* name;
      const std::vector<vgprs::FlowStep>* steps;
    };
    const std::vector<Named> flows =
        sys == 0 ? std::vector<Named>{{"fig5_origination_flow",
                                       &vgprs::fig5_origination_flow()},
                                      {"fig5_release_flow",
                                       &vgprs::fig5_release_flow()},
                                      {"fig6_termination_flow",
                                       &vgprs::fig6_termination_flow()}}
                 : std::vector<Named>{{"tr_origination_flow",
                                       &vgprs::tr_origination_flow()},
                                      {"tr_termination_flow",
                                       &vgprs::tr_termination_flow()}};
    for (const Named& f : flows) {
      std::size_t step = 0;
      if (!trace.contains_flow(*f.steps, &step)) {
        fail(std::string("section6_report: first cycle misses ") + f.name +
             " step " + std::to_string(step));
      }
    }
  }

  vgprs::Rng rng_;
  std::unique_ptr<vgprs::VgprsScenario> vg_;
  std::unique_ptr<vgprs::TrScenario> tr_;
  const Msisdn terminal_alias_ = vgprs::make_subscriber(88, 1000).msisdn;
  const Msisdn tr_number_ = vgprs::make_subscriber(88, 1).msisdn;
  std::array<std::int64_t, 2> ms_connected_{-1, -1};
  std::array<std::int64_t, 2> term_connected_{-1, -1};
  std::int64_t registered_at_ = -1;
  std::array<bool, 2> flows_checked_{};
};

}  // namespace

// ---------------------------------------------------------------------------

void Workload::set_recording(const Recording& r) {
  recording_ = r;
  for (Network* net : networks()) {
    net->trace().set_mode(r.trace ? vgprs::TraceMode::kFull
                                  : vgprs::TraceMode::kDisabled);
    net->spans().set_enabled(r.spans);
    net->set_serialize_links(r.serialize);
  }
}

void Workload::enable_shard_stats() {
  for (Network* net : networks()) net->enable_shard_stats(true);
}

Counters Workload::counters() {
  Counters c;
  for (Network* net : networks()) {
    const vgprs::NetworkStats s = net->stats();
    c.delivered += s.messages_delivered;
    c.wire_bytes += s.bytes_on_wire;
    c.timers += s.timers_fired;
    const std::vector<vgprs::ShardPerfStats> perf = net->shard_perf();
    // The windowed engine gives worker w the shards s with s % W == w.
    const std::size_t workers = std::max<std::size_t>(
        1, std::min<std::size_t>(net->workers(), perf.size()));
    c.worker_busy_ns.resize(std::max(c.worker_busy_ns.size(), workers));
    for (std::size_t i = 0; i < perf.size(); ++i) {
      const vgprs::ShardPerfStats& p = perf[i];
      c.windows += p.windows;
      c.fused += p.fused_windows;
      c.busy_ns += p.busy_ns;
      c.drain_ns += p.drain_ns;
      c.barrier_ns += p.barrier_ns;
      c.idle_ns += p.idle_ns;
      c.worker_busy_ns[i % workers] += p.busy_ns;
    }
    const auto& counters = std::as_const(*net).metrics().counters();
    if (auto it = counters.find("recovery/retransmits"); it != counters.end()) {
      c.retransmits += it->second;
    }
    if (auto it = counters.find("recovery/give_ups"); it != counters.end()) {
      c.give_ups += it->second;
    }
  }
  return c;
}

void Workload::settle(Network& net, Phase phase) {
  Scope span(log_, phase_span(phase), static_cast<std::int64_t>(waves_));
  const double t0 = wall_now();
  net.run_until_idle();
  settle_s_[static_cast<std::size_t>(phase)] += wall_now() - t0;
}

void Workload::consume(Network& net) {
  if (net.trace().enabled()) {
    net.trace().for_each(
        [this](const vgprs::TraceEntry& e) { tally(e, families_); });
    net.trace().clear();
  }
  if (net.spans().enabled()) {
    for (const vgprs::Span& s : net.spans().spans()) {
      if (!s.is_open()) ++families_.spans_closed;
    }
    net.spans().clear();
  }
}

void Workload::fail(std::string what) {
  if (error_.empty()) error_ = std::move(what);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "busy_hour_32k", "registration_storm_100k", "section6_report"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, unsigned workers) {
  if (name == "busy_hour_32k") return std::make_unique<BusyHour>(seed, workers);
  if (name == "registration_storm_100k") return std::make_unique<Storm>(seed);
  if (name == "section6_report") return std::make_unique<Section6>(seed);
  return nullptr;
}

}  // namespace perfbench
