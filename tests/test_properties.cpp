// Property-based suites: latency-grid sweeps (registration and calls
// succeed under any sane budget), monotonicity of setup delay, determinism,
// and resource-conservation invariants under randomized call patterns.
//
// The chaos seed batteries run through ParallelSweep — one private seeded
// Network per cell, all cores busy.  Invariant violations are collected as
// strings inside the workers (gtest assertions are not thread-safe) and
// asserted on the main thread.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <tuple>

#include "common/rng.hpp"
#include "sim/fault.hpp"
#include "sim/sweep.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

// --- latency grid -----------------------------------------------------------

using GridParam = std::tuple<int, int, int>;  // um, ss7 (d), core hop (ms)

class LatencyGrid : public ::testing::TestWithParam<GridParam> {};

TEST_P(LatencyGrid, RegistrationAndCallSucceed) {
  auto [um, ss7, core] = GetParam();
  VgprsParams params;
  params.latency.um = SimDuration::millis(um);
  params.latency.d = SimDuration::millis(ss7);
  params.latency.gb = SimDuration::millis(core);
  params.latency.gn = SimDuration::millis(core);
  params.latency.gi = SimDuration::millis(core);
  params.latency.ip = SimDuration::millis(core);
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle)
      << "um=" << um << " ss7=" << ss7 << " core=" << core;

  bool connected = false;
  s->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_TRUE(connected);
  s->ms[0]->hangup();
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->sgsn->pdp_context_count(), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    Budgets, LatencyGrid,
    ::testing::Combine(::testing::Values(1, 15, 80),
                       ::testing::Values(1, 8, 60),
                       ::testing::Values(1, 3, 20)),
    [](const ::testing::TestParamInfo<GridParam>& param) {
      return "um" + std::to_string(std::get<0>(param.param)) + "_ss7" +
             std::to_string(std::get<1>(param.param)) + "_core" +
             std::to_string(std::get<2>(param.param));
    });

// --- monotonicity -------------------------------------------------------------

TEST(PropertyTest, SetupDelayMonotoneInAirLatency) {
  double prev = -1;
  for (int um : {2, 5, 10, 20, 40, 80}) {
    VgprsParams params;
    params.latency.um = SimDuration::millis(um);
    auto s = build_vgprs(params);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    SimTime dialed = s->net.now();
    double ringback = -1;
    s->ms[0]->on_ringback = [&](CallRef) {
      ringback = (s->net.now() - dialed).as_millis();
    };
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    ASSERT_GT(ringback, prev) << "um=" << um;
    prev = ringback;
  }
}

// --- determinism ----------------------------------------------------------------

TEST(PropertyTest, IdenticalSeedsProduceIdenticalTraces) {
  auto run = [](std::uint64_t seed) {
    VgprsParams params;
    params.seed = seed;
    params.num_ms = 3;
    auto s = build_vgprs(params);
    for (auto* ms : s->ms) ms->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    return s->net.trace().to_string(100000);
  };
  EXPECT_EQ(run(7), run(7));
}

// --- randomized call patterns + conservation invariants ----------------------------

/// Runs one chaos cell on a private seeded Network and reports every
/// violated invariant as a string (empty == all invariants hold): no leaked
/// radio channels, no leaked PDP contexts beyond the per-subscriber
/// signaling context, no open charging records, every endpoint back in a
/// stable state, voice-context bookkeeping balanced.
std::vector<std::string> chaos_cell(std::uint64_t seed) {
  std::vector<std::string> bad;
  auto check = [&](bool ok, const std::string& what) {
    if (!ok) bad.push_back(what);
  };

  VgprsParams params;
  params.num_ms = 6;
  params.num_terminals = 3;
  params.seed = seed;
  auto s = build_vgprs(params);
  for (auto* ms : s->ms) ms->power_on();
  for (auto* t : s->terminals) t->register_endpoint();
  s->settle();

  Rng rng(seed * 7919 + 13);
  // 200 random operations: dial / hangup / answer-side hangup / short or
  // zero settle slices (so operations overlap procedures in flight).
  for (int op = 0; op < 200; ++op) {
    std::uint64_t kind = rng.next_below(4);
    auto* ms = s->ms[rng.next_below(s->ms.size())];
    switch (kind) {
      case 0:
        if (ms->state() == MobileStation::State::kIdle) {
          bool to_terminal = rng.bernoulli(0.7);
          if (to_terminal) {
            ms->dial(make_subscriber(
                88, 1000 + static_cast<std::uint32_t>(
                               rng.next_below(s->terminals.size())))
                         .msisdn);
          } else {
            auto* other = s->ms[rng.next_below(s->ms.size())];
            if (other != ms) ms->dial(other->config().msisdn);
          }
        }
        break;
      case 1:
        ms->hangup();
        break;
      case 2:
        s->terminals[rng.next_below(s->terminals.size())]->hangup();
        break;
      case 3:
        break;  // just advance time
    }
    s->net.run_for(SimDuration::millis(rng.next_below(400)));
  }
  // Quiesce: hang everything up and drain.
  for (int round = 0; round < 4; ++round) {
    for (auto* ms : s->ms) ms->hangup();
    for (auto* t : s->terminals) t->hangup();
    s->settle();
  }

  check(s->bsc->tch_in_use() == 0, "leaked TCHs");
  check(s->bsc->sdcch_in_use() == 0, "leaked SDCCHs");
  check(s->sgsn->pdp_context_count() == s->ms.size(),
        "SGSN PDP context count != num MS");
  check(s->ggsn->pdp_context_count() == s->ms.size(),
        "GGSN PDP context count != num MS");
  check(s->gk->open_calls() == 0, "gatekeeper has open calls");
  for (auto* ms : s->ms) {
    check(ms->state() == MobileStation::State::kIdle,
          ms->name() + " stuck in " + to_string(ms->state()));
  }
  for (auto* t : s->terminals) {
    check(t->state() == H323Terminal::State::kRegistered,
          t->name() + " not registered");
  }
  // Voice-context bookkeeping balances: every voice activation has a
  // matching deactivation once quiescent.
  std::size_t act = 0;
  std::size_t deact = 0;
  s->net.trace().for_each([&](const TraceEntry& e) {
    if (e.message == "Activate_PDP_Context_Accept" &&
        e.summary().find("NSAPI:6") != std::string::npos) {
      ++act;
    }
    if (e.message == "Deactivate_PDP_Context_Request" &&
        e.summary().find("NSAPI:6") != std::string::npos) {
      ++deact;
    }
  });
  check(act == deact, "voice PDP contexts leaked");
  // Charging records are well-formed.
  for (const auto& rec : s->gk->call_records()) {
    check(!rec.open, "open charging record");
    check(rec.disengaged.count_micros() >= rec.admitted.count_micros(),
          "charging record ends before it starts");
  }
  return bad;
}

TEST(RandomPattern, ResourcesConservedAfterChaosSweep) {
  register_all_messages();
  const std::vector<std::uint64_t> seeds{1, 2, 3, 5, 8, 13, 21, 42};
  ParallelSweep pool;
  auto results = pool.map<std::vector<std::string>>(
      seeds.size(), [&](std::size_t i) { return chaos_cell(seeds[i]); });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (const auto& violation : results[i]) {
      ADD_FAILURE() << "seed " << seeds[i] << ": " << violation;
    }
  }
}

// --- lossy-link chaos: nothing wedges, resources still conserved ----------------

std::vector<std::string> lossy_cell(std::uint64_t seed) {
  std::vector<std::string> bad;
  VgprsParams params;
  params.num_ms = 4;
  params.seed = seed;
  auto s = build_vgprs(params);
  // 5% loss on every air link.
  for (auto* ms : s->ms) {
    LinkProfile lossy;
    lossy.latency = SimDuration::millis(15);
    lossy.loss_probability = 0.05;
    s->net.set_link_profile(ms->id(), s->bts->id(), lossy);
  }
  for (auto* ms : s->ms) ms->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();

  Rng rng(seed);
  for (int op = 0; op < 60; ++op) {
    auto* ms = s->ms[rng.next_below(s->ms.size())];
    if (ms->state() == MobileStation::State::kIdle &&
        rng.bernoulli(0.7)) {
      ms->dial(make_subscriber(88, 1000).msisdn);
    } else {
      ms->hangup();
    }
    s->net.run_for(SimDuration::seconds(rng.next_below(20)));
  }
  for (int round = 0; round < 4; ++round) {
    for (auto* ms : s->ms) ms->hangup();
    s->terminals[0]->hangup();
    // Guards are up to 30 s; give them room.
    s->net.run_for(SimDuration::seconds(40));
    s->settle();
  }

  // With loss, procedures may fail — but nothing may wedge or leak.
  for (auto* ms : s->ms) {
    if (ms->state() != MobileStation::State::kIdle &&
        ms->state() != MobileStation::State::kDetached) {
      bad.push_back(ms->name() + " stuck in " + to_string(ms->state()));
    }
  }
  if (s->terminals[0]->state() != H323Terminal::State::kRegistered) {
    bad.push_back("terminal not registered after quiesce");
  }
  return bad;
}

TEST(LossyPattern, GuardsRecoverEverythingSweep) {
  register_all_messages();
  const std::vector<std::uint64_t> seeds{11, 22, 33, 44};
  ParallelSweep pool;
  auto results = pool.map<std::vector<std::string>>(
      seeds.size(), [&](std::size_t i) { return lossy_cell(seeds[i]); });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (const auto& violation : results[i]) {
      ADD_FAILURE() << "seed " << seeds[i] << ": " << violation;
    }
  }
}

// --- single-fault chaos: every procedure completes or closes cleanly -----------

/// Builds one seed-derived single-fault schedule: the seed picks the fault
/// family, the target (link / node / message kind), and the time it lands.
FaultSchedule single_fault_schedule(Rng& rng) {
  const auto at = [](std::int64_t us) { return SimTime::from_micros(us); };
  // Faults land inside the active phase of the drive pattern below
  // (registration from 0, call from 30 s).
  const std::int64_t t0 =
      static_cast<std::int64_t>(rng.next_below(2) == 0
                                    ? rng.next_below(3'000'000)
                                    : 30'000'000 + rng.next_below(2'000'000));
  FaultSchedule sched;
  switch (rng.next_below(6)) {
    case 0: {  // link window
      static const char* kLinks[][2] = {{"MS1", "BTS"},   {"BTS", "BSC"},
                                        {"BSC", "VMSC"},  {"VMSC", "VLR"},
                                        {"VMSC", "SGSN"}, {"SGSN", "GGSN"}};
      const auto& link = kLinks[rng.next_below(6)];
      sched.link_windows.push_back(
          {link[0], link[1], at(t0),
           at(t0 + 200'000 + static_cast<std::int64_t>(
                                 rng.next_below(3'000'000)))});
      break;
    }
    case 1: {  // node outage
      static const char* kNodes[] = {"VLR", "VMSC", "SGSN", "GGSN", "GK"};
      sched.node_outages.push_back(
          {kNodes[rng.next_below(5)], at(t0),
           at(t0 + 500'000 + static_cast<std::int64_t>(
                                 rng.next_below(2'000'000)))});
      break;
    }
    case 2: {  // latency spike
      sched.latency_spikes.push_back(
          {"BSC", "VMSC", at(t0), at(t0 + 5'000'000),
           SimDuration::millis(50 + rng.next_below(400))});
      break;
    }
    default: {  // message fault
      static const char* kMessages[] = {
          "Um_Location_Update_Request", "A_CM_Service_Request",
          "A_Setup",                    "MAP_Send_Auth_Info",
          "MAP_Update_Location_Area",   "GPRS_Attach_Request",
          "Activate_PDP_Context_Request",
          "GTP_Create_PDP_Context_Request",
          "IP_Datagram",                "A_Disconnect"};
      MessageFault fault;
      fault.match.message = kMessages[rng.next_below(10)];
      fault.match.nth = 1 + static_cast<std::uint32_t>(rng.next_below(3));
      static const FaultKind kKinds[] = {FaultKind::kDrop,
                                         FaultKind::kDuplicate,
                                         FaultKind::kReorder,
                                         FaultKind::kCorrupt};
      fault.kind = kKinds[rng.next_below(4)];
      sched.message_faults.push_back(fault);
      break;
    }
  }
  return sched;
}

/// One chaos cell: registration + call + release under a single injected
/// fault.  Invariant: at drain, every span is closed (ok / timeout /
/// rejected — never leaked open) and every endpoint FSM is in a stable
/// state.
std::vector<std::string> single_fault_cell(std::uint64_t seed,
                                           std::string* dump = nullptr) {
  std::vector<std::string> bad;
  Rng rng(seed * 2654435761u + 1);
  VgprsParams params;
  params.seed = seed;
  params.num_ms = 2;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  s->net.install_faults(single_fault_schedule(rng));

  for (auto* ms : s->ms) ms->power_on();
  s->terminals[0]->register_endpoint();
  s->net.run_until(SimTime::from_micros(30'000'000));
  if (s->ms[0]->state() == MobileStation::State::kIdle) {
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  }
  s->settle();
  s->ms[0]->hangup();
  s->settle();
  // A mid-call fault can orphan the terminal's leg (e.g. its Connect was
  // lost in an outage and the restarted core has no call to clear): hang
  // up the H.323 side too, as the other chaos cells do.
  s->terminals[0]->hangup();
  s->settle();
  // Drain any straggling give-up / guard timers.
  s->settle();

  if (s->net.spans().open_count() != 0) {
    bad.push_back("open spans at drain: " + s->net.spans().open_to_string());
  }
  for (auto* ms : s->ms) {
    if (ms->state() != MobileStation::State::kIdle &&
        ms->state() != MobileStation::State::kDetached) {
      bad.push_back(ms->name() + " stuck in " + to_string(ms->state()));
    }
  }
  if (s->terminals[0]->state() != H323Terminal::State::kRegistered &&
      s->terminals[0]->state() != H323Terminal::State::kIdle) {
    bad.push_back("terminal stuck in state " +
                  std::to_string(static_cast<int>(s->terminals[0]->state())));
  }
  if (dump != nullptr) *dump = s->net.trace().to_string(1000000);
  return bad;
}

// Re-runs one cell with its seed taken from VGPRS_CHAOS_SEED — forensics
// helper for sweep failures (run with --gtest_also_run_disabled_tests).
TEST(SingleFaultChaos, DISABLED_DebugSingleSeed) {
  register_all_messages();
  const char* env = std::getenv("VGPRS_CHAOS_SEED");
  const std::uint64_t seed = env != nullptr ? std::strtoull(env, nullptr, 10)
                                            : 1;
  std::string dump;
  auto violations = single_fault_cell(seed, &dump);
  if (!violations.empty()) std::fputs(dump.c_str(), stderr);
  for (const auto& violation : violations) {
    ADD_FAILURE() << "seed " << seed << ": " << violation;
  }
}

TEST(SingleFaultChaos, EveryProcedureCompletesOrClosesSweep) {
  register_all_messages();
  // >= 64 seeds, each deriving its own single-fault schedule; ParallelSweep
  // runs one private Network per cell.
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 1; i <= 72; ++i) seeds.push_back(i);
  ParallelSweep pool;
  auto results = pool.map<std::vector<std::string>>(
      seeds.size(), [&](std::size_t i) { return single_fault_cell(seeds[i]); });
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    for (const auto& violation : results[i]) {
      ADD_FAILURE() << "seed " << seeds[i] << ": " << violation;
    }
  }
}

}  // namespace
}  // namespace vgprs
