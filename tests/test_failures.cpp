// Failure injection: FaultInjector-driven link windows, node outages and
// message faults with guard-timer / retransmission recovery, radio channel
// congestion, admission rejection mid-call, and procedure abort paths.
#include <gtest/gtest.h>

#include "flow_assert.hpp"
#include "sim/fault.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

constexpr SimTime at_seconds(std::int64_t s) {
  return SimTime::from_micros(s * 1'000'000);
}

TEST(FailureTest, RegistrationGuardFiresWhenAirInterfaceDead) {
  VgprsParams params;
  auto s = build_vgprs(params);
  // Kill the air interface for the whole run via a fault-schedule window.
  FaultSchedule sched;
  sched.link_windows.push_back(
      {"MS1", "BTS", SimTime::from_micros(0), at_seconds(3600)});
  s->net.install_faults(std::move(sched));
  std::string failure;
  s->ms[0]->on_failure = [&](std::string r) { failure = std::move(r); };
  s->ms[0]->power_on();
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kDetached);
  EXPECT_NE(failure.find("guard timeout"), std::string::npos);
  EXPECT_GE(s->net.faults()->counters().link_drops, 1u);
}

TEST(FailureTest, CallGuardRecoversFromLostSetup) {
  VgprsParams params;
  auto s = build_vgprs(params);
  // The air interface dies one minute in — after registration, before the
  // dial below.
  FaultSchedule sched;
  sched.link_windows.push_back({"MS1", "BTS", at_seconds(60),
                                at_seconds(3600)});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->net.run_until(at_seconds(60));
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  std::string failure;
  s->ms[0]->on_failure = [&](std::string r) { failure = std::move(r); };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_FALSE(failure.empty());
}

TEST(FailureTest, VlrCrashMidRegistrationRecoversViaRetransmit) {
  // The VLR crashes 100 ms into the registration and restarts two seconds
  // later.  The VMSC's MAP retransmission re-drives the auth exchange
  // against the restarted (empty) VLR, which re-fetches vectors from the
  // HLR — registration completes without manual intervention.
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  FaultSchedule sched;
  sched.node_outages.push_back(
      {"VLR", SimTime::from_micros(100'000), at_seconds(2)});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->net.faults()->counters().crashes, 1u);
  EXPECT_EQ(s->net.faults()->counters().restarts, 1u);
  EXPECT_GE(s->net.metrics().counter("recovery/retransmits"), 1);
  EXPECT_GE(s->net.spans().count(SpanKind::kRegistration, SpanOutcome::kOk),
            1u);
  EXPECT_EQ(s->net.spans().open_count(), 0u);
}

TEST(FailureTest, VmscRestartMidCallForcesReregistration) {
  // The VMSC crashes 50 ms after the subscriber dials (mid-2.x) and
  // restarts with empty volatile state.  The MS's retried service request
  // is rejected with cause 4 ("IMSI unknown in VLR"-style), which makes it
  // drop its TMSI and re-run location update; a subsequent call succeeds.
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  FaultSchedule sched;
  sched.node_outages.push_back(
      {"VMSC", at_seconds(30) + SimDuration::millis(50), at_seconds(32)});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->net.run_until(at_seconds(30));
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);

  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_EQ(s->net.faults()->counters().crashes, 1u);
  EXPECT_EQ(s->net.faults()->counters().restarts, 1u);
  EXPECT_GE(s->net.metrics().counter("recovery/reregistrations"), 1);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->net.spans().open_count(), 0u);
  // The re-registration restored full service: the next call connects.
  bool connected = false;
  s->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_TRUE(connected);
  s->ms[0]->hangup();
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
}

TEST(FailureTest, GuardArmedBeforeVmscRestartIgnoresLaterContext) {
  // The VMSC arms the origination's 45 s procedure guard at ~30.1 s, then
  // crashes and comes back empty.  The MS re-registers under the same
  // IMSI, and at 50 s a terminal call stalls in paging (the air interface
  // is dead).  When the old guard fires at ~75 s the new context is mid
  // procedure, but it does not hold that guard's id, so nothing aborts.
  VgprsParams params;
  auto s = build_vgprs(params);
  FaultSchedule sched;
  sched.node_outages.push_back(
      {"VMSC", at_seconds(30) + SimDuration::millis(150), at_seconds(32)});
  sched.link_windows.push_back(
      {"MS1", "BTS", at_seconds(50), at_seconds(3600)});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->net.run_until(at_seconds(30));
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);

  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->net.run_until(at_seconds(50));
  ASSERT_GE(s->net.metrics().counter("recovery/reregistrations"), 1);
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  s->terminals[0]->place_call(s->ms[0]->config().msisdn);
  s->net.run_until(at_seconds(79));
  EXPECT_EQ(s->net.metrics().counter("VMSC/procedures_aborted"), 0);
}

TEST(FailureTest, DuplicateSetupIsIdempotent) {
  // The first A_Setup of the origination is duplicated in flight: the VMSC
  // must absorb the copy — one call, one admission, one charging record.
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"A_Setup", "BSC", "VMSC", 1, 1},
       FaultKind::kDuplicate});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  bool connected = false;
  s->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_TRUE(connected);
  EXPECT_EQ(s->net.faults()->faults_applied(0), 1u);
  // Both copies were delivered, but only one Call Proceeding came back.
  EXPECT_EQ(s->net.trace().count(FlowStep{"BSC", "A_Setup", "VMSC"}), 2u);
  EXPECT_EQ(s->net.trace().count(FlowStep{"VMSC", "A_Call_Proceeding", "BSC"}),
            1u);
  EXPECT_FLOW(s->net, (std::vector<FlowStep>{{"BSC", "A_Setup", "VMSC"},
                                             {"BSC", "A_Setup", "VMSC"},
                                             {"VMSC", "A_Call_Proceeding",
                                              "BSC"},
                                             {"VMSC", "A_Connect", "BSC"}}));
  s->ms[0]->hangup();
  s->settle();
  EXPECT_EQ(s->net.spans().count(SpanKind::kOrigination, SpanOutcome::kOk),
            1u);
  EXPECT_EQ(s->gk->open_calls(), 0u);
  EXPECT_EQ(s->gk->call_records().size(), 1u);
  EXPECT_EQ(s->net.spans().open_count(), 0u);
}

TEST(FailureTest, ReorderedReleaseStillTearsDownCleanly) {
  // The A_Disconnect that starts the clearing sequence is held back 300 ms
  // so later traffic overtakes it; teardown must still complete with no
  // leaked channels, calls, or spans.
  VgprsParams params;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"A_Disconnect", "BSC", "VMSC", 1, 1},
       FaultKind::kReorder, SimDuration::millis(300)});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  bool connected = false;
  s->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  ASSERT_TRUE(connected);
  s->ms[0]->hangup();
  s->settle();
  EXPECT_EQ(s->net.faults()->faults_applied(0), 1u);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->bsc->tch_in_use(), 0u);
  EXPECT_EQ(s->gk->open_calls(), 0u);
  EXPECT_GE(s->net.spans().count(SpanKind::kRelease, SpanOutcome::kOk), 1u);
  EXPECT_EQ(s->net.spans().open_count(), 0u);
}

TEST(FailureTest, SdcchCongestionDropsExcessRegistrations) {
  // More simultaneous originations than SDCCH channels: the surplus must
  // fail cleanly, not wedge the BSC.
  VgprsParams params;
  params.num_ms = 6;
  auto s = build_vgprs(params);
  for (auto* ms : s->ms) ms->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();

  // Shrink the pool by replacing the BSC config: instead, occupy channels
  // by dialling from all MSs at once against a 64-channel pool — verify
  // bounded usage rather than exhaustion here.
  int connected = 0;
  int failed = 0;
  for (auto* ms : s->ms) {
    ms->on_connected = [&](CallRef) { ++connected; };
    ms->on_failure = [&](std::string) { ++failed; };
    ms->dial(make_subscriber(88, 1000).msisdn);
  }
  s->settle();
  // Exactly one reaches the single terminal; the rest get busy-released,
  // but nothing deadlocks and every MS ends in a stable state.
  EXPECT_EQ(connected, 1);
  for (auto* ms : s->ms) {
    EXPECT_TRUE(ms->state() == MobileStation::State::kIdle ||
                ms->state() == MobileStation::State::kConnected)
        << to_string(ms->state());
  }
}

TEST(FailureTest, TinyChannelPoolRejectsParallelCalls) {
  register_all_messages();
  VgprsParams params;
  params.num_ms = 4;
  auto s = build_vgprs(params);
  // Rebuild-with-smaller-pool is heavyweight; instead verify the BSC's
  // congestion guard directly: its pool is per-config, so drive a scenario
  // where the SDCCH pool is 1 by constructing a dedicated network.
  Network net(17);
  auto& hlr = net.add<Hlr>("HLR");
  auto& vlr = net.add<Vlr>("VLR", Vlr::Config{"HLR", 88, 8'899'000});
  auto& bsc = net.add<Bsc>("BSC", Bsc::Config{"MSC", 1, 1});
  auto& bts = net.add<Bts>("BTS", CellId(1), LocationAreaId(1), "BSC");
  GsmMsc::MscConfig mc;
  mc.base = MscBase::Config{"VLR", false, false, false};
  mc.pstn_name = "PSTN";
  mc.hlr_name = "HLR";
  auto& msc = net.add<GsmMsc>("MSC", mc);
  auto& pstn = net.add<PstnSwitch>("PSTN");
  bsc.adopt_bts(bts);
  net.connect(bts, bsc, LinkProfile{});
  net.connect(bsc, msc, LinkProfile{});
  net.connect(msc, vlr, LinkProfile{});
  net.connect(vlr, hlr, LinkProfile{});
  net.connect(msc, pstn, LinkProfile{});
  PstnPhone::Config pc;
  pc.number = Msisdn(88210000001ULL, 11);
  pc.switch_name = "PSTN";
  auto& phone = net.add<PstnPhone>("PHONE", pc);
  net.connect(phone, pstn, LinkProfile{});
  pstn.attach_subscriber(pc.number, "PHONE");

  std::vector<MobileStation*> mss;
  for (int i = 0; i < 2; ++i) {
    SubscriberIdentity id = make_subscriber(88, i + 1);
    SubscriberProfile profile;
    profile.msisdn = id.msisdn;
    hlr.provision(id.imsi, id.ki, profile);
    MobileStation::Config cfg;
    cfg.imsi = id.imsi;
    cfg.msisdn = id.msisdn;
    cfg.ki = id.ki;
    cfg.bts_name = "BTS";
    cfg.retry_interval = SimDuration::seconds(2);
    cfg.max_retries = 1;
    auto& ms = net.add<MobileStation>("MS" + std::to_string(i), cfg);
    net.connect(ms, bts, LinkProfile{});
    mss.push_back(&ms);
  }
  mss[0]->power_on();
  net.run_until_idle();
  mss[1]->power_on();
  net.run_until_idle();
  ASSERT_EQ(mss[0]->state(), MobileStation::State::kIdle);
  ASSERT_EQ(mss[1]->state(), MobileStation::State::kIdle);

  // Both dial simultaneously; 1 SDCCH -> exactly one proceeds.
  int connected = 0;
  int failures = 0;
  for (auto* ms : mss) {
    ms->on_connected = [&](CallRef) { ++connected; };
    ms->on_failure = [&](std::string) { ++failures; };
    ms->dial(pc.number);
  }
  net.run_until_idle();
  EXPECT_EQ(connected, 1);
  EXPECT_EQ(failures, 1);  // the loser's guard timer fired
}

TEST(FailureTest, LossyCoreSurvivesWithRetries) {
  // 2% loss on the Um link: most registrations still succeed across many
  // subscribers because procedures are independent; the ones that lose a
  // message fail cleanly via guards.
  VgprsParams params;
  params.num_ms = 20;
  auto s = build_vgprs(params);
  LinkProfile lossy;
  lossy.latency = SimDuration::millis(15);
  lossy.loss_probability = 0.02;
  lossy.label = "Um";
  for (auto* ms : s->ms) {
    s->net.set_link_profile(ms->id(), s->bts->id(), lossy);
  }
  int ok = 0;
  int failed = 0;
  for (auto* ms : s->ms) {
    ms->on_registered = [&] { ++ok; };
    ms->on_failure = [&](std::string) { ++failed; };
    ms->power_on();
  }
  s->settle();
  EXPECT_EQ(ok + failed, 20);
  EXPECT_GE(ok, 10);  // ~13 messages on Um per registration, p(all ok) ~ .77
  for (auto* ms : s->ms) {
    EXPECT_TRUE(ms->state() == MobileStation::State::kIdle ||
                ms->state() == MobileStation::State::kDetached);
  }
}

TEST(FailureTest, VmscAttachGiveUpResetsGprsPhase) {
  // The SGSN's attach accepts never arrive: the VMSC's retransmission
  // exhausts, the registration is rejected, and the per-MS GPRS phase
  // machine returns to rest instead of wedging in kAttaching (a
  // vgprs_verify deadlock finding).
  VgprsParams params;
  auto s = build_vgprs(params);
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"GPRS_Attach_Accept", "SGSN", "VMSC", 1, 100},
       FaultKind::kDrop});
  s->net.install_faults(std::move(sched));
  std::string failure;
  s->ms[0]->on_failure = [&](std::string r) { failure = std::move(r); };
  s->ms[0]->power_on();
  s->settle();
  EXPECT_FALSE(failure.empty());
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kDetached);
  const auto* vs = s->vmsc->vgprs_state(s->ms[0]->config().imsi);
  if (vs != nullptr) {
    EXPECT_EQ(vs->phase, Vmsc::VgprsState::Phase::kNone);
  }
}

TEST(FailureTest, VmscPdpGiveUpResetsGprsPhase) {
  // Same shape one step later: the signaling-context activation accept is
  // lost for good, and the give-up must reset kActivatingSignaling.
  VgprsParams params;
  auto s = build_vgprs(params);
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"Activate_PDP_Context_Accept", "SGSN", "VMSC", 1, 100},
       FaultKind::kDrop});
  s->net.install_faults(std::move(sched));
  std::string failure;
  s->ms[0]->on_failure = [&](std::string r) { failure = std::move(r); };
  s->ms[0]->power_on();
  s->settle();
  EXPECT_FALSE(failure.empty());
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kDetached);
  const auto* vs = s->vmsc->vgprs_state(s->ms[0]->config().imsi);
  if (vs != nullptr) {
    EXPECT_EQ(vs->phase, Vmsc::VgprsState::Phase::kNone);
  }
}

TEST(FailureTest, LateAttachRejectTearsDownEndpointState) {
  // An attach reject landing after the endpoint reached kReady (e.g. an
  // SGSN revoking the subscription) tears down the whole per-MS GPRS
  // state — the vmsc-endpoint FSM rows added for the vgprs_verify
  // unhandled-pair findings.
  VgprsParams params;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  const auto* vs = s->vmsc->vgprs_state(s->ms[0]->config().imsi);
  ASSERT_NE(vs, nullptr);
  ASSERT_EQ(vs->phase, Vmsc::VgprsState::Phase::kReady);
  auto rej = std::make_shared<GprsAttachReject>();
  rej->imsi = s->ms[0]->config().imsi;
  s->net.send(s->sgsn->id(), s->vmsc->id(), std::move(rej));
  s->settle();
  vs = s->vmsc->vgprs_state(s->ms[0]->config().imsi);
  EXPECT_TRUE(vs == nullptr || vs->phase == Vmsc::VgprsState::Phase::kNone);
}

TEST(FailureTest, VmscRejectsCallFromUnregisteredMs) {
  VgprsParams params;
  auto s = build_vgprs(params);
  std::string failure;
  s->ms[0]->on_failure = [&](std::string r) { failure = std::move(r); };
  // Dial without registering: MS guards against it locally.
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_FALSE(failure.empty());
}

}  // namespace
}  // namespace vgprs
