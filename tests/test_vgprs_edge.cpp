// Edge cases around the vGPRS call procedures: the paper's step-2.5 ARJ
// branch, handoff preparation failure, MT delivery under the idle-PDP
// ablation, and data/voice coexistence on the shared GPRS core
// (Fig. 2(b) data path (1)(2)(3)(4) next to the voice path).
#include <gtest/gtest.h>

#include <set>

#include "gprs/data_ms.hpp"
#include "sim/fault.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

TEST(EdgeTest, ArjAtAnsweringTerminalReleasesCall) {
  // Paper step 2.5: "It is possible that an RAS Admission Reject (ARJ)
  // message is received by the terminal and the call is released."
  VgprsParams params;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  // The zone has no media bandwidth at all: the VMSC's own ARQ (step 2.3)
  // is already rejected and the MS is released before any Setup leaves.
  s->gk->set_bandwidth_limit_kbps(0);
  bool connected = false;
  bool released = false;
  s->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s->ms[0]->on_released = [&](CallRef) { released = true; };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(released);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);

  // Now grant enough bandwidth for the originating leg only (64 kbps per
  // leg): the rejection hits the *answering* terminal's ARQ — the
  // step 2.5 release branch proper.
  s->gk->set_bandwidth_limit_kbps(100);
  connected = released = false;
  s->net.trace().clear();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_FALSE(connected);
  EXPECT_TRUE(released);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->terminals[0]->state(), H323Terminal::State::kRegistered);
  // The terminal received Setup, asked for admission, got ARJ, and
  // released via Q.931 — visible in the trace as tunneled signaling.
  EXPECT_GE(s->gk->rejections(), 1u);
  EXPECT_EQ(s->sgsn->pdp_context_count(), 1u);  // no voice ctx leaked
}

TEST(EdgeTest, HandoffPreparationFailureKeepsCallOnOldCell) {
  HandoffParams params;
  auto s = build_handoff(params);
  s->ms->power_on();
  s->terminal->register_endpoint();
  s->settle();
  s->ms->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  ASSERT_EQ(s->ms->state(), MobileStation::State::kConnected);

  // Exhaust the target BSC's traffic channels so preparation fails.
  Bsc& bsc2 = *s->bsc2;
  for (int i = 0; i < 64; ++i) {
    auto req = std::make_shared<AHandoverRequest>();
    req->imsi = Imsi(999990000000000ULL + static_cast<std::uint64_t>(i), 15);
    req->call_ref = CallRef(9000u + static_cast<std::uint32_t>(i));
    req->target_cell = CellId(202);
    s->net.send(s->msc_b->id(), bsc2.id(), std::move(req));
  }
  s->settle();

  s->net.trace().clear();
  s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                             CellId(202));
  s->settle();
  // Preparation was refused; no handover command reached the MS.
  EXPECT_EQ(s->net.trace().count("Um_Handover_Command"), 0u);
  EXPECT_GE(s->net.trace().count("MAP_Prepare_Handover_ack"), 1u);
  // The call survives on the original cell; voice still flows.
  EXPECT_EQ(s->ms->state(), MobileStation::State::kConnected);
  s->ms->start_voice(5);
  s->settle();
  EXPECT_GE(s->terminal->voice_frames_received(), 5u);
}

TEST(EdgeTest, HandoffToUnknownCellIsIgnored) {
  HandoffParams params;
  auto s = build_handoff(params);
  s->ms->power_on();
  s->terminal->register_endpoint();
  s->settle();
  s->ms->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  ASSERT_EQ(s->ms->state(), MobileStation::State::kConnected);
  s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                             CellId(999));
  s->settle();
  EXPECT_EQ(s->ms->state(), MobileStation::State::kConnected);
}

TEST(EdgeTest, IdlePdpAblationBreaksTermination) {
  // Section 6: "vGPRS registration and call procedures can be easily
  // modified to deactivate the PDP contexts when the MSs are idle.
  // However, this approach may significantly increase the call setup
  // time" — and, without network-initiated activation, terminating calls
  // cannot reach the MS at all.
  VgprsParams params;
  params.deactivate_pdp_when_idle = true;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->sgsn->pdp_context_count(), 0u);  // torn down when idle

  // MO still works (the VMSC rebuilds the context first)...
  bool connected = false;
  s->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  EXPECT_TRUE(connected);
  s->ms[0]->hangup();
  s->settle();
  ASSERT_EQ(s->sgsn->pdp_context_count(), 0u);

  // ...but a terminating call cannot be delivered: the Setup datagram has
  // no routing path to the (deactivated) signaling address.
  bool mt_connected = false;
  s->ms[0]->on_connected = [&](CallRef) { mt_connected = true; };
  s->terminals[0]->place_call(s->ms[0]->config().msisdn);
  s->net.run_for(SimDuration::seconds(60));
  s->settle();
  EXPECT_FALSE(mt_connected);
}

TEST(EdgeTest, DataPathCoexistsWithVoice) {
  // Fig. 2(b): the data path (1)(2)(3)(4) and the voice path
  // (1)(2)(5)(6)(4) share the GPRS core.
  VgprsParams params;
  auto s = build_vgprs(params);
  const LatencyConfig L;

  // A plain GPRS data mobile on the packet radio path, plus an external
  // server behind the Gi interface.
  GprsDataMs::Config dc;
  dc.imsi = make_subscriber(88, 500).imsi;
  dc.sgsn_name = "SGSN";
  SubscriberProfile dprofile;
  dprofile.msisdn = make_subscriber(88, 500).msisdn;
  s->hlr->provision(dc.imsi, 1234, dprofile);
  auto& dms = s->net.add<GprsDataMs>("DATA-MS", dc);
  LinkProfile radio;
  radio.latency = L.um_packet;
  radio.jitter = L.um_packet_jitter;
  radio.label = "Um-PS";
  s->net.connect(dms, *s->sgsn, radio);
  auto& server =
      s->net.add<EchoServer>("SERVER", IpAddress(192, 168, 1, 200), "Router");
  s->net.connect(server, *s->router, L.link(L.ip, "IP"));

  // Bring up voice subscriber and data subscriber together.
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  dms.power_on();
  s->settle();
  ASSERT_EQ(dms.state(), GprsDataMs::State::kOnline);
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->sgsn->pdp_context_count(), 2u);  // voice-signaling + data

  // Voice call and data transfer run concurrently over the same core.
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  dms.start_pings(server.ip(), 30);
  s->settle();
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kConnected);
  s->ms[0]->start_voice(30);
  s->settle();

  EXPECT_EQ(dms.echoes_received(), 30u);
  EXPECT_EQ(server.requests_served(), 30u);
  EXPECT_EQ(s->terminals[0]->voice_frames_received(), 30u);
  EXPECT_GT(dms.rtt().mean(), 0.0);
  // The data RTT crosses the jittery packet radio twice.
  EXPECT_GT(dms.rtt().mean(),
            2 * L.um_packet.as_millis());
}

TEST(EdgeTest, DataMsRecoversFromPdpRejectAndNetworkDetach) {
  VgprsParams params;
  auto s = build_vgprs(params);
  const LatencyConfig L;
  GprsDataMs::Config dc;
  dc.imsi = make_subscriber(88, 501).imsi;
  dc.sgsn_name = "SGSN";
  SubscriberProfile dprofile;
  dprofile.msisdn = make_subscriber(88, 501).msisdn;
  s->hlr->provision(dc.imsi, 1234, dprofile);
  auto& dms = s->net.add<GprsDataMs>("DATA-MS", dc);
  LinkProfile radio;
  radio.latency = L.um_packet;
  radio.label = "Um-PS";
  s->net.connect(dms, *s->sgsn, radio);

  // Lose the activation accept: the MS is left waiting in kActivating
  // (it used to wedge there with no way back — power_on() refuses unless
  // detached; a vgprs_verify deadlock finding).
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"Activate_PDP_Context_Accept", "SGSN", "DATA-MS", 1,
                        1},
       FaultKind::kDrop});
  s->net.install_faults(std::move(sched));
  dms.power_on();
  s->settle();
  ASSERT_EQ(dms.state(), GprsDataMs::State::kActivating);

  // A network-side reject resolves the wedge...
  auto rej = std::make_shared<ActivatePdpContextReject>();
  rej->imsi = dc.imsi;
  rej->nsapi = Nsapi(5);
  s->net.send(s->sgsn->id(), dms.id(), std::move(rej));
  s->settle();
  EXPECT_EQ(dms.state(), GprsDataMs::State::kDetached);

  // ...and the subscriber can come back online.
  dms.power_on();
  s->settle();
  EXPECT_EQ(dms.state(), GprsDataMs::State::kOnline);

  // A network-initiated detach (e.g. SGSN restart recovery) is honoured.
  auto det = std::make_shared<GprsDetachRequest>();
  det->imsi = dc.imsi;
  s->net.send(s->sgsn->id(), dms.id(), std::move(det));
  s->settle();
  EXPECT_EQ(dms.state(), GprsDataMs::State::kDetached);
}

TEST(EdgeTest, VoiceQosClassesDifferPerContext) {
  VgprsParams params;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  const auto* sig = s->sgsn->context(s->ms[0]->config().imsi, Nsapi(5));
  const auto* voice = s->sgsn->context(s->ms[0]->config().imsi, Nsapi(6));
  ASSERT_NE(sig, nullptr);
  ASSERT_NE(voice, nullptr);
  EXPECT_EQ(sig->qos.traffic_class, QosClass::kBackground);
  EXPECT_EQ(voice->qos.traffic_class, QosClass::kConversational);
  EXPECT_LT(voice->qos.priority, sig->qos.priority);  // 1 = highest
}

// Terminal addresses count up from 192.168.1.10 and carry into the third
// octet, so terminal #248 does not take over the gatekeeper's 192.168.1.1.
TEST(EdgeTest, TerminalAddressesCarryIntoHigherOctets) {
  VgprsParams params;
  params.num_terminals = 248;
  auto s = build_vgprs(params);
  EXPECT_EQ(s->terminals.front()->ip(), IpAddress(192, 168, 1, 10));
  EXPECT_EQ(s->terminals.back()->ip(), IpAddress(192, 168, 2, 1));
  EXPECT_EQ(s->net.ip_owner(IpAddress(192, 168, 1, 1)), s->gk->id());
}

// MSs are subscribers 1..num_ms and terminal aliases start at 1000: at
// 1,000 MSs the alias block must move past the last MS, or terminal 0 and
// MS #1000 share a number and the gatekeeper keeps one entry for both.
TEST(EdgeTest, TerminalAliasesSkipPastTheMsNumbers) {
  VgprsParams params;
  params.num_ms = 1000;
  auto s = build_vgprs(params);
  std::set<std::uint64_t> numbers;
  for (const auto* ms : s->ms) numbers.insert(ms->config().msisdn.value());
  numbers.insert(s->terminals[0]->config().alias.value());
  EXPECT_EQ(numbers.size(), 1001u);

  MobileStation& last = *s->ms.back();
  bool connected = false;
  last.on_connected = [&](CallRef) { connected = true; };
  last.power_on();
  s->settle();
  s->terminals[0]->register_endpoint();
  s->settle();
  s->terminals[0]->place_call(last.config().msisdn);
  s->settle();
  EXPECT_TRUE(connected);
  EXPECT_EQ(last.state(), MobileStation::State::kConnected);
  EXPECT_EQ(s->terminals[0]->state(), H323Terminal::State::kConnected);
}

}  // namespace
}  // namespace vgprs
