// Fig. 9: inter-system handoff with the VMSC as anchor.  The circuit
// trunk between the VMSC and the target MSC is established by the standard
// GSM inter-system handoff procedure; the VMSC stays in the call path and
// keeps converting voice to VoIP.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "flow_assert.hpp"
#include "sim/fault.hpp"
#include "vgprs/flows.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

class HandoffTest : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override {
    HandoffParams params;
    params.target_is_vmsc = GetParam();
    s_ = build_handoff(params);
    s_->ms->power_on();
    s_->terminal->register_endpoint();
    s_->settle();
    ASSERT_EQ(s_->ms->state(), MobileStation::State::kIdle);
    // Establish a call MS -> terminal.
    s_->ms->dial(s_->terminal->state() == H323Terminal::State::kRegistered
                     ? make_subscriber(88, 1000).msisdn
                     : Msisdn{});
    s_->settle();
    ASSERT_EQ(s_->ms->state(), MobileStation::State::kConnected);
    s_->net.trace().clear();
  }

  void trigger_handoff() {
    s_->bsc1->initiate_handover(s_->ms->config().imsi, s_->ms->call_ref(),
                                CellId(202));
    s_->settle();
  }

  std::unique_ptr<HandoffScenario> s_;
};

TEST_P(HandoffTest, Fig9MessageFlow) {
  trigger_handoff();
  const char* target = GetParam() ? "VMSC-B" : "MSC-B";
  const TraceRecorder& trace = s_->net.trace();
  EXPECT_FLOW(s_->net, fig9_handoff_flow(target));
  EXPECT_EQ(trace.count(FlowStep{"BSC2", "A_Handover_Detect", target}), 1u);
  EXPECT_EQ(s_->ms->state(), MobileStation::State::kConnected);
}

TEST_P(HandoffTest, AnchorStaysInVoicePath) {
  trigger_handoff();
  s_->net.trace().clear();
  // Voice now flows MS -> BTS2 -> BSC2 -> target MSC -> E trunk -> anchor
  // VMSC -> vocoder -> GPRS tunnel -> terminal, and back.
  s_->ms->start_voice(10);
  s_->terminal->start_voice(10);
  s_->settle();
  EXPECT_EQ(s_->terminal->voice_frames_received(), 10u);
  EXPECT_EQ(s_->ms->voice_frames_received(), 10u);
  const TraceRecorder& trace = s_->net.trace();
  const char* target = GetParam() ? "VMSC-B" : "MSC-B";
  EXPECT_GE(trace.count(FlowStep{target, "E_Trunk_Voice", "VMSC"}), 10u);
  EXPECT_GE(trace.count(FlowStep{"VMSC", "E_Trunk_Voice", target}), 10u);
  // The anchor still emits the VoIP leg through the GPRS tunnel.
  EXPECT_GE(trace.count(FlowStep{"VMSC", "Gb_UnitData", "SGSN"}), 10u);
}

TEST_P(HandoffTest, CallReleaseAfterHandoff) {
  trigger_handoff();
  bool released = false;
  s_->ms->on_released = [&](CallRef) { released = true; };
  s_->ms->hangup();
  s_->settle();
  EXPECT_TRUE(released);
  EXPECT_EQ(s_->ms->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s_->terminal->state(), H323Terminal::State::kRegistered);
  // Voice PDP context torn down; signaling context remains.
  EXPECT_EQ(s_->sgsn->pdp_context_count(), 1u);
}

TEST_P(HandoffTest, VoiceLatencyIncreasesAfterHandoff) {
  // Before handoff: collect a latency baseline.
  s_->ms->start_voice(10);
  s_->settle();
  double before = s_->terminal->voice_latency().mean();
  ASSERT_GT(before, 0.0);

  trigger_handoff();
  s_->ms->start_voice(10);
  s_->settle();
  double after = s_->terminal->voice_latency().percentile(0.9);
  // The E-interface trunk adds one-way latency; the anchor path is longer.
  EXPECT_GT(after, before);
}

TEST_P(HandoffTest, UnreachableTargetGuardKeepsCallOnServingCell) {
  // The MAP_Prepare_Handover request never reaches the target MSC.  The
  // anchor's handoff guard must abandon the attempt and leave the call on
  // the serving cell; before the guard existed, the context waited for a
  // MAP_Prepare_Handover_ack forever (a vgprs_verify deadlock finding).
  const char* target = GetParam() ? "VMSC-B" : "MSC-B";
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"MAP_Prepare_Handover", "VMSC", target, 1, 100},
       FaultKind::kDrop});
  s_->net.install_faults(std::move(sched));
  trigger_handoff();
  EXPECT_GE(s_->net.faults()->faults_applied(0), 1u);
  EXPECT_GE(s_->net.metrics().counter("VMSC/handoffs_failed"), 1);
  EXPECT_EQ(s_->ms->state(), MobileStation::State::kConnected);
  // The abandoned attempt left no handoff residue: voice still flows on
  // the original cell in both directions.
  s_->net.trace().clear();
  s_->ms->start_voice(5);
  s_->terminal->start_voice(5);
  s_->settle();
  EXPECT_EQ(s_->terminal->voice_frames_received(), 5u);
  EXPECT_EQ(s_->ms->voice_frames_received(), 5u);
}

TEST_P(HandoffTest, PrepareAckAfterGuardExpiryIsIgnored) {
  // The target's MAP_Prepare_Handover_ack is held back 31 s, past the
  // anchor's 30 s handoff guard.  When it lands no handover is pending, so
  // the anchor must drop it; commanding the MS toward the cleared target
  // cell would make it fail the handover and drop the call.  The abandoned
  // attempt must not leave the target holding a channel for an MS that is
  // not coming: the anchor's abort releases the reservation.
  const char* target = GetParam() ? "VMSC-B" : "MSC-B";
  const Imsi imsi = s_->ms->config().imsi;
  MessageFault late{
      MessagePredicate{"MAP_Prepare_Handover_ack", target, "VMSC", 1, 1},
      FaultKind::kReorder};
  late.reorder_delay = SimDuration::seconds(31);
  FaultSchedule sched;
  sched.message_faults.push_back(late);
  s_->net.install_faults(std::move(sched));
  std::vector<std::string> failures;
  s_->ms->on_failure = [&](std::string why) { failures.push_back(why); };
  trigger_handoff();
  EXPECT_EQ(s_->net.faults()->faults_applied(0), 1u);
  EXPECT_EQ(s_->net.metrics().counter("VMSC/handoffs_failed"), 1);
  EXPECT_EQ(s_->net.trace().count("A_Handover_Command"), 0u);
  EXPECT_TRUE(failures.empty()) << failures.front();
  EXPECT_EQ(s_->ms->state(), MobileStation::State::kConnected);
  EXPECT_EQ(s_->bsc2->tch_in_use(), 0u);
  EXPECT_EQ(s_->msc_b->context_of(imsi), nullptr);
  s_->ms->start_voice(5);
  s_->terminal->start_voice(5);
  s_->settle();
  EXPECT_EQ(s_->terminal->voice_frames_received(), 5u);
  EXPECT_EQ(s_->ms->voice_frames_received(), 5u);
  s_->ms->hangup();
  s_->settle();
  EXPECT_EQ(s_->ms->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s_->bsc2->tch_in_use(), 0u);
  EXPECT_EQ(s_->msc_b->context_of(imsi), nullptr);
}

INSTANTIATE_TEST_SUITE_P(AnchorToGsmAndVmsc, HandoffTest,
                         ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& param) {
                           return param.param ? "TargetVmsc" : "TargetGsmMsc";
                         });

}  // namespace
}  // namespace vgprs
