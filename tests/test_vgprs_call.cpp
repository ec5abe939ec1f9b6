// Figs. 5 and 6: MS call origination + call release, and MS call
// termination, against an H.323 terminal in the external VoIP network.
#include <gtest/gtest.h>

#include "flow_assert.hpp"
#include "vgprs/flows.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

class CallTest : public ::testing::Test {
 protected:
  void SetUp() override {
    VgprsParams params;
    scenario_ = build_vgprs(params);
    ms_ = scenario_->ms[0];
    term_ = scenario_->terminals[0];
    ms_->power_on();
    term_->register_endpoint();
    scenario_->settle();
    ASSERT_EQ(ms_->state(), MobileStation::State::kIdle);
    ASSERT_EQ(term_->state(), H323Terminal::State::kRegistered);
    scenario_->net.trace().clear();  // isolate the call flow
  }

  std::unique_ptr<VgprsScenario> scenario_;
  MobileStation* ms_ = nullptr;
  H323Terminal* term_ = nullptr;
};

TEST_F(CallTest, Fig5OriginationFlow) {
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(term_->state() == H323Terminal::State::kRegistered
                ? Msisdn(make_subscriber(88, 1000).msisdn)
                : Msisdn{});
  scenario_->settle();
  ASSERT_TRUE(connected);
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);
  ASSERT_EQ(term_->state(), H323Terminal::State::kConnected);

  const TraceRecorder& trace = scenario_->net.trace();
  EXPECT_EQ(trace.count(FlowStep{"BTS", "Um_Connect", "MS1"}), 1u);
  EXPECT_FLOW(scenario_->net, fig5_origination_flow());

  // The terminal performed its own admission (step 2.5).
  EXPECT_GE(scenario_->gk->admissions(), 2u);
  // Two PDP contexts now exist for the MS: signaling + voice.
  EXPECT_EQ(scenario_->sgsn->pdp_context_count(), 2u);
  const auto* voice_ctx =
      scenario_->sgsn->context(ms_->config().imsi, Nsapi(6));
  ASSERT_NE(voice_ctx, nullptr);
  EXPECT_EQ(voice_ctx->qos.traffic_class, QosClass::kConversational);
}

TEST_F(CallTest, Fig5ReleaseFlow) {
  ms_->dial(make_subscriber(88, 1000).msisdn);
  scenario_->settle();
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);
  scenario_->net.trace().clear();

  bool released_ms = false;
  bool released_term = false;
  ms_->on_released = [&](CallRef) { released_ms = true; };
  term_->on_released = [&](CallRef) { released_term = true; };
  ms_->hangup();
  scenario_->settle();
  EXPECT_TRUE(released_ms);
  EXPECT_TRUE(released_term);
  EXPECT_EQ(ms_->state(), MobileStation::State::kIdle);
  EXPECT_EQ(term_->state(), H323Terminal::State::kRegistered);

  EXPECT_FLOW(scenario_->net, fig5_release_flow());

  // Step 3.3: both sides disengaged; charging record closed.
  ASSERT_FALSE(scenario_->gk->call_records().empty());
  EXPECT_FALSE(scenario_->gk->call_records().front().open);

  // Only the signaling context remains (pre-activated for the next call).
  EXPECT_EQ(scenario_->sgsn->pdp_context_count(), 1u);
  EXPECT_NE(scenario_->sgsn->context(ms_->config().imsi, Nsapi(5)), nullptr);
}

TEST_F(CallTest, Fig6TerminationFlow) {
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  // Step 4.1: the H.323 terminal calls the MS's MSISDN.
  term_->place_call(ms_->config().msisdn);
  scenario_->settle();
  ASSERT_TRUE(connected);
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);
  ASSERT_EQ(term_->state(), H323Terminal::State::kConnected);

  EXPECT_FLOW(scenario_->net, fig6_termination_flow());

  EXPECT_EQ(scenario_->sgsn->pdp_context_count(), 2u);
}

TEST_F(CallTest, TerminationReleaseByTerminal) {
  term_->place_call(ms_->config().msisdn);
  scenario_->settle();
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);

  bool released_ms = false;
  ms_->on_released = [&](CallRef) { released_ms = true; };
  term_->hangup();
  scenario_->settle();
  EXPECT_TRUE(released_ms);
  EXPECT_EQ(ms_->state(), MobileStation::State::kIdle);
  EXPECT_EQ(scenario_->sgsn->pdp_context_count(), 1u);
}

TEST_F(CallTest, VoicePathBothDirections) {
  ms_->dial(make_subscriber(88, 1000).msisdn);
  scenario_->settle();
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);

  ms_->start_voice(25);
  term_->start_voice(25);
  scenario_->settle();

  // Terminal hears the MS: TCH -> VMSC vocoder -> RTP -> tunnel -> Gi.
  EXPECT_EQ(term_->voice_frames_received(), 25u);
  // MS hears the terminal: RTP -> VMSC vocoder -> TCH.
  EXPECT_EQ(ms_->voice_frames_received(), 25u);
  // Mouth-to-ear latency is sane: above the sum of link latencies, below
  // the ITU G.114 guideline.
  EXPECT_GT(term_->voice_latency().mean(), 20.0);
  EXPECT_LT(term_->voice_latency().mean(), 150.0);
  EXPECT_GT(ms_->voice_latency().mean(), 20.0);
  EXPECT_LT(ms_->voice_latency().mean(), 150.0);
}

TEST_F(CallTest, AnswerRacingHangupDoesNotResurrectCall) {
  // The caller hangs up moments before the callee's Q931 Connect reaches
  // the VMSC.  The Connect must not flip the releasing context back to
  // active (which would leak the voice PDP context and strand the call).
  SimTime ringback_at;
  ms_->on_ringback = [&](CallRef) { ringback_at = scenario_->net.now(); };
  ms_->dial(make_subscriber(88, 1000).msisdn);
  scenario_->net.run_until_idle(
      SimTime::from_micros(static_cast<std::int64_t>(1e12)));  // run setup
  // Re-run with precise timing: hang up ~40 ms before the terminal's
  // answer (answer_delay 800 ms after its alerting) so the Disconnect and
  // the Connect cross in flight.
  ASSERT_GT(ringback_at.count_micros(), 0);
  // The call connected in the first pass; release and go again.
  ms_->hangup();
  scenario_->settle();
  ASSERT_EQ(ms_->state(), MobileStation::State::kIdle);

  ms_->on_ringback = nullptr;
  SimTime ring2;
  ms_->on_ringback = [&](CallRef) { ring2 = scenario_->net.now(); };
  ms_->dial(make_subscriber(88, 1000).msisdn);
  // Step the clock in small quanta so we can interject the hangup.
  for (int i = 0; i < 2000 && ring2 == SimTime(); ++i) {
    scenario_->net.run_until(scenario_->net.now() + SimDuration::millis(5));
  }
  ASSERT_NE(ring2, SimTime());
  // Terminal answers ~770 ms after our ringback; fire the hangup so the
  // Um_Disconnect arrives at the VMSC right around the tunneled Connect.
  scenario_->net.run_until(ring2 + SimDuration::millis(760));
  ms_->hangup();
  scenario_->settle();

  EXPECT_EQ(ms_->state(), MobileStation::State::kIdle);
  EXPECT_EQ(term_->state(), H323Terminal::State::kRegistered);
  // No leaked voice context; only the signaling context remains.
  EXPECT_EQ(scenario_->sgsn->pdp_context_count(), 1u);
  const auto* ctx = scenario_->vmsc->context_of(ms_->config().imsi);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->proc, MscBase::Proc::kNone);
}

TEST_F(CallTest, MsToMsCallThroughHairpin) {
  // A second GSM MS on the same VMSC: the H.323 leg hairpins at the GGSN.
  VgprsParams params;
  params.num_ms = 2;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->ms[1]->power_on();
  s->settle();
  ASSERT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  ASSERT_EQ(s->ms[1]->state(), MobileStation::State::kIdle);

  bool a_connected = false;
  bool b_connected = false;
  s->ms[0]->on_connected = [&](CallRef) { a_connected = true; };
  s->ms[1]->on_connected = [&](CallRef) { b_connected = true; };
  s->ms[0]->dial(s->ms[1]->config().msisdn);
  s->settle();
  EXPECT_TRUE(a_connected);
  EXPECT_TRUE(b_connected);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kConnected);
  EXPECT_EQ(s->ms[1]->state(), MobileStation::State::kConnected);

  // Both talk; both hear.
  s->ms[0]->start_voice(10);
  s->ms[1]->start_voice(10);
  s->settle();
  EXPECT_EQ(s->ms[0]->voice_frames_received(), 10u);
  EXPECT_EQ(s->ms[1]->voice_frames_received(), 10u);

  s->ms[0]->hangup();
  s->settle();
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->ms[1]->state(), MobileStation::State::kIdle);
}

TEST(TimerCountTest, OnlyTheAutoAnswerFiresOnAFaultFreeCallCycle) {
  // Every guard and retransmission ends with the state that armed it, so
  // on a fault-free network the one timer that fires is the callee's
  // auto-answer.
  VgprsParams params;
  params.num_ms = 2;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->ms[1]->power_on();
  s->settle();
  ASSERT_EQ(s->ms[1]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->net.stats().timers_fired, 0u);

  s->ms[0]->dial(s->ms[1]->config().msisdn);
  s->settle();
  ASSERT_EQ(s->ms[1]->state(), MobileStation::State::kConnected);
  s->ms[0]->hangup();
  s->settle();
  ASSERT_EQ(s->ms[1]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->net.stats().timers_fired, 1u);
}

/// One terminal->MS call into a single cell camping `num_ms` MSs; the last
/// MS is the callee.
struct PagedCall {
  std::size_t pages = 0;            // Um_Paging_Request deliveries
  std::size_t pages_to_callee = 0;
  std::uint64_t deliveries = 0;     // every delivery of the call setup
  std::uint32_t termination_hops = 0;
  bool connected = false;
  bool others_idle = true;
};

PagedCall page_one_ms_of(std::uint32_t num_ms) {
  VgprsParams params;
  params.num_ms = num_ms;
  auto s = build_vgprs(params);
  s->net.spans().set_enabled(true);
  for (auto* ms : s->ms) ms->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  MobileStation& callee = *s->ms.back();
  s->net.trace().clear();

  PagedCall out;
  callee.on_connected = [&](CallRef) { out.connected = true; };
  const std::uint64_t before = s->net.stats().messages_delivered;
  s->terminals[0]->place_call(callee.config().msisdn);
  s->settle();
  out.deliveries = s->net.stats().messages_delivered - before;
  out.pages = s->net.trace().count("Um_Paging_Request");
  out.pages_to_callee = s->net.trace().count(
      FlowStep{"BTS", "Um_Paging_Request", callee.name()});
  for (const Span& span : s->net.spans().spans()) {
    if (span.kind == SpanKind::kTermination) out.termination_hops = span.hops;
  }
  for (auto* ms : s->ms) {
    if (ms != &callee && ms->state() != MobileStation::State::kIdle) {
      out.others_idle = false;
    }
  }
  return out;
}

TEST(PagingTest, PageReachesOnlyTheAddressedMs) {
  const PagedCall call = page_one_ms_of(8);
  EXPECT_TRUE(call.connected);
  EXPECT_EQ(call.pages, 1u);
  EXPECT_EQ(call.pages_to_callee, 1u);
  EXPECT_TRUE(call.others_idle);
}

TEST(PagingTest, CellSizeDoesNotChangeTheCallsCost) {
  // One paging-channel broadcast per page, whatever the cell holds: the
  // call costs the same deliveries and termination hops as in a cell with
  // only the callee.
  const PagedCall crowded = page_one_ms_of(8);
  const PagedCall alone = page_one_ms_of(1);
  ASSERT_TRUE(alone.connected);
  EXPECT_EQ(alone.deliveries, 74u);
  EXPECT_EQ(alone.termination_hops, 40u);
  EXPECT_EQ(crowded.deliveries, alone.deliveries);
  EXPECT_EQ(crowded.termination_hops, alone.termination_hops);
}

}  // namespace
}  // namespace vgprs
