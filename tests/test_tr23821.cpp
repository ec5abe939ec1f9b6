// The 3G TR 23.821 baseline: H.323-capable MS over packet radio, per-call
// PDP context lifecycle, MAP-enabled gatekeeper, network-initiated
// activation for terminating calls.
#include <gtest/gtest.h>

#include "flow_assert.hpp"
#include "tr23821/tr_scenario.hpp"
#include "vgprs/flows.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

class TrTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TrParams params;
    s_ = build_tr23821(params);
    ms_ = s_->ms[0];
    term_ = s_->terminals[0];
    ms_->power_on();
    term_->register_endpoint();
    s_->settle();
    ASSERT_EQ(ms_->state(), TrMobileStation::State::kIdle);
  }

  std::unique_ptr<TrScenario> s_;
  TrMobileStation* ms_ = nullptr;
  H323Terminal* term_ = nullptr;
};

TEST_F(TrTest, RegistrationActivatesThenDeactivatesPdpContext) {
  // TR 23.821 Fig. 7 step 6: the context is dropped after registration.
  EXPECT_EQ(ms_->pdp_activations(), 1u);
  EXPECT_EQ(ms_->pdp_deactivations(), 1u);
  EXPECT_FALSE(ms_->pdp_active());
  EXPECT_EQ(s_->sgsn->pdp_context_count(), 0u);
  // Yet the alias is registered at the gatekeeper.
  EXPECT_TRUE(s_->gk->find_alias(ms_->state() == TrMobileStation::State::kIdle
                                     ? make_subscriber(88, 1).msisdn
                                     : Msisdn{})
                  .has_value());
}

TEST_F(TrTest, OriginationRequiresPdpReactivation) {
  s_->net.trace().clear();
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(make_subscriber(88, 1000).msisdn);
  s_->settle();
  ASSERT_TRUE(connected);
  // One extra activation happened for this call.
  EXPECT_EQ(ms_->pdp_activations(), 2u);
  EXPECT_FLOW(s_->net, tr_origination_flow());
}

TEST_F(TrTest, UnansweredOriginationTimesOutOfRingback) {
  // A far end that rings but never answers: the handset's ringback
  // supervision must abandon the call and tear everything down.  Before
  // the timer existed, kRingback had no exit on a silent peer (a
  // vgprs_verify timer finding).
  H323Terminal::Config tc;
  tc.ip = IpAddress(192, 168, 1, 50);
  tc.alias = make_subscriber(88, 2000).msisdn;
  tc.gk_ip = IpAddress(192, 168, 1, 1);
  tc.router_name = "Router";
  tc.auto_answer = false;
  auto& mute = s_->net.add<H323Terminal>("TERM-MUTE", tc);
  s_->net.connect(mute, *s_->router, LinkProfile{});
  mute.register_endpoint();
  s_->settle();

  bool connected = false;
  bool rang = false;
  std::string failure;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->on_ringback = [&](CallRef) { rang = true; };
  ms_->on_failure = [&](std::string r) { failure = std::move(r); };
  ms_->dial(tc.alias);
  s_->settle();
  EXPECT_TRUE(rang);
  EXPECT_FALSE(connected);
  EXPECT_NE(failure.find("ringback"), std::string::npos);
  // The abandoned call tore down cleanly: admission released, per-call
  // PDP context gone, handset back to idle and able to call again.
  EXPECT_EQ(ms_->state(), TrMobileStation::State::kIdle);
  EXPECT_EQ(s_->gk->open_calls(), 0u);
  EXPECT_EQ(s_->sgsn->pdp_context_count(), 0u);
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(make_subscriber(88, 1000).msisdn);
  s_->settle();
  EXPECT_TRUE(connected);
}

TEST_F(TrTest, TerminationUsesNetworkInitiatedActivation) {
  s_->net.trace().clear();
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  term_->place_call(make_subscriber(88, 1).msisdn);
  s_->settle();
  ASSERT_TRUE(connected);
  ASSERT_EQ(ms_->state(), TrMobileStation::State::kConnected);

  EXPECT_FLOW(s_->net, tr_termination_flow());

  // The confidential IMSI crossed into the H.323 domain.
  EXPECT_EQ(s_->gk->imsis_learned(), 1u);
  EXPECT_GE(s_->gk->hlr_queries(), 1u);
  EXPECT_EQ(s_->gk->ggsn_activations(), 1u);
}

TEST_F(TrTest, PdpContextChurnPerCall) {
  // Three consecutive calls: the TR lifecycle pays activate+deactivate
  // each time; vGPRS pays once at registration (Section 6).
  for (int i = 0; i < 3; ++i) {
    ms_->dial(make_subscriber(88, 1000).msisdn);
    s_->settle();
    ASSERT_EQ(ms_->state(), TrMobileStation::State::kConnected)
        << "call " << i;
    ms_->hangup();
    s_->settle();
    ASSERT_EQ(ms_->state(), TrMobileStation::State::kIdle);
  }
  EXPECT_EQ(ms_->pdp_activations(), 4u);    // 1 registration + 3 calls
  EXPECT_EQ(ms_->pdp_deactivations(), 4u);
}

TEST_F(TrTest, VoiceRidesPacketRadioWithJitter) {
  ms_->dial(make_subscriber(88, 1000).msisdn);
  s_->settle();
  ASSERT_EQ(ms_->state(), TrMobileStation::State::kConnected);
  ms_->start_voice(50);
  term_->start_voice(50);
  s_->settle();
  EXPECT_EQ(term_->voice_frames_received(), 50u);
  EXPECT_EQ(ms_->voice_frames_received(), 50u);
  // The packet radio leg adds queueing jitter: delay variance is visible,
  // unlike the deterministic circuit-switched leg in vGPRS.
  EXPECT_GT(term_->voice_latency().stddev(), 1.0);
  EXPECT_GT(term_->voice_latency().max() - term_->voice_latency().min(),
            5.0);
}

TEST_F(TrTest, StaticAddressSurvivesReactivation) {
  IpAddress first;
  {
    ms_->dial(make_subscriber(88, 1000).msisdn);
    s_->settle();
    const auto* ctx = s_->ggsn->context_by_address(IpAddress(10, 2, 0, 1));
    ASSERT_NE(ctx, nullptr);
    first = ctx->address;
    ms_->hangup();
    s_->settle();
  }
  ms_->dial(make_subscriber(88, 1000).msisdn);
  s_->settle();
  const auto* ctx = s_->ggsn->context_by_address(IpAddress(10, 2, 0, 1));
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->address, first);  // static PDP address, as TR requires
}

TEST_F(TrTest, ImsiConfidentialityBreaksTrTermination) {
  // The paper's closing Section 6 argument: the TR gatekeeper's HLR
  // interrogation "implies that the H.323 gatekeeper should memorize IMSI.
  // Since IMSI is considered confidential to the GPRS network operator,
  // this approach may not work if the GPRS network and the H.323 network
  // are owned by different service providers."  Enforce that boundary at
  // the HLR and watch TR termination collapse.
  s_->hlr->set_imsi_confidentiality(true);
  // The operator's own nodes stay trusted; the gatekeeper is the H.323
  // provider's box and is not.
  s_->hlr->trust_map_peer("SGSN");
  s_->hlr->trust_map_peer("GGSN");

  bool connected = false;
  bool released = false;
  s_->ms[0]->on_connected = [&](CallRef) { connected = true; };
  s_->terminals[0]->on_released = [&](CallRef) { released = true; };
  s_->terminals[0]->place_call(make_subscriber(88, 1).msisdn);
  s_->net.run_for(SimDuration::seconds(60));
  s_->settle();
  EXPECT_FALSE(connected);
  EXPECT_GE(s_->hlr->refused_interrogations(), 1u);
  EXPECT_EQ(s_->gk->imsis_learned(), 0u);
  (void)released;  // the caller's Setup simply never reaches the MS

  // vGPRS needs no such interrogation: the same policy does not affect it
  // (verified structurally — the standard gatekeeper never sends MAP; see
  // test_tromboning for the roaming case).

  // The caller is stuck in call setup (its Setup fell into the routing
  // void); abandon the attempt before retrying.
  s_->terminals[0]->hangup();
  s_->settle();
  ASSERT_EQ(s_->terminals[0]->state(), H323Terminal::State::kRegistered);

  // Granting trust restores TR termination, proving the policy (not a
  // regression) is what broke it.
  s_->hlr->trust_map_peer("GK");
  connected = false;
  s_->terminals[0]->place_call(make_subscriber(88, 1).msisdn);
  s_->settle();
  EXPECT_TRUE(connected);
}

TEST_F(TrTest, TerminalToTerminalCallsUnaffected) {
  // The TR gatekeeper's HLR detour must not break plain H.323 calls.
  TrParams params;
  params.num_terminals = 2;
  auto s = build_tr23821(params);
  s->terminals[0]->register_endpoint();
  s->terminals[1]->register_endpoint();
  s->settle();
  bool connected = false;
  s->terminals[0]->on_connected = [&](CallRef) { connected = true; };
  s->terminals[0]->place_call(make_subscriber(88, 1001).msisdn);
  s->settle();
  EXPECT_TRUE(connected);
  EXPECT_EQ(s->gk->imsis_learned(), 0u);  // not a mobile subscriber
}

// Builder addresses count up from a base and carry into the higher octets:
// MS #257's static PDP address must not reuse MS #1's, and terminal #248
// must not land on the gatekeeper's 192.168.1.1.
TEST(TrBuilderTest, AddressesCarryIntoHigherOctets) {
  TrParams params;
  params.num_ms = 257;
  params.num_terminals = 248;
  auto s = build_tr23821(params);
  const Hlr::SubscriberRecord* first =
      s->hlr->record(make_subscriber(params.country_code, 1).imsi);
  const Hlr::SubscriberRecord* last =
      s->hlr->record(make_subscriber(params.country_code, 257).imsi);
  ASSERT_NE(first, nullptr);
  ASSERT_NE(last, nullptr);
  EXPECT_EQ(first->profile.static_pdp_address, IpAddress(10, 2, 0, 1));
  EXPECT_EQ(last->profile.static_pdp_address, IpAddress(10, 2, 1, 1));
  EXPECT_EQ(s->terminals.back()->ip(), IpAddress(192, 168, 2, 1));
  EXPECT_EQ(s->net.ip_owner(IpAddress(192, 168, 1, 1)), s->gk->id());
}

}  // namespace
}  // namespace vgprs
