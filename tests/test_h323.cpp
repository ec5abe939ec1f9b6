// H.323 substrate unit tests: gatekeeper registration / address
// translation / admission / charging, and terminal-to-terminal calls over
// the IP cloud.
#include <gtest/gtest.h>

#include "h323/gatekeeper.hpp"
#include "h323/terminal.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

class H323Test : public ::testing::Test {
 protected:
  void SetUp() override {
    register_all_messages();
    net_ = std::make_unique<Network>(9);
    router_ = &net_->add<IpRouter>("Router");
    gk_ = &net_->add<Gatekeeper>("GK", IpAddress(192, 168, 1, 1), "Router");
    net_->connect(*gk_, *router_, LinkProfile{});
    term_a_ = add_terminal("A", 10, Msisdn(880900001001ULL, 12));
    term_b_ = add_terminal("B", 11, Msisdn(880900001002ULL, 12));
  }

  H323Terminal* add_terminal(const std::string& name, std::uint8_t host,
                             Msisdn alias) {
    H323Terminal::Config tc;
    tc.ip = IpAddress(192, 168, 1, host);
    tc.alias = alias;
    tc.gk_ip = IpAddress(192, 168, 1, 1);
    tc.router_name = "Router";
    auto& t = net_->add<H323Terminal>(name, tc);
    net_->connect(t, *router_, LinkProfile{});
    return &t;
  }

  std::unique_ptr<Network> net_;
  IpRouter* router_ = nullptr;
  Gatekeeper* gk_ = nullptr;
  H323Terminal* term_a_ = nullptr;
  H323Terminal* term_b_ = nullptr;
};

TEST_F(H323Test, RegistrationPopulatesTranslationTable) {
  term_a_->register_endpoint();
  net_->run_until_idle();
  EXPECT_EQ(term_a_->state(), H323Terminal::State::kRegistered);
  EXPECT_NE(term_a_->endpoint_id(), 0u);
  auto reg = gk_->find_alias(Msisdn(880900001001ULL, 12));
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->transport.ip(), IpAddress(192, 168, 1, 10));
  EXPECT_EQ(reg->transport.port(), 1720);
}

TEST_F(H323Test, ReRegistrationFromNewTransportGetsFreshEndpointId) {
  term_a_->register_endpoint();
  net_->run_until_idle();
  std::uint32_t first_id = term_a_->endpoint_id();
  // A second endpoint claims the same alias from a new address (as the
  // VMSC does after a roamer re-activates a dynamic PDP context, or when
  // the subscriber moves zones).  The table must follow the newcomer and
  // issue a fresh endpoint id so stale URQs cannot evict it.
  auto* newcomer = add_terminal("A2", 20, Msisdn(880900001001ULL, 12));
  newcomer->register_endpoint();
  net_->run_until_idle();
  auto reg = gk_->find_alias(Msisdn(880900001001ULL, 12));
  ASSERT_TRUE(reg.has_value());
  EXPECT_EQ(reg->transport.ip(), IpAddress(192, 168, 1, 20));
  EXPECT_NE(reg->endpoint_id, first_id);

  // A stale URQ from the previous holder is ignored.
  RasUrq urq;
  urq.alias = Msisdn(880900001001ULL, 12);
  urq.endpoint_id = first_id;
  net_->send(term_a_->id(), router_->id(),
             make_ip_datagram(IpAddress(192, 168, 1, 10),
                              IpAddress(192, 168, 1, 1),
                              std::make_shared<RasUrq>(urq)));
  net_->run_until_idle();
  EXPECT_TRUE(gk_->find_alias(Msisdn(880900001001ULL, 12)).has_value());
}

TEST_F(H323Test, AdmissionLimitRejectsExcessCalls) {
  term_a_->register_endpoint();
  term_b_->register_endpoint();
  auto* term_c = add_terminal("C", 12, Msisdn(880900001003ULL, 12));
  auto* term_d = add_terminal("D", 13, Msisdn(880900001004ULL, 12));
  term_c->register_endpoint();
  term_d->register_endpoint();
  net_->run_until_idle();
  gk_->set_admission_limit(1);

  // First call admitted.
  term_a_->place_call(Msisdn(880900001002ULL, 12));
  net_->run_until_idle();
  ASSERT_EQ(term_a_->state(), H323Terminal::State::kConnected);

  // Second concurrent call rejected with resource-unavailable.
  std::string failure;
  term_c->on_failure = [&](std::string r) { failure = std::move(r); };
  term_c->place_call(Msisdn(880900001004ULL, 12));
  net_->run_until_idle();
  EXPECT_NE(failure.find("admission rejected"), std::string::npos);
  EXPECT_EQ(term_c->state(), H323Terminal::State::kRegistered);

  // After the first call clears, capacity is available again.
  term_a_->hangup();
  net_->run_until_idle();
  EXPECT_EQ(gk_->open_calls(), 0u);
  term_c->place_call(Msisdn(880900001004ULL, 12));
  net_->run_until_idle();
  EXPECT_EQ(term_c->state(), H323Terminal::State::kConnected);
}

TEST_F(H323Test, CallSetupAndTeardown) {
  term_a_->register_endpoint();
  term_b_->register_endpoint();
  net_->run_until_idle();
  bool a_conn = false;
  bool b_conn = false;
  bool b_rang = false;
  term_a_->on_connected = [&](CallRef) { a_conn = true; };
  term_b_->on_connected = [&](CallRef) { b_conn = true; };
  term_b_->on_incoming = [&](CallRef, Msisdn) { b_rang = true; };
  term_a_->place_call(Msisdn(880900001002ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(a_conn);
  EXPECT_TRUE(b_conn);
  EXPECT_TRUE(b_rang);
  // Both sides requested admission.
  EXPECT_EQ(gk_->admissions(), 2u);

  term_a_->hangup();
  net_->run_until_idle();
  EXPECT_EQ(term_a_->state(), H323Terminal::State::kRegistered);
  EXPECT_EQ(term_b_->state(), H323Terminal::State::kRegistered);
}

TEST_F(H323Test, ChargingRecordsOpenAndClose) {
  term_a_->register_endpoint();
  term_b_->register_endpoint();
  net_->run_until_idle();
  term_a_->place_call(Msisdn(880900001002ULL, 12));
  net_->run_until_idle();
  ASSERT_EQ(gk_->call_records().size(), 1u);
  EXPECT_TRUE(gk_->call_records()[0].open);
  SimTime admitted = gk_->call_records()[0].admitted;

  net_->run_until(net_->now() + SimDuration::seconds(30));
  term_a_->hangup();
  net_->run_until_idle();
  ASSERT_EQ(gk_->call_records().size(), 1u);
  const auto& rec = gk_->call_records()[0];
  EXPECT_FALSE(rec.open);
  EXPECT_GT((rec.disengaged - admitted).as_seconds(), 29.0);
  EXPECT_EQ(rec.called, Msisdn(880900001002ULL, 12));
}

TEST_F(H323Test, UnknownAliasRejected) {
  term_a_->register_endpoint();
  net_->run_until_idle();
  std::string failure;
  bool released = false;
  term_a_->on_failure = [&](std::string r) { failure = std::move(r); };
  term_a_->on_released = [&](CallRef) { released = true; };
  term_a_->place_call(Msisdn(889999999999ULL, 12));
  net_->run_until_idle();
  EXPECT_NE(failure.find("admission rejected"), std::string::npos);
  EXPECT_TRUE(released);
  EXPECT_EQ(term_a_->state(), H323Terminal::State::kRegistered);
  EXPECT_EQ(gk_->rejections(), 1u);
}

TEST_F(H323Test, BusyCalleeReleasesCaller) {
  term_a_->register_endpoint();
  term_b_->register_endpoint();
  auto* term_c = add_terminal("C", 12, Msisdn(880900001003ULL, 12));
  term_c->register_endpoint();
  net_->run_until_idle();
  // B talks to C.
  term_b_->place_call(Msisdn(880900001003ULL, 12));
  net_->run_until_idle();
  ASSERT_EQ(term_b_->state(), H323Terminal::State::kConnected);
  // A calls B, which is busy.
  bool released = false;
  term_a_->on_released = [&](CallRef) { released = true; };
  term_a_->place_call(Msisdn(880900001002ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(released);
  EXPECT_EQ(term_a_->state(), H323Terminal::State::kRegistered);
  // B's call with C is untouched.
  EXPECT_EQ(term_b_->state(), H323Terminal::State::kConnected);
}

TEST_F(H323Test, UnregisterRemovesAlias) {
  term_a_->register_endpoint();
  net_->run_until_idle();
  ASSERT_TRUE(gk_->find_alias(Msisdn(880900001001ULL, 12)).has_value());
  // Send an explicit URQ.
  RasUrq urq;
  urq.alias = Msisdn(880900001001ULL, 12);
  urq.endpoint_id = term_a_->endpoint_id();
  net_->send(term_a_->id(), router_->id(),
             make_ip_datagram(IpAddress(192, 168, 1, 10),
                              IpAddress(192, 168, 1, 1),
                              std::make_shared<RasUrq>(urq)));
  net_->run_until_idle();
  EXPECT_FALSE(gk_->find_alias(Msisdn(880900001001ULL, 12)).has_value());
}

TEST_F(H323Test, MediaFlowsDirectlyBetweenTerminals) {
  term_a_->register_endpoint();
  term_b_->register_endpoint();
  net_->run_until_idle();
  term_a_->place_call(Msisdn(880900001002ULL, 12));
  net_->run_until_idle();
  net_->trace().clear();
  term_a_->start_voice(20);
  term_b_->start_voice(20);
  net_->run_until_idle();
  EXPECT_EQ(term_a_->voice_frames_received(), 20u);
  EXPECT_EQ(term_b_->voice_frames_received(), 20u);
  // RTP went terminal-to-terminal via the router, not via the GK.
  EXPECT_EQ(net_->trace().count(FlowStep{"Router", "IP_Datagram", "GK"}), 0u);
}

}  // namespace
}  // namespace vgprs
