// Direct unit tests of the shared MSC machinery (MscBase) through a
// minimal test subclass: procedure supervision/abort, duplicate message
// handling, rejection paths and context bookkeeping — the machinery both
// the classic MSC and the VMSC inherit unchanged.
#include <gtest/gtest.h>

#include "gsm/bsc.hpp"
#include "gsm/bts.hpp"
#include "gsm/hlr.hpp"
#include "gsm/mobile_station.hpp"
#include "gsm/msc_base.hpp"
#include "gsm/vlr.hpp"
#include "sim/fault.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

/// A far end that can be told to answer, stall, or reject.
class TestMsc final : public MscBase {
 public:
  enum class FarEnd { kAnswer, kStall, kReject };

  TestMsc(std::string name, Config config)
      : MscBase(std::move(name), std::move(config)) {}

  FarEnd far_end = FarEnd::kAnswer;
  int mo_routed = 0;
  int ms_disconnects = 0;
  int aborted = 0;
  int cleared = 0;
  int removed = 0;

  using MscBase::start_mt_call;  // expose for tests

 protected:
  void route_mo_call(MsContext& ctx) override {
    ++mo_routed;
    switch (far_end) {
      case FarEnd::kAnswer:
        notify_mo_alerting(ctx);
        notify_mo_connect(ctx);
        break;
      case FarEnd::kStall:
        break;  // never answers; the procedure guard must fire
      case FarEnd::kReject:
        reject_mo_call(ctx, ClearCause::kCallRejected);
        break;
    }
  }
  void on_ms_disconnect(MsContext& ctx, ClearCause) override {
    ++ms_disconnects;
    complete_ms_release(ctx);
  }
  void on_call_aborted(MsContext&) override { ++aborted; }
  void on_call_cleared(MsContext&) override { ++cleared; }
  void on_subscriber_removed(const MsContext&) override { ++removed; }
};

class MscBaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_all_messages();
    net_ = std::make_unique<Network>(21);
    hlr_ = &net_->add<Hlr>("HLR");
    vlr_ = &net_->add<Vlr>("VLR", Vlr::Config{"HLR", 88, 8'899'000});
    bsc_ = &net_->add<Bsc>("BSC", Bsc::Config{"MSC", 8, 8});
    bts_ = &net_->add<Bts>("BTS", CellId(1), LocationAreaId(1), "BSC");
    MscBase::Config cfg;
    cfg.vlr_name = "VLR";
    cfg.procedure_guard = SimDuration::seconds(20);
    msc_ = &net_->add<TestMsc>("MSC", cfg);
    bsc_->adopt_bts(*bts_);
    msc_->adopt_cell(CellId(1), "BSC");
    net_->connect(*bts_, *bsc_, LinkProfile{});
    net_->connect(*bsc_, *msc_, LinkProfile{});
    net_->connect(*msc_, *vlr_, LinkProfile{});
    net_->connect(*vlr_, *hlr_, LinkProfile{});

    id_ = make_subscriber(88, 1);
    SubscriberProfile profile;
    profile.msisdn = id_.msisdn;
    hlr_->provision(id_.imsi, id_.ki, profile);
    MobileStation::Config mc;
    mc.imsi = id_.imsi;
    mc.msisdn = id_.msisdn;
    mc.ki = id_.ki;
    mc.bts_name = "BTS";
    ms_ = &net_->add<MobileStation>("MS", mc);
    net_->connect(*ms_, *bts_, LinkProfile{});
  }

  void register_ms() {
    ms_->power_on();
    net_->run_until_idle();
    ASSERT_EQ(ms_->state(), MobileStation::State::kIdle);
  }

  std::unique_ptr<Network> net_;
  Hlr* hlr_ = nullptr;
  Vlr* vlr_ = nullptr;
  Bsc* bsc_ = nullptr;
  Bts* bts_ = nullptr;
  TestMsc* msc_ = nullptr;
  MobileStation* ms_ = nullptr;
  SubscriberIdentity id_;
};

TEST_F(MscBaseTest, HappyPathCallThroughStub) {
  register_ms();
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(connected);
  EXPECT_EQ(msc_->mo_routed, 1);
  ms_->hangup();
  net_->run_until_idle();
  EXPECT_EQ(msc_->ms_disconnects, 1);
  EXPECT_EQ(msc_->cleared, 1);
  EXPECT_EQ(ms_->state(), MobileStation::State::kIdle);
  EXPECT_EQ(bsc_->tch_in_use(), 0u);
}

TEST_F(MscBaseTest, RejectedServiceRequestsDoNotExhaustSdcch) {
  // A CM Service Reject ends the MS's dedicated connection, so the BSC
  // must free the SDCCH the request came in on.  This BSC has 8 SDCCHs;
  // without the release the ninth request would meet congestion, and so
  // would every later call or page response.
  register_ms();
  for (int round = 0; round < 10; ++round) {
    msc_->on_restart();  // forgets the MS: its next request is rejected
    ms_->dial(Msisdn(880900001000ULL, 12));
    net_->run_until_idle();
    ASSERT_EQ(ms_->state(), MobileStation::State::kIdle) << "round " << round;
  }
  EXPECT_EQ(bsc_->sdcch_in_use(), 0u);
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(connected);
}

TEST_F(MscBaseTest, StalledFarEndAbortsViaProcedureGuard) {
  register_ms();
  msc_->far_end = TestMsc::FarEnd::kStall;
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  // The MSC's guard fired, the call was aborted and the radio cleared.
  EXPECT_EQ(msc_->aborted, 1);
  EXPECT_EQ(msc_->cleared, 1);
  EXPECT_EQ(bsc_->tch_in_use(), 0u);
  const auto* ctx = msc_->context_of(id_.imsi);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->proc, MscBase::Proc::kNone);
  // The MS's own supervision already returned it to idle.
  EXPECT_EQ(ms_->state(), MobileStation::State::kIdle);
  // The context is reusable: a later call succeeds.
  msc_->far_end = TestMsc::FarEnd::kAnswer;
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(connected);
}

TEST_F(MscBaseTest, RejectedCallReleasesCleanly) {
  register_ms();
  msc_->far_end = TestMsc::FarEnd::kReject;
  bool released = false;
  bool connected = false;
  ms_->on_released = [&](CallRef) { released = true; };
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(released);
  EXPECT_FALSE(connected);
  EXPECT_EQ(msc_->cleared, 1);
  EXPECT_EQ(bsc_->tch_in_use(), 0u);
}

TEST_F(MscBaseTest, MtCallToUnregisteredSubscriberRefused) {
  // No registration has happened.
  EXPECT_FALSE(msc_->start_mt_call(id_.imsi, Msisdn(880900001000ULL, 12),
                                   CallRef(77)));
}

TEST_F(MscBaseTest, MtCallToBusySubscriberRefused) {
  register_ms();
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);
  EXPECT_FALSE(msc_->start_mt_call(id_.imsi, Msisdn(880900001000ULL, 12),
                                   CallRef(78)));
}

TEST_F(MscBaseTest, MtCallDeliveredByStub) {
  register_ms();
  bool incoming = false;
  ms_->on_incoming = [&](CallRef, Msisdn) { incoming = true; };
  ASSERT_TRUE(msc_->start_mt_call(id_.imsi, Msisdn(880900001000ULL, 12),
                                  CallRef(79)));
  net_->run_until_idle();
  EXPECT_TRUE(incoming);
  EXPECT_EQ(ms_->state(), MobileStation::State::kConnected);
  const auto* ctx = msc_->context_of(id_.imsi);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->step, MscBase::Step::kActive);
}

TEST_F(MscBaseTest, DuplicateDisconnectHandledOnce) {
  register_ms();
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  ASSERT_EQ(ms_->state(), MobileStation::State::kConnected);
  // Simulate a retransmitted disconnect arriving directly on the A side.
  for (int i = 0; i < 3; ++i) {
    auto disc = std::make_shared<ADisconnect>();
    disc->imsi = id_.imsi;
    disc->call_ref = msc_->context_of(id_.imsi)->call_ref;
    disc->cause = ClearCause::kNormal;
    net_->send(bsc_->id(), msc_->id(), std::move(disc));
  }
  net_->run_until_idle();
  EXPECT_EQ(msc_->ms_disconnects, 1);  // duplicates swallowed
}

TEST_F(MscBaseTest, HangupWhileAuthorizingEndsTheMapRequest) {
  // The VLR's answer to the call authorization is lost, and the MS hangs up
  // before the first resend is due.  The request served the authorizing
  // step, so leaving that step ends its exchange: no copy goes out and
  // nothing gives up on it later.
  register_ms();
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"MAP_Send_Info_For_Outgoing_Call_ack", "VLR", "MSC",
                        1, 1},
       FaultKind::kDrop});
  net_->install_faults(std::move(sched));
  net_->trace().clear();
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until(net_->now() + SimDuration::millis(500));
  ASSERT_EQ(msc_->context_of(id_.imsi)->step, MscBase::Step::kAuthorize);
  ms_->hangup();
  net_->run_until_idle();
  EXPECT_EQ(net_->trace().count("MAP_Send_Info_For_Outgoing_Call"), 1u);
  EXPECT_EQ(net_->metrics().counter("recovery/retransmits"), 0);
  EXPECT_EQ(net_->metrics().counter("recovery/give_ups"), 0);
  EXPECT_EQ(msc_->cleared, 1);
  EXPECT_EQ(ms_->state(), MobileStation::State::kIdle);
  EXPECT_EQ(bsc_->tch_in_use(), 0u);
}

TEST_F(MscBaseTest, SubscriberRemovalErasesContext) {
  register_ms();
  auto cancel = std::make_shared<MapCancelLocation>();
  cancel->imsi = id_.imsi;
  net_->send(vlr_->id(), msc_->id(), std::move(cancel));
  net_->run_until_idle();
  EXPECT_EQ(msc_->removed, 1);
  EXPECT_EQ(msc_->context_of(id_.imsi), nullptr);
}

TEST_F(MscBaseTest, RegistrationGuardClearsStalledRegistration) {
  // Cut the VLR link semantics by pointing the MSC at a VLR that cannot
  // reach an HLR record: provision is removed so the HLR nacks, which is a
  // *rejection*; to test the guard instead, drop the D link entirely.
  LinkProfile dead;
  dead.loss_probability = 1.0;
  net_->set_link_profile(vlr_->id(), hlr_->id(), dead);
  ms_->power_on();
  net_->run_until_idle();
  // MS gave up via its own supervision; the MSC's guard reset the context.
  EXPECT_EQ(ms_->state(), MobileStation::State::kDetached);
  const auto* ctx = msc_->context_of(id_.imsi);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->proc, MscBase::Proc::kNone);
  EXPECT_FALSE(ctx->registered);
}

TEST_F(MscBaseTest, LostClearCompleteForceClearsViaGuard) {
  register_ms();
  // The stalled far end makes the procedure guard abort the call; the
  // BSC's A_Clear_Complete answer to the abort is then lost in flight.
  // The re-armed guard must force-clear the context locally instead of
  // leaving it wedged in kClearing (a vgprs_verify deadlock finding).
  msc_->far_end = TestMsc::FarEnd::kStall;
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"A_Clear_Complete", "BSC", "MSC", 1, 1},
       FaultKind::kDrop});
  net_->install_faults(std::move(sched));
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  EXPECT_EQ(msc_->aborted, 1);
  EXPECT_EQ(msc_->cleared, 1);
  EXPECT_EQ(net_->faults()->faults_applied(0), 1u);
  const auto* ctx = msc_->context_of(id_.imsi);
  ASSERT_NE(ctx, nullptr);
  EXPECT_EQ(ctx->proc, MscBase::Proc::kNone);
  EXPECT_EQ(ctx->step, MscBase::Step::kNone);
  // The context is fully reusable: a later call connects.
  msc_->far_end = TestMsc::FarEnd::kAnswer;
  bool connected = false;
  ms_->on_connected = [&](CallRef) { connected = true; };
  ms_->dial(Msisdn(880900001000ULL, 12));
  net_->run_until_idle();
  EXPECT_TRUE(connected);
}

TEST_F(MscBaseTest, CmServiceWithoutRegistrationRejected) {
  // An MS that never registered asks for service.
  auto req = std::make_shared<ACmServiceRequest>();
  req->imsi = id_.imsi;
  net_->send(bsc_->id(), msc_->id(), std::move(req));
  net_->run_until_idle();
  EXPECT_EQ(net_->trace().count("A_CM_Service_Reject"), 1u);
}

}  // namespace
}  // namespace vgprs
