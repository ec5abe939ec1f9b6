// GPRS substrate unit tests: attach/detach, PDP context lifecycle, dynamic
// vs static addressing, GTP tunneling, and network-initiated activation.
#include <gtest/gtest.h>

#include "gprs/ggsn.hpp"
#include "gprs/sgsn.hpp"
#include "gsm/hlr.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

/// Plays the role of the Gb-side user (a VMSC or an H.323-capable MS).
class GbUser final : public Node {
 public:
  explicit GbUser(std::string name, Imsi imsi)
      : Node(std::move(name)), imsi_(imsi) {}

  void home(NodeId sgsn) { sgsn_ = sgsn; }
  void attach(NodeId sgsn) {
    home(sgsn);
    auto req = std::make_shared<GprsAttachRequest>();
    req->imsi = imsi_;
    send(sgsn, std::move(req));
  }
  void activate(Nsapi nsapi, IpAddress requested = {}) {
    auto req = std::make_shared<ActivatePdpContextRequest>();
    req->imsi = imsi_;
    req->nsapi = nsapi;
    req->requested_address = requested;
    send(sgsn_, std::move(req));
  }
  void deactivate(Nsapi nsapi) {
    auto req = std::make_shared<DeactivatePdpContextRequest>();
    req->imsi = imsi_;
    req->nsapi = nsapi;
    send(sgsn_, std::move(req));
  }
  void detach() {
    auto req = std::make_shared<GprsDetachRequest>();
    req->imsi = imsi_;
    send(sgsn_, std::move(req));
  }
  void send_datagram(IpAddress src, IpAddress dst, MessagePtr inner) {
    auto frame = std::make_shared<GbUnitData>();
    frame->imsi = imsi_;
    frame->inner = make_ip_datagram(src, dst, std::move(inner));
    send(sgsn_, std::move(frame));
  }

  void on_message(const Envelope& env) override {
    last = env.msg;
    history.push_back(env.msg);
    if (const auto* acc =
            dynamic_cast<const ActivatePdpContextAccept*>(env.msg.get())) {
      addresses[acc->nsapi.value()] = acc->address;
    }
  }

  MessagePtr last;
  std::vector<MessagePtr> history;
  std::map<std::uint8_t, IpAddress> addresses;

 private:
  Imsi imsi_;
  NodeId sgsn_;
};

class GprsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    register_all_messages();
    net_ = std::make_unique<Network>(5);
    hlr_ = &net_->add<Hlr>("HLR");
    sgsn_ = &net_->add<Sgsn>("SGSN", Sgsn::Config{"GGSN", "HLR"});
    Ggsn::Config gc;
    gc.router_name = "Router";
    gc.hlr_name = "HLR";
    ggsn_ = &net_->add<Ggsn>("GGSN", gc);
    router_ = &net_->add<IpRouter>("Router");
    net_->connect(*sgsn_, *ggsn_, LinkProfile{});
    net_->connect(*sgsn_, *hlr_, LinkProfile{});
    net_->connect(*ggsn_, *hlr_, LinkProfile{});
    net_->connect(*ggsn_, *router_, LinkProfile{});

    id_ = make_subscriber(88, 1);
    SubscriberProfile profile;
    profile.msisdn = id_.msisdn;
    hlr_->provision(id_.imsi, id_.ki, profile);
    user_ = &net_->add<GbUser>("USER", id_.imsi);
    net_->connect(*user_, *sgsn_, LinkProfile{});
  }

  std::unique_ptr<Network> net_;
  Hlr* hlr_ = nullptr;
  Sgsn* sgsn_ = nullptr;
  Ggsn* ggsn_ = nullptr;
  IpRouter* router_ = nullptr;
  GbUser* user_ = nullptr;
  SubscriberIdentity id_;
};

TEST_F(GprsTest, AttachUpdatesHlr) {
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  ASSERT_NE(user_->last, nullptr);
  EXPECT_EQ(user_->last->name(), "GPRS_Attach_Accept");
  EXPECT_EQ(sgsn_->attached_count(), 1u);
  EXPECT_EQ(hlr_->record(id_.imsi)->sgsn_name, "SGSN");
}

TEST_F(GprsTest, AttachRejectedForUnknownImsi) {
  auto& ghost = net_->add<GbUser>("GHOST", Imsi(123456789012345ULL, 15));
  net_->connect(ghost, *sgsn_, LinkProfile{});
  ghost.attach(sgsn_->id());
  net_->run_until_idle();
  ASSERT_NE(ghost.last, nullptr);
  EXPECT_EQ(ghost.last->name(), "GPRS_Attach_Reject");
  EXPECT_EQ(sgsn_->attached_count(), 0u);
}

TEST_F(GprsTest, PdpActivationRequiresAttach) {
  user_->home(sgsn_->id());
  user_->activate(Nsapi(5));
  net_->run_until_idle();
  ASSERT_NE(user_->last, nullptr);
  EXPECT_EQ(user_->last->name(), "Activate_PDP_Context_Reject");
}

TEST_F(GprsTest, DynamicAddressesAreDistinctPerContext) {
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  user_->activate(Nsapi(5));
  user_->activate(Nsapi(6));
  net_->run_until_idle();
  ASSERT_EQ(user_->addresses.size(), 2u);
  EXPECT_NE(user_->addresses[5], user_->addresses[6]);
  EXPECT_EQ(sgsn_->pdp_context_count(), 2u);
  EXPECT_EQ(ggsn_->pdp_context_count(), 2u);
}

TEST_F(GprsTest, StaticAddressHonored) {
  IpAddress want(10, 2, 0, 42);
  ggsn_->provision_static(id_.imsi, want);
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  user_->activate(Nsapi(5), want);
  net_->run_until_idle();
  EXPECT_EQ(user_->addresses[5], want);
  EXPECT_NE(ggsn_->context_by_address(want), nullptr);
}

TEST_F(GprsTest, DeactivationTearsDownBothEnds) {
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  user_->activate(Nsapi(5));
  net_->run_until_idle();
  IpAddress addr = user_->addresses[5];
  user_->deactivate(Nsapi(5));
  net_->run_until_idle();
  EXPECT_EQ(user_->last->name(), "Deactivate_PDP_Context_Accept");
  EXPECT_EQ(sgsn_->pdp_context_count(), 0u);
  EXPECT_EQ(ggsn_->pdp_context_count(), 0u);
  EXPECT_EQ(ggsn_->context_by_address(addr), nullptr);
  EXPECT_FALSE(net_->ip_owner(addr).valid());  // route withdrawn
}

TEST_F(GprsTest, DeactivateUnknownContextStillAcks) {
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  user_->deactivate(Nsapi(9));
  net_->run_until_idle();
  EXPECT_EQ(user_->last->name(), "Deactivate_PDP_Context_Accept");
}

TEST_F(GprsTest, DetachDeletesAllContexts) {
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  user_->activate(Nsapi(5));
  user_->activate(Nsapi(6));
  net_->run_until_idle();
  user_->detach();
  net_->run_until_idle();
  EXPECT_EQ(sgsn_->attached_count(), 0u);
  EXPECT_EQ(sgsn_->pdp_context_count(), 0u);
  EXPECT_EQ(ggsn_->pdp_context_count(), 0u);
}

TEST_F(GprsTest, UplinkTunnelingToExternalHost) {
  // External IP host behind the router.
  struct Host final : public Node {
    using Node::Node;
    std::vector<MessagePtr> got;
    void on_message(const Envelope& env) override { got.push_back(env.msg); }
  };
  auto& host = net_->add<Host>("HOST");
  net_->connect(host, *router_, LinkProfile{});
  net_->register_ip(IpAddress(192, 168, 9, 9), host.id());

  user_->attach(sgsn_->id());
  net_->run_until_idle();
  user_->activate(Nsapi(5));
  net_->run_until_idle();
  auto probe = std::make_shared<GprsAttachRequest>();  // arbitrary payload
  probe->imsi = id_.imsi;
  user_->send_datagram(user_->addresses[5], IpAddress(192, 168, 9, 9),
                       probe);
  net_->run_until_idle();
  ASSERT_EQ(host.got.size(), 1u);
  const auto* dgram = dynamic_cast<const IpDatagram*>(host.got[0].get());
  ASSERT_NE(dgram, nullptr);
  EXPECT_EQ(dgram->src, user_->addresses[5]);
  EXPECT_EQ(net_->trace().count("GTP_T_PDU"), 1u);
}

TEST_F(GprsTest, DownlinkRequiresContext) {
  // A datagram to an address with no PDP context is dropped at the GGSN.
  struct Host final : public Node {
    using Node::Node;
    void on_message(const Envelope&) override {}
  };
  auto& host = net_->add<Host>("HOST");
  net_->connect(host, *router_, LinkProfile{});
  net_->register_ip(IpAddress(192, 168, 9, 9), host.id());
  // Stale route to a torn-down context address.
  net_->register_ip(IpAddress(10, 1, 0, 77), ggsn_->id());
  net_->send(host.id(), router_->id(),
             make_ip_datagram(IpAddress(192, 168, 9, 9),
                              IpAddress(10, 1, 0, 77),
                              std::make_shared<GprsAttachRequest>()));
  net_->run_until_idle();
  EXPECT_EQ(net_->trace().count("Gb_UnitData"), 0u);
}

TEST_F(GprsTest, PduNotificationDrivesNetworkInitiatedActivation) {
  IpAddress static_ip(10, 2, 0, 5);
  ggsn_->provision_static(id_.imsi, static_ip);
  user_->attach(sgsn_->id());
  net_->run_until_idle();

  // The GGSN control interface receives an activation request (as the
  // TR 23.821 gatekeeper would send).
  struct Requester final : public Node {
    using Node::Node;
    bool success = false;
    bool responded = false;
    void on_message(const Envelope& env) override {
      const auto* dgram = dynamic_cast<const IpDatagram*>(env.msg.get());
      if (dgram == nullptr) return;
      if (const auto* rsp = dynamic_cast<const GgsnActivationResponse*>(
              dgram->inner.get())) {
        responded = true;
        success = rsp->success;
      }
    }
  };
  auto& req = net_->add<Requester>("REQ");
  net_->connect(req, *router_, LinkProfile{});
  net_->register_ip(IpAddress(192, 168, 9, 1), req.id());

  GgsnActivationRequest act;
  act.imsi = id_.imsi;
  net_->send(req.id(), router_->id(),
             make_ip_datagram(IpAddress(192, 168, 9, 1),
                              IpAddress(10, 0, 0, 1),
                              std::make_shared<GgsnActivationRequest>(act)));
  net_->run_until_idle();

  // The SGSN forwarded a Request_PDP_Context_Activation to the user...
  bool saw_request = false;
  for (const auto& m : user_->history) {
    if (m->name() == "Request_PDP_Context_Activation") saw_request = true;
  }
  EXPECT_TRUE(saw_request);
  // ...but the GbUser stub never activates, so no response yet.
  EXPECT_FALSE(req.responded);

  // Complete the activation as the MS would.
  user_->activate(Nsapi(5), static_ip);
  net_->run_until_idle();
  EXPECT_TRUE(req.responded);
  EXPECT_TRUE(req.success);
  EXPECT_EQ(user_->addresses[5], static_ip);
}

TEST_F(GprsTest, ActivationRequestWithoutStaticAddressFails) {
  // No static address provisioned: network-initiated activation must be
  // refused (the paper's Section 6 point about TR 23.821).
  user_->attach(sgsn_->id());
  net_->run_until_idle();
  struct Requester final : public Node {
    using Node::Node;
    bool responded = false;
    bool success = true;
    void on_message(const Envelope& env) override {
      const auto* dgram = dynamic_cast<const IpDatagram*>(env.msg.get());
      if (dgram == nullptr) return;
      if (const auto* rsp = dynamic_cast<const GgsnActivationResponse*>(
              dgram->inner.get())) {
        responded = true;
        success = rsp->success;
      }
    }
  };
  auto& req = net_->add<Requester>("REQ");
  net_->connect(req, *router_, LinkProfile{});
  net_->register_ip(IpAddress(192, 168, 9, 1), req.id());
  GgsnActivationRequest act;
  act.imsi = id_.imsi;
  net_->send(req.id(), router_->id(),
             make_ip_datagram(IpAddress(192, 168, 9, 1),
                              IpAddress(10, 0, 0, 1),
                              std::make_shared<GgsnActivationRequest>(act)));
  net_->run_until_idle();
  EXPECT_TRUE(req.responded);
  EXPECT_FALSE(req.success);
}

}  // namespace
}  // namespace vgprs
