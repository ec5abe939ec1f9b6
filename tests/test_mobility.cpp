// Mobility beyond a single registration: movement-triggered location
// update (paper Section 3: "The registration procedure for MS movement is
// similar"), IMSI detach, and inter-VMSC movement with full cleanup (HLR
// cancellation -> old VLR -> old VMSC -> GPRS detach + gatekeeper
// unregistration).
#include <gtest/gtest.h>

#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

/// Extends the standard scenario with a second cell on the same BSC, and a
/// complete second VMSC area (own VLR, BSC, BTS) sharing HLR, GPRS core
/// and gatekeeper — a subscriber can move between areas.
struct TwoAreaWorld {
  std::unique_ptr<VgprsScenario> s;
  Bts* bts1b = nullptr;   // second cell of area 1
  Vlr* vlr2 = nullptr;    // area 2
  Bsc* bsc2 = nullptr;
  Bts* bts2 = nullptr;
  Vmsc* vmsc2 = nullptr;

  TwoAreaWorld() {
    VgprsParams params;
    s = build_vgprs(params);
    Network& net = s->net;
    const LatencyConfig L;

    bts1b = &net.add<Bts>("BTS-1b", CellId(102), LocationAreaId(10), "BSC");
    s->bsc->adopt_bts(*bts1b);
    s->vmsc->adopt_cell(CellId(102), "BSC");
    net.connect(*bts1b, *s->bsc, L.link(L.abis, "Abis"));

    vlr2 = &net.add<Vlr>("VLR2", Vlr::Config{"HLR", 88, 8'899'100});
    bsc2 = &net.add<Bsc>("BSC2", Bsc::Config{"VMSC2", 64, 64});
    bts2 = &net.add<Bts>("BTS2", CellId(201), LocationAreaId(20), "BSC2");
    bsc2->adopt_bts(*bts2);
    Vmsc::VmscConfig vc;
    vc.base = MscBase::Config{"VLR2", true, true, true};
    vc.sgsn_name = "SGSN";
    vc.gk_ip = IpAddress(192, 168, 1, 1);
    vmsc2 = &net.add<Vmsc>("VMSC2", vc);
    vmsc2->adopt_cell(CellId(201), "BSC2");
    net.connect(*bts2, *bsc2, L.link(L.abis, "Abis"));
    net.connect(*bsc2, *vmsc2, L.link(L.a, "A"));
    net.connect(*vmsc2, *vlr2, L.link(L.b, "B"));
    net.connect(*vlr2, *s->hlr, L.link(L.d, "D"));
    net.connect(*vmsc2, *s->sgsn, L.link(L.gb, "Gb"));
    // The roaming MS can reach every cell.
    net.connect(*s->ms[0], *bts1b, L.link(L.um, "Um"));
    net.connect(*s->ms[0], *bts2, L.link(L.um, "Um"));
  }
};

TEST(MobilityTest, MovementLocationUpdateWithinVmsc) {
  TwoAreaWorld w;
  MobileStation& ms = *w.s->ms[0];
  ms.power_on();
  w.s->settle();
  ASSERT_EQ(ms.state(), MobileStation::State::kIdle);
  Tmsi old_tmsi = ms.tmsi();
  std::size_t pdp_before = w.s->sgsn->pdp_context_count();

  w.s->net.trace().clear();
  int registrations = 0;
  ms.on_registered = [&] { ++registrations; };
  ms.move_to("BTS-1b");
  w.s->settle();

  EXPECT_EQ(registrations, 1);
  EXPECT_EQ(ms.state(), MobileStation::State::kIdle);
  // Movement LU identifies with the TMSI (step 1.1 note in the paper).
  EXPECT_EQ(w.s->net.trace().count("Um_Location_Update_Request"), 1u);
  // Same VMSC: the GPRS/H.323 substrate is NOT re-run — the paper's MS
  // table already holds the MM and PDP contexts.
  EXPECT_EQ(w.s->net.trace().count("GPRS_Attach_Request"), 0u);
  EXPECT_EQ(w.s->net.trace().count(FlowStep{"GGSN", "IP_Datagram", "Router"}),
            0u);
  EXPECT_EQ(w.s->sgsn->pdp_context_count(), pdp_before);
  // A fresh TMSI is assigned by the VLR.
  EXPECT_NE(ms.tmsi(), old_tmsi);

  // Calls still work from the new cell.
  w.s->terminals[0]->register_endpoint();
  w.s->settle();
  bool connected = false;
  ms.on_connected = [&](CallRef) { connected = true; };
  ms.dial(make_subscriber(88, 1000).msisdn);
  w.s->settle();
  EXPECT_TRUE(connected);
}

TEST(MobilityTest, TerminatingCallAfterMoveWithinBsc) {
  // Pages follow what each BTS learned from uplink traffic; the new cell
  // learns the MS from its movement location update.
  TwoAreaWorld w;
  MobileStation& ms = *w.s->ms[0];
  ms.power_on();
  w.s->terminals[0]->register_endpoint();
  w.s->settle();
  ms.move_to("BTS-1b");
  w.s->settle();
  ASSERT_EQ(ms.state(), MobileStation::State::kIdle);

  w.s->net.trace().clear();
  bool connected = false;
  ms.on_connected = [&](CallRef) { connected = true; };
  w.s->terminals[0]->place_call(ms.config().msisdn);
  w.s->settle();
  EXPECT_TRUE(connected);
  EXPECT_EQ(ms.state(), MobileStation::State::kConnected);
  EXPECT_EQ(w.s->net.trace().count(
                FlowStep{"BTS-1b", "Um_Paging_Request", ms.name()}),
            1u);
}

TEST(MobilityTest, InterVmscMoveCleansUpOldArea) {
  TwoAreaWorld w;
  MobileStation& ms = *w.s->ms[0];
  ms.power_on();
  w.s->settle();
  ASSERT_EQ(ms.state(), MobileStation::State::kIdle);
  ASSERT_NE(w.s->vlr->visitor(ms.config().imsi), nullptr);
  auto reg1 = w.s->gk->find_alias(ms.config().msisdn);
  ASSERT_TRUE(reg1.has_value());

  // Drive into VMSC2's area.
  int registrations = 0;
  ms.on_registered = [&] { ++registrations; };
  ms.move_to("BTS2");
  w.s->settle();
  EXPECT_EQ(registrations, 1);
  EXPECT_EQ(ms.state(), MobileStation::State::kIdle);

  // New area owns the subscriber...
  EXPECT_NE(w.vlr2->visitor(ms.config().imsi), nullptr);
  EXPECT_EQ(w.s->hlr->record(ms.config().imsi)->vlr_name, "VLR2");
  ASSERT_NE(w.vmsc2->vgprs_state(ms.config().imsi), nullptr);
  EXPECT_EQ(w.vmsc2->vgprs_state(ms.config().imsi)->phase,
            Vmsc::VgprsState::Phase::kReady);
  // ...the old area is fully cleaned: VLR record cancelled, VMSC MS-table
  // entry gone, old VMSC's GPRS/H.323 state released.
  EXPECT_EQ(w.s->vlr->visitor(ms.config().imsi), nullptr);
  EXPECT_EQ(w.s->vmsc->context_of(ms.config().imsi), nullptr);
  EXPECT_EQ(w.s->vmsc->vgprs_state(ms.config().imsi), nullptr);
  // The gatekeeper follows the subscriber: same alias, new transport
  // (the new VMSC's signaling context address).
  auto reg2 = w.s->gk->find_alias(ms.config().msisdn);
  ASSERT_TRUE(reg2.has_value());
  EXPECT_EQ(reg2->transport.ip(),
            w.vmsc2->vgprs_state(ms.config().imsi)->signaling_ip);
  EXPECT_NE(reg2->transport, reg1->transport);
  // Exactly one signaling context remains at the SGSN (the new VMSC's).
  EXPECT_EQ(w.s->sgsn->pdp_context_count(), 1u);

  // An incoming call now terminates through VMSC2.
  w.s->terminals[0]->register_endpoint();
  w.s->settle();
  bool connected = false;
  ms.on_connected = [&](CallRef) { connected = true; };
  w.s->terminals[0]->place_call(ms.config().msisdn);
  w.s->settle();
  EXPECT_TRUE(connected);
  EXPECT_GE(w.s->net.trace().count(FlowStep{"VMSC2", "A_Paging", "BSC2"}),
            1u);
}

TEST(MobilityTest, PowerOffDetachesAndUnregisters) {
  TwoAreaWorld w;
  MobileStation& ms = *w.s->ms[0];
  ms.power_on();
  w.s->settle();
  ASSERT_EQ(w.s->sgsn->pdp_context_count(), 1u);
  ASSERT_TRUE(w.s->gk->find_alias(ms.config().msisdn).has_value());

  w.s->net.trace().clear();
  ms.power_off();
  w.s->settle();
  EXPECT_EQ(ms.state(), MobileStation::State::kDetached);
  // IMSI detach propagated and the vGPRS substrate was torn down.
  EXPECT_EQ(w.s->net.trace().count("Um_IMSI_Detach"), 1u);
  EXPECT_EQ(w.s->sgsn->pdp_context_count(), 0u);
  EXPECT_EQ(w.s->sgsn->attached_count(), 0u);
  EXPECT_FALSE(w.s->gk->find_alias(ms.config().msisdn).has_value());
  EXPECT_EQ(w.s->vmsc->context_of(ms.config().imsi), nullptr);

  // Calls to the detached subscriber fail cleanly at admission.
  w.s->terminals[0]->register_endpoint();
  w.s->settle();
  bool released = false;
  w.s->terminals[0]->on_released = [&](CallRef) { released = true; };
  w.s->terminals[0]->place_call(ms.config().msisdn);
  w.s->settle();
  EXPECT_TRUE(released);
  EXPECT_EQ(w.s->terminals[0]->state(), H323Terminal::State::kRegistered);
}

TEST(MobilityTest, PowerCycleReattaches) {
  TwoAreaWorld w;
  MobileStation& ms = *w.s->ms[0];
  ms.power_on();
  w.s->settle();
  ms.power_off();
  w.s->settle();
  ASSERT_EQ(w.s->sgsn->pdp_context_count(), 0u);

  ms.power_on();
  w.s->settle();
  EXPECT_EQ(ms.state(), MobileStation::State::kIdle);
  EXPECT_EQ(w.s->sgsn->pdp_context_count(), 1u);
  EXPECT_TRUE(w.s->gk->find_alias(ms.config().msisdn).has_value());
}

TEST(MobilityTest, PowerOffDuringCallReleasesFirst) {
  TwoAreaWorld w;
  MobileStation& ms = *w.s->ms[0];
  ms.power_on();
  w.s->terminals[0]->register_endpoint();
  w.s->settle();
  ms.dial(make_subscriber(88, 1000).msisdn);
  w.s->settle();
  ASSERT_EQ(ms.state(), MobileStation::State::kConnected);

  w.s->net.trace().clear();
  w.s->net.spans().set_enabled(true);
  ms.power_off();
  w.s->settle();
  EXPECT_EQ(ms.state(), MobileStation::State::kDetached);
  EXPECT_EQ(w.s->terminals[0]->state(), H323Terminal::State::kRegistered);
  EXPECT_EQ(w.s->sgsn->pdp_context_count(), 0u);
  // Nothing is lost on this network, so nothing may be resent: the voice
  // context's deactivation is sent once and its exchange ends with the
  // subscriber, not in copies to nobody and a give-up.  Its span closes
  // then, as abandoned.
  EXPECT_EQ(w.s->net.metrics().counter("recovery/retransmits"), 0);
  EXPECT_EQ(w.s->net.metrics().counter("recovery/give_ups"), 0);
  EXPECT_EQ(w.s->net.trace().count("Deactivate_PDP_Context_Request"), 1u);
  EXPECT_EQ(w.s->net.spans().count(SpanKind::kPdpDeactivation,
                                   SpanOutcome::kRejected),
            1u);
  // The detach leaves the voice context to its in-flight delete, which
  // answers the VMSC; the VMSC drops that answer for the subscriber it
  // already forgot instead of re-creating its entry.
  std::size_t voice_deletes = 0;
  std::size_t voice_deactivate_accepts = 0;
  w.s->net.trace().for_each([&](const TraceEntry& e) {
    if (const auto* d = msg_cast<GtpDeletePdpContextRequest>(e.msg)) {
      voice_deletes += d->nsapi == Nsapi(6) ? 1 : 0;
    }
    if (const auto* a = msg_cast<DeactivatePdpContextAccept>(e.msg)) {
      voice_deactivate_accepts += a->nsapi == Nsapi(6) ? 1 : 0;
    }
  });
  EXPECT_EQ(voice_deletes, 1u);
  EXPECT_EQ(voice_deactivate_accepts, 1u);
  EXPECT_EQ(w.s->vmsc->vgprs_state(ms.config().imsi), nullptr);
  // Powering off abandons the release hangup() began: its span closes.
  EXPECT_EQ(w.s->net.spans().open_count(), 0u)
      << w.s->net.spans().open_to_string();
}

}  // namespace
}  // namespace vgprs
