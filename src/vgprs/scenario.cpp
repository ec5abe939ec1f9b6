#include "vgprs/scenario.hpp"

#include <algorithm>
#include <initializer_list>
#include <mutex>

#include "gsm/messages.hpp"
#include "gprs/data_ms.hpp"
#include "gprs/messages.hpp"
#include "h323/messages.hpp"
#include "pstn/messages.hpp"
#include "voice/rtp.hpp"

namespace vgprs {

void register_all_messages() {
  // Once-guarded: scenario builders run concurrently inside ParallelSweep
  // workers, and the registry must not be mutated while another thread
  // decodes through it.
  static std::once_flag once;
  std::call_once(once, [] {
    register_gsm_messages();
    register_data_messages();
    register_gprs_messages();
    register_h323_messages();
    register_pstn_messages();
    register_voice_messages();
  });
}

SubscriberIdentity make_subscriber(std::uint16_t country_code,
                                   std::uint32_t index) {
  SubscriberIdentity id;
  // IMSI: 15 digits, leading MCC-like field derived from the country code.
  id.imsi = Imsi(std::uint64_t{country_code} * 10'000'000'000'000ULL +
                     4'669'000'000ULL + index,
                 15);
  // MSISDN: 12 digits, <cc> 09 xxxxxxxx.
  id.msisdn = Msisdn(std::uint64_t{country_code} * 10'000'000'000ULL +
                         900'000'000ULL + index,
                     12);
  // SIM key: deterministic mix of the IMSI.
  std::uint64_t z = id.imsi.value() + 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  id.ki = z ^ (z >> 31);
  return id;
}

// ---------------------------------------------------------------------------

std::unique_ptr<VgprsScenario> build_vgprs(const VgprsParams& p) {
  register_all_messages();
  auto s = std::make_unique<VgprsScenario>(p.seed);
  Network& net = s->net;
  const LatencyConfig& L = p.latency;

  const std::uint32_t cells = std::max(1u, p.num_cells);

  s->hlr = &net.add<Hlr>("HLR");
  s->vlr = &net.add<Vlr>(
      "VLR", Vlr::Config{"HLR", p.country_code,
                         std::uint64_t{p.country_code} * 100'000 + 99'000});
  for (std::uint32_t c = 0; c < cells; ++c) {
    // One cell keeps the legacy names so existing flow tests and goldens
    // see the exact Fig. 2(b) topology.
    const std::string suffix = cells == 1 ? "" : std::to_string(c + 1);
    auto& bsc = net.add<Bsc>(
        "BSC" + suffix,
        Bsc::Config{"VMSC", static_cast<std::uint16_t>(p.bsc_channels),
                    static_cast<std::uint16_t>(p.bsc_channels)});
    auto& bts = net.add<Bts>("BTS" + suffix, CellId(101 + c),
                             LocationAreaId(10 + c), "BSC" + suffix);
    s->bscs.push_back(&bsc);
    s->btss.push_back(&bts);
  }
  s->bsc = s->bscs.front();
  s->bts = s->btss.front();
  Vmsc::VmscConfig vc;
  vc.base = MscBase::Config{"VLR", p.authenticate_registration,
                            p.authenticate_calls, p.ciphering};
  vc.sgsn_name = "SGSN";
  vc.gk_ip = IpAddress(192, 168, 1, 1);
  vc.deactivate_pdp_when_idle = p.deactivate_pdp_when_idle;
  s->vmsc = &net.add<Vmsc>("VMSC", vc);
  s->sgsn = &net.add<Sgsn>("SGSN", Sgsn::Config{"GGSN", "HLR"});
  Ggsn::Config gc;
  gc.router_name = "Router";
  gc.hlr_name = "HLR";
  s->ggsn = &net.add<Ggsn>("GGSN", gc);
  s->router = &net.add<IpRouter>("Router");
  s->gk = &net.add<Gatekeeper>("GK", IpAddress(192, 168, 1, 1), "Router");

  for (std::uint32_t c = 0; c < cells; ++c) {
    s->bscs[c]->adopt_bts(*s->btss[c]);
    s->vmsc->adopt_cell(CellId(101 + c), s->bscs[c]->name());
    net.connect(*s->btss[c], *s->bscs[c], L.link(L.abis, "Abis"));
    net.connect(*s->bscs[c], *s->vmsc, L.link(L.a, "A"));
  }
  net.connect(*s->vmsc, *s->vlr, L.link(L.b, "B"));
  net.connect(*s->vlr, *s->hlr, L.link(L.d, "D"));
  net.connect(*s->vmsc, *s->sgsn, L.link(L.gb, "Gb"));
  net.connect(*s->sgsn, *s->ggsn, L.link(L.gn, "Gn"));
  net.connect(*s->sgsn, *s->hlr, L.link(L.gr, "Gr"));
  net.connect(*s->ggsn, *s->hlr, L.link(L.gc, "Gc"));
  net.connect(*s->ggsn, *s->router, L.link(L.gi, "Gi"));
  net.connect(*s->gk, *s->router, L.link(L.ip, "IP"));

  for (std::uint32_t i = 0; i < p.num_ms; ++i) {
    SubscriberIdentity id = make_subscriber(p.country_code, i + 1);
    SubscriberProfile profile;
    profile.msisdn = id.msisdn;
    s->hlr->provision(id.imsi, id.ki, profile);
    Bts& home_bts = *s->btss[i % cells];  // round-robin over the cells
    MobileStation::Config mc;
    mc.imsi = id.imsi;
    mc.msisdn = id.msisdn;
    mc.ki = id.ki;
    mc.bts_name = home_bts.name();
    auto& ms = net.add<MobileStation>("MS" + std::to_string(i + 1), mc);
    net.connect(ms, home_bts, L.link(L.um, "Um"));
    s->ms.push_back(&ms);
  }

  for (std::uint32_t i = 0; i < p.num_terminals; ++i) {
    H323Terminal::Config tc;
    // Counted up from 192.168.1.10, carrying into the higher octets, so
    // terminal #248 does not wrap onto the gatekeeper's 192.168.1.1.
    tc.ip = IpAddress(IpAddress(192, 168, 1, 10).value() + i);
    tc.alias = make_subscriber(p.country_code, 1000 + i).msisdn;
    tc.gk_ip = IpAddress(192, 168, 1, 1);
    tc.router_name = "Router";
    auto& term =
        net.add<H323Terminal>("TERM" + std::to_string(i + 1), tc);
    net.connect(term, *s->router, L.link(L.ip, "IP"));
    s->terminals.push_back(&term);
  }

  if (p.sharded) {
    if (cells == 1) {
      // The exact Fig. 2(b) golden topology keeps the canonical seam plan:
      // the goldens pin creation-order tie-breaks (GK and the terminals
      // must share a shard or same-microsecond IP datagrams reorder), and
      // with one cell there is no load to balance anyway.  Lookahead =
      // 2 ms (the A and Gn interfaces).
      std::vector<std::vector<NodeId>> groups;
      groups.emplace_back();  // 0: CS core — VMSC/VLR/HLR and anything unlisted
      groups.push_back({s->sgsn->id()});
      groups.push_back({s->ggsn->id(), s->router->id()});
      std::vector<NodeId> h323{s->gk->id()};
      for (H323Terminal* t : s->terminals) h323.push_back(t->id());
      groups.push_back(std::move(h323));
      std::vector<NodeId> cell{s->bscs[0]->id(), s->btss[0]->id()};
      for (MobileStation* m : s->ms) cell.push_back(m->id());
      groups.push_back(std::move(cell));
      net.set_shards(groups);
    } else {
      // Multi-cell: let the topology-aware planner balance the per-cell
      // BSS subtrees and the PS/H.323 side across shards by estimated
      // event rate.  Pinning the CS core (VMSC/VLR/HLR) keeps the seams on
      // the A and Gb interfaces, so the lookahead stays the minimum
      // cross-shard latency: 2 ms.
      const NodeId core[] = {s->vmsc->id(), s->vlr->id(), s->hlr->id()};
      net.set_shards(net.plan_shards(cells + 4, core));
    }
    net.set_workers(p.workers);
  }

  return s;
}

// ---------------------------------------------------------------------------

std::unique_ptr<TrombScenario> build_tromboning(const TrombParams& p) {
  register_all_messages();
  auto s = std::make_unique<TrombScenario>(p.seed);
  Network& net = s->net;
  const LatencyConfig& L = p.latency;

  // --- UK home network ------------------------------------------------------
  s->hlr_uk = &net.add<Hlr>("HLR-UK");
  s->switch_uk = &net.add<PstnSwitch>("PSTN-UK");
  GsmMsc::MscConfig gmsc_cfg;
  gmsc_cfg.base = MscBase::Config{"VLR-HK", false, false, false};
  gmsc_cfg.pstn_name = "PSTN-UK";
  gmsc_cfg.hlr_name = "HLR-UK";
  gmsc_cfg.gmsc_role = true;
  s->gmsc_uk = &net.add<GsmMsc>("GMSC-UK", gmsc_cfg);
  net.connect(*s->gmsc_uk, *s->switch_uk, L.link(L.isup, "ISUP"));
  net.connect(*s->gmsc_uk, *s->hlr_uk, L.link(L.d, "C"));

  // --- HK visited network ----------------------------------------------------
  s->switch_hk = &net.add<PstnSwitch>("PSTN-HK");
  // The HK VLR reaches the roamer's home HLR over an international SS7 hop.
  s->vlr_hk = &net.add<Vlr>("VLR-HK",
                            Vlr::Config{"HLR-UK", 85, 8'599'000});
  s->bsc_hk = &net.add<Bsc>(
      "BSC-HK",
      Bsc::Config{p.use_vgprs && p.roamer_registered ? "VMSC-HK" : "MSC-HK",
                  64, 64});
  s->bts_hk =
      &net.add<Bts>("BTS-HK", CellId(201), LocationAreaId(20), "BSC-HK");
  s->bsc_hk->adopt_bts(*s->bts_hk);
  net.connect(*s->bts_hk, *s->bsc_hk, L.link(L.abis, "Abis"));
  net.connect(*s->vlr_hk, *s->hlr_uk, L.link(L.d_intl, "D-intl"));

  // Classic serving MSC (used in the GSM flavour, and as the fallback CS
  // network in the vGPRS flavour when the roamer is not at the local GK).
  GsmMsc::MscConfig msc_cfg;
  msc_cfg.base = MscBase::Config{"VLR-HK", true, true, true};
  msc_cfg.pstn_name = "PSTN-HK";
  msc_cfg.hlr_name = "HLR-UK";
  msc_cfg.msrn_prefix = 8'599'000;
  s->msc_hk = &net.add<GsmMsc>("MSC-HK", msc_cfg);
  net.connect(*s->msc_hk, *s->switch_hk, L.link(L.isup, "ISUP"));
  net.connect(*s->msc_hk, *s->vlr_hk, L.link(L.b, "B"));
  net.connect(*s->bsc_hk, *s->msc_hk, L.link(L.a, "A"));
  s->msc_hk->adopt_cell(CellId(201), "BSC-HK");

  // --- international PSTN routing ---------------------------------------------
  // y dials x's UK number: +44 909 000 0001.
  s->roamer_id = make_subscriber(44, 1);
  s->switch_uk->add_route("44", "GMSC-UK", TrunkClass::kNational);
  s->switch_uk->add_route("85", "PSTN-HK", TrunkClass::kInternational);
  s->switch_hk->add_route("8599", "MSC-HK", TrunkClass::kLocal);
  net.connect(*s->switch_uk, *s->switch_hk,
              L.link(L.intl_trunk, "intl-trunk"));

  SubscriberProfile profile;
  profile.msisdn = s->roamer_id.msisdn;
  s->hlr_uk->provision(s->roamer_id.imsi, s->roamer_id.ki, profile);

  // --- the roamer x and the caller y -------------------------------------------
  MobileStation::Config xc;
  xc.imsi = s->roamer_id.imsi;
  xc.msisdn = s->roamer_id.msisdn;
  xc.ki = s->roamer_id.ki;
  xc.bts_name = "BTS-HK";
  s->roamer = &net.add<MobileStation>("MS-x", xc);
  net.connect(*s->roamer, *s->bts_hk, L.link(L.um, "Um"));

  PstnPhone::Config yc;
  yc.number = Msisdn(852'210'000'01ULL, 11);
  yc.switch_name = "PSTN-HK";
  s->caller = &net.add<PstnPhone>("PHONE-y", yc);
  net.connect(*s->caller, *s->switch_hk, L.link(L.isup, "line"));
  s->switch_hk->attach_subscriber(yc.number, "PHONE-y");

  // UK home side (implicit shard 0) / HK core / HK BSS subtree.  Must run
  // before any stimulus (the gateway registration below enqueues events).
  // Manual plan, not plan_shards: with the UK side as core the whole HK
  // deployment is one connected component, so the planner could not split
  // the BSS subtree off the HK core the way the fig7/fig8 goldens expect.
  auto apply_shards = [&] {
    if (!p.sharded) return;
    std::vector<std::vector<NodeId>> groups;
    groups.emplace_back();  // UK side + international exchanges
    std::vector<NodeId> hk{s->switch_hk->id(), s->vlr_hk->id(),
                           s->msc_hk->id(), s->caller->id()};
    for (Node* n :
         std::initializer_list<Node*>{s->vmsc_hk, s->sgsn_hk, s->ggsn_hk,
                                      s->router_hk, s->gk_hk,
                                      s->switch_hk_intl, s->gw_hk}) {
      if (n != nullptr) hk.push_back(n->id());
    }
    groups.push_back(std::move(hk));
    groups.push_back(
        {s->bsc_hk->id(), s->bts_hk->id(), s->roamer->id()});
    net.set_shards(groups);
    net.set_workers(p.workers);
  };

  if (!p.use_vgprs) {
    // Fig. 7: the call to +44... leaves HK on an international trunk.
    s->switch_hk->add_route("44", "PSTN-UK", TrunkClass::kInternational);
    apply_shards();
    return s;
  }

  // --- Fig. 8: vGPRS deployment in HK -------------------------------------------
  Vmsc::VmscConfig vc;
  vc.base = MscBase::Config{"VLR-HK", true, true, true};
  vc.sgsn_name = "SGSN-HK";
  vc.gk_ip = IpAddress(192, 168, 8, 1);
  s->vmsc_hk = &net.add<Vmsc>("VMSC-HK", vc);
  s->sgsn_hk = &net.add<Sgsn>("SGSN-HK", Sgsn::Config{"GGSN-HK", "HLR-UK"});
  Ggsn::Config gc;
  gc.router_name = "Router-HK";
  gc.hlr_name = "HLR-UK";
  s->ggsn_hk = &net.add<Ggsn>("GGSN-HK", gc);
  s->router_hk = &net.add<IpRouter>("Router-HK");
  s->gk_hk =
      &net.add<Gatekeeper>("GK-HK", IpAddress(192, 168, 8, 1), "Router-HK");
  net.connect(*s->vmsc_hk, *s->vlr_hk, L.link(L.b, "B"));
  net.connect(*s->vmsc_hk, *s->sgsn_hk, L.link(L.gb, "Gb"));
  net.connect(*s->sgsn_hk, *s->ggsn_hk, L.link(L.gn, "Gn"));
  net.connect(*s->sgsn_hk, *s->hlr_uk, L.link(L.d_intl, "Gr-intl"));
  net.connect(*s->ggsn_hk, *s->hlr_uk, L.link(L.d_intl, "Gc-intl"));
  net.connect(*s->ggsn_hk, *s->router_hk, L.link(L.gi, "Gi"));
  net.connect(*s->gk_hk, *s->router_hk, L.link(L.ip, "IP"));
  s->vmsc_hk->adopt_cell(CellId(201), "BSC-HK");
  if (p.roamer_registered) {
    net.connect(*s->bsc_hk, *s->vmsc_hk, L.link(L.a, "A"));
  }

  // The local telephone company routes calls to UK numbers VoIP-first,
  // through the H.323 gateway; international fallback goes through the
  // gateway exchange.
  s->switch_hk_intl = &net.add<PstnSwitch>("PSTN-HK-INTL");
  s->switch_hk_intl->add_route("44", "PSTN-UK", TrunkClass::kInternational);
  net.connect(*s->switch_hk_intl, *s->switch_uk,
              L.link(L.intl_trunk, "intl-trunk"));

  H323Gateway::Config gwc;
  gwc.ip = IpAddress(192, 168, 8, 20);
  gwc.service_alias = Msisdn(852'990'000'00ULL, 11);
  gwc.gk_ip = IpAddress(192, 168, 8, 1);
  gwc.router_name = "Router-HK";
  gwc.pstn_name = "PSTN-HK";
  gwc.fallback_pstn_name = "PSTN-HK-INTL";
  s->gw_hk = &net.add<H323Gateway>("GW-HK", gwc);
  net.connect(*s->gw_hk, *s->switch_hk, L.link(L.isup, "ISUP"));
  net.connect(*s->gw_hk, *s->switch_hk_intl, L.link(L.isup, "ISUP"));
  net.connect(*s->gw_hk, *s->router_hk, L.link(L.ip, "IP"));
  s->switch_hk->add_route("44", "GW-HK", TrunkClass::kLocal);
  apply_shards();
  s->gw_hk->register_endpoint();

  return s;
}

// ---------------------------------------------------------------------------

std::unique_ptr<HandoffScenario> build_handoff(const HandoffParams& p) {
  register_all_messages();
  auto s = std::make_unique<HandoffScenario>(p.seed);
  Network& net = s->net;
  const LatencyConfig& L = p.latency;

  s->hlr = &net.add<Hlr>("HLR");
  s->vlr = &net.add<Vlr>("VLR", Vlr::Config{"HLR", 88, 8'899'000});
  s->bsc1 = &net.add<Bsc>("BSC1", Bsc::Config{"VMSC", 64, 64});
  s->bts1 = &net.add<Bts>("BTS1", CellId(101), LocationAreaId(10), "BSC1");
  Vmsc::VmscConfig vc;
  vc.base = MscBase::Config{"VLR", true, true, true};
  vc.sgsn_name = "SGSN";
  vc.gk_ip = IpAddress(192, 168, 1, 1);
  s->vmsc = &net.add<Vmsc>("VMSC", vc);
  s->sgsn = &net.add<Sgsn>("SGSN", Sgsn::Config{"GGSN", "HLR"});
  Ggsn::Config gc;
  gc.router_name = "Router";
  gc.hlr_name = "HLR";
  s->ggsn = &net.add<Ggsn>("GGSN", gc);
  s->router = &net.add<IpRouter>("Router");
  s->gk = &net.add<Gatekeeper>("GK", IpAddress(192, 168, 1, 1), "Router");

  s->bsc1->adopt_bts(*s->bts1);
  s->vmsc->adopt_cell(CellId(101), "BSC1");
  net.connect(*s->bts1, *s->bsc1, L.link(L.abis, "Abis"));
  net.connect(*s->bsc1, *s->vmsc, L.link(L.a, "A"));
  net.connect(*s->vmsc, *s->vlr, L.link(L.b, "B"));
  net.connect(*s->vlr, *s->hlr, L.link(L.d, "D"));
  net.connect(*s->vmsc, *s->sgsn, L.link(L.gb, "Gb"));
  net.connect(*s->sgsn, *s->ggsn, L.link(L.gn, "Gn"));
  net.connect(*s->sgsn, *s->hlr, L.link(L.gr, "Gr"));
  net.connect(*s->ggsn, *s->hlr, L.link(L.gc, "Gc"));
  net.connect(*s->ggsn, *s->router, L.link(L.gi, "Gi"));
  net.connect(*s->gk, *s->router, L.link(L.ip, "IP"));

  // Target-side BSS + MSC-B (classic GSM, or a second VMSC: the paper notes
  // the VMSC-VMSC handoff follows the same procedure).
  const char* msc_b_name = p.target_is_vmsc ? "VMSC-B" : "MSC-B";
  s->bsc2 = &net.add<Bsc>("BSC2", Bsc::Config{msc_b_name, 64, 64});
  s->bts2 = &net.add<Bts>("BTS2", CellId(202), LocationAreaId(20), "BSC2");
  s->bsc2->adopt_bts(*s->bts2);
  if (p.target_is_vmsc) {
    Vmsc::VmscConfig vb;
    vb.base = MscBase::Config{"VLR", true, true, true};
    vb.sgsn_name = "SGSN";
    vb.gk_ip = IpAddress(192, 168, 1, 1);
    Vmsc& b = net.add<Vmsc>(msc_b_name, vb);
    net.connect(b, *s->sgsn, L.link(L.gb, "Gb"));
    s->msc_b = &b;
  } else {
    GsmMsc::MscConfig mb;
    mb.base = MscBase::Config{"VLR", true, true, true};
    mb.hlr_name = "HLR";
    s->msc_b = &net.add<GsmMsc>(msc_b_name, mb);
  }
  s->msc_b->adopt_cell(CellId(202), "BSC2");
  s->vmsc->add_remote_cell(CellId(202), msc_b_name);
  net.connect(*s->bts2, *s->bsc2, L.link(L.abis, "Abis"));
  net.connect(*s->bsc2, *s->msc_b, L.link(L.a, "A"));
  net.connect(*s->vmsc, *s->msc_b, L.link(L.e, "E"));

  // Subscriber + terminal.
  SubscriberIdentity id = make_subscriber(88, 1);
  SubscriberProfile profile;
  profile.msisdn = id.msisdn;
  s->hlr->provision(id.imsi, id.ki, profile);
  MobileStation::Config mc;
  mc.imsi = id.imsi;
  mc.msisdn = id.msisdn;
  mc.ki = id.ki;
  mc.bts_name = "BTS1";
  s->ms = &net.add<MobileStation>("MS1", mc);
  s->ms->add_neighbor_bts(CellId(202), "BTS2");
  net.connect(*s->ms, *s->bts1, L.link(L.um, "Um"));
  net.connect(*s->ms, *s->bts2, L.link(L.um, "Um"));

  H323Terminal::Config tc;
  tc.ip = IpAddress(192, 168, 1, 10);
  tc.alias = make_subscriber(88, 1000).msisdn;
  tc.gk_ip = IpAddress(192, 168, 1, 1);
  tc.router_name = "Router";
  s->terminal = &net.add<H323Terminal>("TERM", tc);
  net.connect(*s->terminal, *s->router, L.link(L.ip, "IP"));

  if (p.sharded) {
    // Core (implicit) / anchor cell (with the MS) / target cell / MSC-B.
    // Manual plan, not plan_shards: the MS is wired to BOTH BTSs (that is
    // the handoff), which fuses the two cell subtrees into one connected
    // component the planner would keep whole.
    net.set_shards({{},
                    {s->bsc1->id(), s->bts1->id(), s->ms->id()},
                    {s->bsc2->id(), s->bts2->id()},
                    {s->msc_b->id()}});
    net.set_workers(p.workers);
  }

  return s;
}

}  // namespace vgprs
