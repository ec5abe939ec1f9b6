#include "tr23821/tr_scenario.hpp"

#include <algorithm>

#include "vgprs/scenario.hpp"

namespace vgprs {

std::unique_ptr<TrScenario> build_tr23821(const TrParams& p) {
  register_all_messages();
  auto s = std::make_unique<TrScenario>(p.seed);
  Network& net = s->net;
  const LatencyConfig& L = p.latency;

  s->hlr = &net.add<Hlr>("HLR");
  s->sgsn = &net.add<Sgsn>("SGSN", Sgsn::Config{"GGSN", "HLR"});
  Ggsn::Config gc;
  gc.router_name = "Router";
  gc.hlr_name = "HLR";
  s->ggsn = &net.add<Ggsn>("GGSN", gc);
  s->router = &net.add<IpRouter>("Router");
  s->gk = &net.add<TrGatekeeper>(
      "GK", IpAddress(192, 168, 1, 1), "Router",
      TrGatekeeper::TrConfig{"HLR", gc.ggsn_address});

  net.connect(*s->sgsn, *s->ggsn, L.link(L.gn, "Gn"));
  net.connect(*s->sgsn, *s->hlr, L.link(L.gr, "Gr"));
  net.connect(*s->ggsn, *s->hlr, L.link(L.gc, "Gc"));
  net.connect(*s->ggsn, *s->router, L.link(L.gi, "Gi"));
  net.connect(*s->gk, *s->router, L.link(L.ip, "IP"));
  // The TR gatekeeper's MAP access to the HLR — the network modification
  // the paper's Section 6 calls out.
  net.connect(*s->gk, *s->hlr, L.link(L.d, "MAP"));

  for (std::uint32_t i = 0; i < p.num_ms; ++i) {
    SubscriberIdentity id = make_subscriber(p.country_code, i + 1);
    // 10.2.0.1 upward, carrying into the higher octets: MS #257 must not
    // reuse MS #1's address.
    const IpAddress static_ip(IpAddress(10, 2, 0, 0).value() + i + 1);
    SubscriberProfile profile;
    profile.msisdn = id.msisdn;
    profile.static_pdp_address = static_ip;
    s->hlr->provision(id.imsi, id.ki, profile);
    s->ggsn->provision_static(id.imsi, static_ip);

    TrMobileStation::Config mc;
    mc.imsi = id.imsi;
    mc.msisdn = id.msisdn;
    mc.static_pdp_address = static_ip;
    mc.sgsn_name = "SGSN";
    mc.gk_ip = IpAddress(192, 168, 1, 1);
    mc.deactivate_pdp_when_idle = p.deactivate_pdp_when_idle;
    auto& ms = net.add<TrMobileStation>("TR-MS" + std::to_string(i + 1), mc);
    // The packet radio path (Um PS + PCU + Gb): higher latency and
    // queueing jitter than the dedicated circuit-switched channel.
    LinkProfile radio;
    radio.latency = L.um_packet;
    radio.jitter = L.um_packet_jitter;
    radio.label = "Um-PS";
    net.connect(ms, *s->sgsn, radio);
    s->ms.push_back(&ms);
  }

  for (std::uint32_t i = 0; i < p.num_terminals; ++i) {
    H323Terminal::Config tc;
    // Counted up from 192.168.1.10 like build_vgprs's terminals.
    tc.ip = IpAddress(IpAddress(192, 168, 1, 10).value() + i);
    tc.alias = make_subscriber(p.country_code, 1000 + i).msisdn;
    tc.gk_ip = IpAddress(192, 168, 1, 1);
    tc.router_name = "Router";
    auto& term = net.add<H323Terminal>("TERM" + std::to_string(i + 1), tc);
    net.connect(term, *s->router, L.link(L.ip, "IP"));
    s->terminals.push_back(&term);
  }

  if (p.sharded) {
    // The planner's default core is the max-degree node — here the SGSN,
    // which every MS hangs off directly.  The fixed side (HLR/GGSN/Router/
    // GK/terminals) packs into one bin and the MS leaves are dealt across
    // the rest.  Lookahead = 2 ms (Gn); the MS<->SGSN radio hop is 40 ms.
    const std::uint32_t cells = std::max(1u, p.num_cells);
    net.set_shards(net.plan_shards(cells + 2));
    net.set_workers(p.workers);
  }

  return s;
}

}  // namespace vgprs
