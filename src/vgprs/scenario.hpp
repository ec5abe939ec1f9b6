// Scenario builders: wire complete vGPRS networks matching the paper's
// figures so tests, benches and examples share one topology definition.
//
//  * build_vgprs():      the Fig. 2(b) single-PLMN network — MS(s), BTS,
//                        BSC, VMSC, VLR, HLR, SGSN, GGSN, IP cloud,
//                        gatekeeper, H.323 terminal(s).
//  * build_tromboning(): the two-country roaming scenario of Figs. 7-8,
//                        in classic-GSM or vGPRS flavour.
//  * build_handoff():    Fig. 9 — vGPRS network plus a neighbouring classic
//                        GSM MSC-B with its own BSS and an E interface.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gprs/ggsn.hpp"
#include "gprs/sgsn.hpp"
#include "gsm/bsc.hpp"
#include "gsm/bts.hpp"
#include "gsm/hlr.hpp"
#include "gsm/mobile_station.hpp"
#include "gsm/msc.hpp"
#include "gsm/vlr.hpp"
#include "h323/gatekeeper.hpp"
#include "h323/gateway.hpp"
#include "h323/terminal.hpp"
#include "pstn/phone.hpp"
#include "pstn/switch.hpp"
#include "sim/fault.hpp"
#include "vgprs/latency.hpp"
#include "vgprs/vmsc.hpp"

namespace vgprs {

/// Registers every protocol catalog with the message registry.  Idempotent;
/// every scenario builder calls it.
void register_all_messages();

/// Deterministic per-subscriber identities: subscriber #i of PLMN `mcc`.
struct SubscriberIdentity {
  Imsi imsi;
  Msisdn msisdn;
  std::uint64_t ki;
};
SubscriberIdentity make_subscriber(std::uint16_t country_code,
                                   std::uint32_t index);

/// Subscriber index of H.323 terminal #j's alias in a network whose MSs are
/// subscribers 1..num_ms.  Aliases start at 1000, or right after the last
/// MS in larger networks, so no alias repeats an MS's MSISDN.
std::uint32_t terminal_alias_index(std::uint32_t num_ms, std::uint32_t j);

// ---------------------------------------------------------------------------

struct VgprsParams {
  std::uint32_t num_ms = 1;
  std::uint32_t num_terminals = 1;
  /// BSC+BTS subtrees under the one VMSC; MSs are assigned round-robin.
  /// With 1 cell the legacy names ("BSC", "BTS") are kept; with more the
  /// cells are "BSC1"/"BTS1" (CellId 101, LA 10), "BSC2"/"BTS2" (102, 11)…
  std::uint32_t num_cells = 1;
  std::uint32_t bsc_channels = 64;  // SDCCH and TCH pool size per BSC
  LatencyConfig latency;
  std::uint64_t seed = 1;
  bool authenticate_registration = true;
  bool authenticate_calls = true;
  bool ciphering = true;
  bool deactivate_pdp_when_idle = false;  // Section 6 ablation
  std::uint16_t country_code = 88;        // of the (single) PLMN
  /// Partition the network along its topology seams (per-cell BSS
  /// subtrees, GPRS backbone, H.323 side, CS core) for the sharded engine.
  bool sharded = false;
  unsigned workers = 1;  // sharded-engine worker threads (0 = hw cores)
};

struct VgprsScenario {
  Network net;
  Hlr* hlr = nullptr;
  Vlr* vlr = nullptr;
  Bts* bts = nullptr;  // cell 0 (== btss.front())
  Bsc* bsc = nullptr;  // cell 0 (== bscs.front())
  Vmsc* vmsc = nullptr;
  Sgsn* sgsn = nullptr;
  Ggsn* ggsn = nullptr;
  IpRouter* router = nullptr;
  Gatekeeper* gk = nullptr;
  std::vector<Bsc*> bscs;  // one per cell
  std::vector<Bts*> btss;  // one per cell
  std::vector<MobileStation*> ms;
  std::vector<H323Terminal*> terminals;

  explicit VgprsScenario(std::uint64_t seed) : net(seed) {}

  /// Runs the simulation until quiescent and returns events processed.
  std::size_t settle() { return net.run_until_idle(); }
};

std::unique_ptr<VgprsScenario> build_vgprs(const VgprsParams& params);

// ---------------------------------------------------------------------------

struct TrombParams {
  LatencyConfig latency;
  std::uint64_t seed = 1;
  bool use_vgprs = false;  // false: classic GSM (Fig. 7); true: Fig. 8
  bool roamer_registered = true;  // vGPRS: is x known at the local GK?
  bool sharded = false;  // UK side / HK core / HK BSS as separate shards
  unsigned workers = 1;
};

/// Two countries: the roamer x is a UK (44) subscriber visiting Hong Kong
/// (85); y is a fixed-line subscriber in Hong Kong who calls x's UK number.
struct TrombScenario {
  Network net;
  // UK home network
  Hlr* hlr_uk = nullptr;
  PstnSwitch* switch_uk = nullptr;
  GsmMsc* gmsc_uk = nullptr;
  // HK visited network
  PstnSwitch* switch_hk = nullptr;
  PstnSwitch* switch_hk_intl = nullptr;  // international gateway exchange
  Vlr* vlr_hk = nullptr;
  Bts* bts_hk = nullptr;
  Bsc* bsc_hk = nullptr;
  GsmMsc* msc_hk = nullptr;  // classic flavour
  Vmsc* vmsc_hk = nullptr;   // vGPRS flavour
  Sgsn* sgsn_hk = nullptr;
  Ggsn* ggsn_hk = nullptr;
  IpRouter* router_hk = nullptr;
  Gatekeeper* gk_hk = nullptr;
  H323Gateway* gw_hk = nullptr;
  MobileStation* roamer = nullptr;  // x
  PstnPhone* caller = nullptr;      // y
  SubscriberIdentity roamer_id;

  explicit TrombScenario(std::uint64_t seed) : net(seed) {}

  std::size_t settle() { return net.run_until_idle(); }

  /// International trunks seized for call delivery so far (both exchanges).
  [[nodiscard]] std::int64_t international_trunks() const {
    std::int64_t n = 0;
    if (switch_hk != nullptr) {
      n += switch_hk->trunks_used(TrunkClass::kInternational);
    }
    if (switch_hk_intl != nullptr) {
      n += switch_hk_intl->trunks_used(TrunkClass::kInternational);
    }
    if (switch_uk != nullptr) {
      n += switch_uk->trunks_used(TrunkClass::kInternational);
    }
    return n;
  }
};

std::unique_ptr<TrombScenario> build_tromboning(const TrombParams& params);

// ---------------------------------------------------------------------------

struct HandoffParams {
  LatencyConfig latency;
  std::uint64_t seed = 1;
  bool target_is_vmsc = false;  // VMSC->VMSC handoff follows same procedure
  bool sharded = false;  // core / cell 1 / cell 2 / MSC-B as shards
  unsigned workers = 1;
};

/// Fig. 9: a vGPRS network (anchor VMSC, cell 1) next to a second MSC
/// (classic GSM or another VMSC) serving cell 2.
struct HandoffScenario {
  Network net;
  Hlr* hlr = nullptr;
  Vlr* vlr = nullptr;
  Bts* bts1 = nullptr;
  Bsc* bsc1 = nullptr;
  Vmsc* vmsc = nullptr;  // anchor
  Sgsn* sgsn = nullptr;
  Ggsn* ggsn = nullptr;
  IpRouter* router = nullptr;
  Gatekeeper* gk = nullptr;
  H323Terminal* terminal = nullptr;
  // target side
  Bts* bts2 = nullptr;
  Bsc* bsc2 = nullptr;
  MscBase* msc_b = nullptr;
  MobileStation* ms = nullptr;

  explicit HandoffScenario(std::uint64_t seed) : net(seed) {}

  std::size_t settle() { return net.run_until_idle(); }
};

std::unique_ptr<HandoffScenario> build_handoff(const HandoffParams& params);

// --- the fault / recovery comparison (vgprs_report --faults) ----------------

/// One fault schedule valid for BOTH the vGPRS and the TR 23.821 scenario:
/// it references only nodes and message names the two share (SGSN, GGSN,
/// GK and the GPRS attach / PDP activation exchanges).  Registration-phase
/// faults are message-predicated; call-phase faults are time-windowed
/// against drive_fault_cycles (call cycle i starts at 30 s + 60 s * i).
FaultSchedule report_fault_schedule();

/// The --faults run on either system: installs report_fault_schedule(),
/// registers MS 0 and terminal 0, then runs `iters` call cycles (MS 0 calls
/// terminal 0's alias, then terminal 0 calls MS 0; each call is released).
/// Returns the events processed.
template <typename Scenario>
std::size_t drive_fault_cycles(Scenario& s, std::uint32_t iters) {
  s.net.install_faults(report_fault_schedule());
  s.ms[0]->power_on();
  s.terminals[0]->register_endpoint();
  std::size_t events = s.settle();
  const Msisdn term_alias = make_subscriber(88, 1000).msisdn;
  const Msisdn ms_number = s.ms[0]->config().msisdn;
  for (std::uint32_t i = 0; i < iters; ++i) {
    events += s.net.run_until(SimTime::from_micros(
        (30 + 60 * static_cast<std::int64_t>(i)) * 1'000'000));
    s.ms[0]->dial(term_alias);
    events += s.settle();
    s.ms[0]->hangup();
    events += s.settle();
    s.terminals[0]->place_call(ms_number);
    events += s.settle();
    s.terminals[0]->hangup();
    events += s.settle();
  }
  return events;
}

}  // namespace vgprs
