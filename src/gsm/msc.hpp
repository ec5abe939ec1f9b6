// GsmMsc: the classic circuit-switched MSC the VMSC replaces.  It serves
// three purposes in the reproduction: (1) the baseline for the tromboning
// experiment (Fig. 7) in both GMSC and serving-MSC roles, (2) the target
// MSC for inter-system handoff (Fig. 9), and (3) a sanity baseline proving
// the shared GSM machinery (MscBase) is genuinely standard.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "gsm/msc_base.hpp"
#include "pstn/messages.hpp"

namespace vgprs {

class GsmMsc final : public MscBase {
 public:
  struct MscConfig {
    Config base;
    std::string pstn_name;  // switch for outgoing trunks
    std::string hlr_name;   // for the GMSC SRI query
    bool gmsc_role = false;
    /// Called numbers with value/100000 == msrn_prefix are roaming numbers
    /// terminated at this MSC (allocated by the co-located VLR).
    std::uint64_t msrn_prefix = 0;
  };

  GsmMsc(std::string name, MscConfig config)
      : MscBase(std::move(name), config.base), config_(std::move(config)) {}

  [[nodiscard]] std::size_t transit_legs() const {
    return transit_legs_.size();
  }

 protected:
  void route_mo_call(MsContext& ctx) override;
  void on_ms_disconnect(MsContext& ctx, ClearCause cause) override;
  void on_mt_alerting(MsContext& ctx) override;
  void on_mt_connected(MsContext& ctx) override;
  void on_call_cleared(MsContext& ctx) override;
  void on_call_aborted(MsContext& ctx) override;
  void on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) override;
  bool on_unhandled(const Envelope& env) override;

 private:
  struct TransitLeg {
    NodeId upstream;
    Cic up_cic = 0;
    NodeId downstream;
    Cic down_cic = 0;
  };
  struct PendingIncoming {
    Cic cic = 0;
    NodeId from;
    Msisdn calling;
  };

  [[nodiscard]] NodeId pstn() const { return peer(config_.pstn_name); }
  [[nodiscard]] NodeId hlr() const { return peer(config_.hlr_name); }
  [[nodiscard]] bool is_msrn(const Msisdn& called) const;
  void release_trunk_leg(MsContext& ctx, ClearCause cause);
  void handle_incoming_iam(const Envelope& env, const IsupIam& iam);

  /// Relays an ISUP message along a transit (GMSC) leg pair, translating
  /// the circuit identification code between the two trunks.
  template <typename M>
  bool relay_transit(const Envelope& env, const M& m) {
    auto it = transit_index_.find(m.cic);
    if (it == transit_index_.end()) return false;
    TransitLeg& leg = transit_legs_[it->second];
    auto out = pool_message<M>(static_cast<const M&>(m));
    if (env.from == leg.upstream && m.cic == leg.up_cic) {
      out->cic = leg.down_cic;
      send(leg.downstream, std::move(out));
    } else {
      out->cic = leg.up_cic;
      send(leg.upstream, std::move(out));
    }
    return true;
  }

  MscConfig config_;
  std::unordered_map<Cic, CallRef> call_by_cic_;
  std::unordered_map<CallRef, Cic> cic_by_call_;
  std::unordered_map<Cic, NodeId> trunk_peer_;
  std::vector<TransitLeg> transit_legs_;               // GMSC role
  std::unordered_map<Cic, std::size_t> transit_index_;
  std::unordered_map<Msrn, PendingIncoming> pending_msrn_;
  std::unordered_map<Msisdn, PendingIncoming> pending_sri_;
};

}  // namespace vgprs
