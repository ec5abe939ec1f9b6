// H.323 <-> PSTN gateway: terminates ISUP trunks on one side and H.225
// RAS/Q.931 on the other.  This is the entry point of the tromboning
// elimination scenario (Fig. 8): the local telephone company routes a call
// to the gateway, the gateway checks the gatekeeper's translation table,
// and either completes the call locally over VoIP or falls back to normal
// (international) PSTN routing when the callee is not registered.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "h323/ip_endpoint.hpp"
#include "h323/messages.hpp"
#include "pstn/messages.hpp"
#include "voice/rtp.hpp"

namespace vgprs {

class H323Gateway : public IpEndpoint {
 public:
  struct Config {
    IpAddress ip;
    std::uint16_t signal_port = 1720;
    std::uint16_t media_port = 5004;
    Msisdn service_alias;  // the gateway's own E.164 alias
    IpAddress gk_ip;
    std::string router_name;
    std::string pstn_name;           // the switch handing us calls
    std::string fallback_pstn_name;  // where ARJ'd calls are re-routed
  };

  H323Gateway(std::string name, Config config)
      : IpEndpoint(std::move(name), config.ip, config.router_name),
        config_(std::move(config)) {}

  /// Registers the gateway endpoint with the gatekeeper.
  void register_endpoint();

  [[nodiscard]] bool registered() const { return endpoint_id_ != 0; }
  [[nodiscard]] std::uint64_t calls_completed_voip() const {
    return voip_calls_;
  }
  [[nodiscard]] std::uint64_t calls_fallback_pstn() const {
    return fallback_calls_;
  }


 protected:
  void on_ip(const IpDatagramInfo& dgram, const Message& inner) override;
  void on_other(const Envelope& env) override;

 private:
  struct Call {
    Cic cic = 0;
    NodeId trunk_peer;     // PSTN side
    Msisdn calling;
    Msisdn called;
    IpAddress remote_signal;
    IpAddress remote_media;
    bool voip = false;     // completed over H.323 (vs PSTN fallback transit)
  };

  [[nodiscard]] NodeId pstn() const { return peer(config_.pstn_name); }
  [[nodiscard]] NodeId fallback() const {
    return peer(config_.fallback_pstn_name);
  }
  Call* call_by_cic(Cic cic);
  Call* call_by_ref(CallRef ref);

  Config config_;
  std::uint32_t endpoint_id_ = 0;
  std::uint32_t call_seq_ = 0;
  struct TransitLeg {
    NodeId upstream;
    Cic up_cic = 0;
    NodeId downstream;
    Cic down_cic = 0;
  };

  /// Relays an ISUP message along a fallback transit leg, translating the
  /// circuit identification code between the incoming and outgoing trunks.
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

  std::unordered_map<CallRef, Call> calls_;
  std::unordered_map<Cic, CallRef> by_cic_;
  std::vector<TransitLeg> transit_legs_;  // PSTN fallback legs
  std::unordered_map<Cic, std::size_t> transit_index_;
  std::uint64_t voip_calls_ = 0;
  std::uint64_t fallback_calls_ = 0;
};

}  // namespace vgprs
