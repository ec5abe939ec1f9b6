// Gateway GPRS Support Node: anchors PDP contexts, allocates dynamic PDP
// addresses, tunnels user traffic to/from the serving SGSN over GTP, and
// interworks with the external IP network on the Gi interface.  Also
// implements the network-initiated activation path (PDU notification) the
// 3G TR 23.821 baseline needs for terminating calls, including the Gc-style
// HLR query for the serving SGSN.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "gprs/ip.hpp"
#include "gprs/messages.hpp"
#include "gsm/messages.hpp"
#include "sim/network.hpp"

namespace vgprs {

class Ggsn final : public Node {
 public:
  struct Config {
    std::string router_name;  // Gi-side IP cloud
    std::string hlr_name;
    IpAddress ggsn_address = IpAddress(10, 0, 0, 1);  // control address
    IpAddress dynamic_pool_base = IpAddress(10, 1, 0, 0);
  };

  struct PdpContext {
    Imsi imsi;
    Nsapi nsapi;
    IpAddress address;
    TunnelId ggsn_teid;  // uplink endpoint here
    TunnelId sgsn_teid;  // downlink endpoint at the SGSN
    NodeId sgsn;
    QosProfile qos;
  };

  Ggsn(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  /// Provisions a static PDP address for a subscriber (required by the
  /// TR 23.821 network-initiated activation; see Section 6 of the paper).
  void provision_static(Imsi imsi, IpAddress address);

  [[nodiscard]] std::size_t pdp_context_count() const {
    return contexts_.size();
  }
  [[nodiscard]] const PdpContext* context_by_address(IpAddress address) const;
  [[nodiscard]] std::uint64_t pdus_forwarded() const {
    return pdus_forwarded_;
  }

  void on_attached() override;
  void on_message(const Envelope& env) override;

 private:
  static std::uint64_t key(Imsi imsi, Nsapi nsapi) {
    return (imsi.value() << 4) | nsapi.value();
  }
  [[nodiscard]] NodeId router() const { return peer(config_.router_name); }
  [[nodiscard]] NodeId hlr() const { return peer(config_.hlr_name); }
  void handle_control(const IpDatagramInfo& dgram);

  Config config_;
  std::unordered_map<std::uint64_t, PdpContext> contexts_;
  std::unordered_map<IpAddress, std::uint64_t> by_address_;
  std::unordered_map<std::uint32_t, std::uint64_t> by_teid_;
  std::unordered_map<Imsi, IpAddress> static_addresses_;
  // pending TR 23.821 activation requests: imsi -> requester control address
  std::unordered_map<Imsi, IpAddress> pending_activations_;
  std::uint32_t next_teid_ = 0x8000;
  std::uint32_t next_dynamic_ = 1;
  std::uint64_t pdus_forwarded_ = 0;
};

}  // namespace vgprs
