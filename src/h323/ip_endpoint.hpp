// IpEndpoint: base class for nodes living in the external IP cloud
// (gatekeeper, H.323 terminals, H.323/PSTN gateway).  Owns one IP address,
// registers it with the network's IP routing, and exchanges signaling as
// IpDatagram-encapsulated messages via the IpRouter.
#pragma once

#include <string>

#include "gprs/ip.hpp"
#include "sim/network.hpp"

namespace vgprs {

class IpEndpoint : public Node {
 public:
  IpEndpoint(std::string name, IpAddress ip, std::string router_name)
      : Node(std::move(name)), ip_(ip), router_name_(std::move(router_name)) {}

  [[nodiscard]] IpAddress ip() const { return ip_; }

  void on_attached() override { net().register_ip(ip_, id()); }

  void on_message(const Envelope& env) final;

 protected:
  /// Encapsulates `inner` into an IP datagram and sends it via the router.
  void send_ip(IpAddress dst, MessagePtr inner);
  /// The first hop of every datagram this endpoint sends.
  [[nodiscard]] NodeId router() const { return peer(router_name_); }

  /// A datagram addressed to us arrived; `inner` is the message it carries.
  virtual void on_ip(const IpDatagramInfo& dgram, const Message& inner) = 0;

  /// Non-IP messages and empty datagrams (none expected by default).
  virtual void on_other(const Envelope& env);

 private:
  IpAddress ip_;
  std::string router_name_;
};

}  // namespace vgprs
