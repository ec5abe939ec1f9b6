// Minimal IP layer for the simulated Gi / external H.323 network: an
// IpDatagram message that encapsulates any signaling Message, plus an
// IpRouter node modelling the flat IP cloud between the GGSN and the H.323
// world (Fig. 3 links (1), (2), (8)).
#pragma once

#include "common/ids.hpp"
#include "sim/network.hpp"
#include "sim/proto.hpp"

namespace vgprs {

struct IpDatagramInfo {
  IpAddress src;
  IpAddress dst;
  std::uint8_t protocol = 6;  // TCP (H.225/Q.931 ride on TCP), 17 = UDP
  MessagePtr inner;

  static auto fields(auto& self) {
    return std::tie(self.src, self.dst, self.protocol, self.inner);
  }
  [[nodiscard]] std::string describe() const;
};

using IpDatagram = ProtoMessage<IpDatagramInfo, 0x0610, "IP_Datagram">;

/// Encapsulates `inner` into a datagram from `src` to `dst`.
std::shared_ptr<IpDatagram> make_ip_datagram(IpAddress src, IpAddress dst,
                                             MessagePtr inner);

/// The external IP cloud: forwards datagrams to the node registered as the
/// owner of the destination address (Network::register_ip).
class IpRouter final : public Node {
 public:
  explicit IpRouter(std::string name) : Node(std::move(name)) {}
  void on_message(const Envelope& env) override;
};

void register_ip_messages();

}  // namespace vgprs
