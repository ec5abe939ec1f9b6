#include "h323/ip_endpoint.hpp"

#include <stdexcept>

#include "common/log.hpp"

namespace vgprs {

NodeId IpEndpoint::router() const {
  Node* n = net().node_by_name(router_name_);
  if (n == nullptr) throw std::logic_error(name() + ": no router");
  return n->id();
}

void IpEndpoint::send_ip(IpAddress dst, const Message& inner) {
  send(router(), make_ip_datagram(ip_, dst, inner));
}

void IpEndpoint::on_other(const Envelope& env) {
  VG_WARN("ip-endpoint", name() << ": unexpected " << env.msg->name());
}

void IpEndpoint::on_message(const Envelope& env) {
  const auto* dgram = msg_cast<IpDatagram>(env.msg.get());
  if (dgram == nullptr) {
    on_other(env);
    return;
  }
  auto inner = ip_payload(*dgram);
  if (!inner.ok()) {
    VG_WARN("ip-endpoint", name() << ": undecodable payload from "
                                  << dgram->src.to_string() << ": "
                                  << inner.error().to_string());
    return;
  }
  on_ip(*dgram, *inner.value());
}

}  // namespace vgprs
