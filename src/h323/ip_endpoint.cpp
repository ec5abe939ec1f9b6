#include "h323/ip_endpoint.hpp"

#include "common/log.hpp"

namespace vgprs {

void IpEndpoint::send_ip(IpAddress dst, MessagePtr inner) {
  send(router(), make_ip_datagram(ip_, dst, std::move(inner)));
}

void IpEndpoint::on_other(const Envelope& env) {
  VG_WARN("ip-endpoint", name() << ": unexpected " << env.msg->name());
}

void IpEndpoint::on_message(const Envelope& env) {
  const auto* dgram = msg_cast<IpDatagram>(env.msg.get());
  if (dgram == nullptr || dgram->inner == nullptr) {
    on_other(env);
    return;
  }
  on_ip(*dgram, *dgram->inner);
}

}  // namespace vgprs
