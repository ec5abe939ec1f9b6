#include "gprs/ip.hpp"

#include "common/log.hpp"

namespace vgprs {

std::string IpDatagramInfo::describe() const {
  // Name the inner type so traces show what the datagram carries.
  const std::string_view carried = inner ? inner->name() : "?";
  return "{" + src.to_string() + " -> " + dst.to_string() + " [" +
         std::string(carried) + "]}";
}

std::shared_ptr<IpDatagram> make_ip_datagram(IpAddress src, IpAddress dst,
                                             MessagePtr inner) {
  auto dgram = pool_message<IpDatagram>();
  dgram->src = src;
  dgram->dst = dst;
  dgram->inner = std::move(inner);
  return dgram;
}

void IpRouter::on_message(const Envelope& env) {
  const auto* dgram = msg_cast<IpDatagram>(env.msg.get());
  if (dgram == nullptr) {
    VG_WARN("ip", name() << ": non-IP message " << env.msg->name());
    return;
  }
  NodeId owner = net().ip_owner(dgram->dst);
  if (!owner.valid()) {
    VG_WARN("ip", name() << ": no route to " << dgram->dst.to_string());
    return;
  }
  if (owner == env.from) return;  // avoid reflecting
  send(owner, env.msg);
}

void register_ip_messages() { register_message<IpDatagram>(); }

}  // namespace vgprs
