#include "gprs/ip.hpp"

#include "common/log.hpp"

namespace vgprs {

std::string IpDatagramInfo::describe() const {
  // Peek at the inner wire type so traces show what the datagram carries.
  std::string inner = "?";
  if (payload.size() >= 2) {
    std::uint16_t type = static_cast<std::uint16_t>(
        (std::uint16_t{payload[0]} << 8) | payload[1]);
    inner = std::string(MessageRegistry::instance().name_of(type));
  }
  return "{" + src.to_string() + " -> " + dst.to_string() + " [" + inner +
         "]}";
}

std::shared_ptr<IpDatagram> make_ip_datagram(IpAddress src, IpAddress dst,
                                             const Message& inner) {
  auto dgram = pool_message<IpDatagram>();
  dgram->src = src;
  dgram->dst = dst;
  dgram->payload = inner.encode();
  return dgram;
}

Result<std::unique_ptr<Message>> ip_payload(const IpDatagramInfo& dgram) {
  return MessageRegistry::instance().decode(dgram.payload);
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
