#include "gprs/ggsn.hpp"

#include "common/log.hpp"

namespace vgprs {

void Ggsn::provision_static(Imsi imsi, IpAddress address) {
  static_addresses_[imsi] = address;
}

const Ggsn::PdpContext* Ggsn::context_by_address(IpAddress address) const {
  auto it = by_address_.find(address);
  return it == by_address_.end() ? nullptr : &contexts_.at(it->second);
}

void Ggsn::on_attached() {
  net().register_ip(config_.ggsn_address, id());
}

void Ggsn::handle_control(const IpDatagramInfo& dgram) {
  if (const auto* act = msg_cast<GgsnActivationRequest>(dgram.inner.get())) {
    // TR 23.821: the gatekeeper asks us to establish a routing path toward
    // an idle subscriber.  Find the serving SGSN via the HLR (Gc) and fire
    // a PDU notification so the MS activates its (static) PDP address.
    pending_activations_[act->imsi] = dgram.src;
    auto query = pool_message<MapSendRoutingInfoForGprs>();
    query->imsi = act->imsi;
    send(hlr(), std::move(query));
    return;
  }
  VG_WARN("ggsn", name() << ": unexpected control datagram "
                         << dgram.describe());
}

void Ggsn::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* req = msg_cast<GtpCreatePdpContextRequest>(&msg)) {
    IpAddress address = req->requested_address;
    if (!address.valid()) {
      auto it = static_addresses_.find(req->imsi);
      if (it != static_addresses_.end()) {
        address = it->second;
      } else {
        address = IpAddress(config_.dynamic_pool_base.value() +
                            next_dynamic_++);
      }
    }
    PdpContext& ctx = contexts_[key(req->imsi, req->nsapi)];
    if (ctx.ggsn_teid.valid()) {
      // Re-creation over an existing context: withdraw the stale address
      // and tunnel endpoint before installing the new ones.
      by_address_.erase(ctx.address);
      by_teid_.erase(ctx.ggsn_teid.value());
      net().unregister_ip(ctx.address);
    }
    ctx.imsi = req->imsi;
    ctx.nsapi = req->nsapi;
    ctx.address = address;
    ctx.ggsn_teid = TunnelId(next_teid_++);
    ctx.sgsn_teid = req->sgsn_teid;
    ctx.sgsn = env.from;
    ctx.qos = req->qos;
    by_address_[address] = key(req->imsi, req->nsapi);
    by_teid_[ctx.ggsn_teid.value()] = key(req->imsi, req->nsapi);
    net().register_ip(address, id());

    auto rsp = pool_message<GtpCreatePdpContextResponse>();
    rsp->imsi = req->imsi;
    rsp->nsapi = req->nsapi;
    rsp->address = address;
    rsp->ggsn_teid = ctx.ggsn_teid;
    rsp->qos = req->qos;
    rsp->success = true;
    send(env.from, std::move(rsp));

    // Complete any pending TR 23.821 activation request for this subscriber.
    auto pending = pending_activations_.find(req->imsi);
    if (pending != pending_activations_.end()) {
      auto done = pool_message<GgsnActivationResponse>();
      done->imsi = req->imsi;
      done->address = address;
      done->success = true;
      send(router(), make_ip_datagram(config_.ggsn_address, pending->second,
                                      std::move(done)));
      pending_activations_.erase(pending);
    }
    return;
  }

  if (const auto* del = msg_cast<GtpDeletePdpContextRequest>(&msg)) {
    auto it = contexts_.find(key(del->imsi, del->nsapi));
    if (it != contexts_.end()) {
      by_address_.erase(it->second.address);
      by_teid_.erase(it->second.ggsn_teid.value());
      net().unregister_ip(it->second.address);
      contexts_.erase(it);
    }
    auto rsp = pool_message<GtpDeletePdpContextResponse>();
    rsp->imsi = del->imsi;
    rsp->nsapi = del->nsapi;
    rsp->teid = del->teid;
    send(env.from, std::move(rsp));
    return;
  }

  // Uplink user plane: SGSN -> GGSN -> external network (or hairpin to
  // another PDP context).
  if (const auto* pdu = msg_cast<GtpPdu>(&msg)) {
    auto it = by_teid_.find(pdu->teid.value());
    if (it == by_teid_.end()) {
      VG_WARN("ggsn", name() << ": PDU on unknown " << pdu->teid.to_string());
      return;
    }
    const auto* dgram = msg_cast<IpDatagram>(pdu->inner.get());
    if (dgram == nullptr) return;
    ++pdus_forwarded_;
    if (dgram->dst == config_.ggsn_address) {
      handle_control(*dgram);
      return;
    }
    auto hairpin = by_address_.find(dgram->dst);
    if (hairpin != by_address_.end()) {
      const PdpContext& dst_ctx = contexts_.at(hairpin->second);
      auto down = pool_message<GtpPdu>();
      down->teid = dst_ctx.sgsn_teid;
      down->inner = pdu->inner;
      send(dst_ctx.sgsn, std::move(down));
      return;
    }
    send(router(), pdu->inner);
    return;
  }

  // Downlink from the external network.
  if (const auto* dgram = msg_cast<IpDatagram>(&msg)) {
    if (dgram->dst == config_.ggsn_address) {
      handle_control(*dgram);
      return;
    }
    auto it = by_address_.find(dgram->dst);
    if (it == by_address_.end()) {
      VG_WARN("ggsn", name() << ": no PDP context for "
                             << dgram->dst.to_string());
      return;
    }
    const PdpContext& ctx = contexts_.at(it->second);
    ++pdus_forwarded_;
    auto pdu = pool_message<GtpPdu>();
    pdu->teid = ctx.sgsn_teid;
    pdu->inner = env.msg;
    send(ctx.sgsn, std::move(pdu));
    return;
  }

  if (const auto* ack = msg_cast<MapSendRoutingInfoForGprsAck>(&msg)) {
    auto pending = pending_activations_.find(ack->imsi);
    if (pending == pending_activations_.end()) return;
    auto fail = [&] {
      auto rsp = pool_message<GgsnActivationResponse>();
      rsp->imsi = ack->imsi;
      rsp->success = false;
      send(router(), make_ip_datagram(config_.ggsn_address, pending->second,
                                      std::move(rsp)));
      pending_activations_.erase(pending);
    };
    if (!ack->found) {
      fail();
      return;
    }
    auto static_ip = static_addresses_.find(ack->imsi);
    if (static_ip == static_addresses_.end()) {
      // Network-initiated activation requires a static PDP address
      // (GSM 03.60; the paper calls this out as a TR 23.821 weakness).
      fail();
      return;
    }
    Node* sgsn = net().node_by_name(ack->sgsn_name);
    if (sgsn == nullptr) {
      fail();
      return;
    }
    auto note = pool_message<GtpPduNotificationRequest>();
    note->imsi = ack->imsi;
    note->address = static_ip->second;
    send(sgsn->id(), std::move(note));
    return;
  }

  if (msg_cast<GtpPduNotificationResponse>(&msg) != nullptr) {
    return;
  }

  VG_WARN("ggsn", name() << ": unhandled " << msg.name());
}

}  // namespace vgprs
