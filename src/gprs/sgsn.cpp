#include "gprs/sgsn.hpp"

#include "common/log.hpp"
#include "gprs/ip.hpp"

namespace vgprs {

const Sgsn::PdpContext* Sgsn::context(Imsi imsi, Nsapi nsapi) const {
  return contexts_.find(key(imsi, nsapi));
}

void Sgsn::erase_context(const PdpContext& ctx) {
  retx_.ack(retx_key(RetxKind::kGtpCreate, ctx.imsi, ctx.nsapi));
  retx_.ack(retx_key(RetxKind::kGtpDelete, ctx.imsi, ctx.nsapi));
  by_teid_.erase(ctx.sgsn_teid.value());
  contexts_.erase(key(ctx.imsi, ctx.nsapi));
}

void Sgsn::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  // --- GPRS mobility management ---------------------------------------------
  if (const auto* req = msg_cast<GprsAttachRequest>(&msg)) {
    if (const Attachment* dup = attachments_.find(req->imsi);
        dup != nullptr && dup->holder == env.from) {
      // Duplicate attach from the current holder (retransmission or a
      // duplicated message): already attached -> re-confirm with the same
      // P-TMSI; still updating the HLR -> absorb, the pending exchange
      // answers both copies.
      if (dup->attached) {
        auto acc = pool_message<GprsAttachAccept>();
        acc->imsi = req->imsi;
        acc->ptmsi = dup->ptmsi;
        send(env.from, std::move(acc));
      }
      return;
    }
    Attachment& at = attachments_[req->imsi];
    at.holder = env.from;
    at.ptmsi = next_ptmsi_++;
    at.attached = false;
    auto ul = pool_message<MapUpdateGprsLocation>();
    ul->imsi = req->imsi;
    ul->sgsn_name = name();
    retx_.send(
        retx_key(RetxKind::kMapGprsUl, req->imsi), hlr(), std::move(ul),
        [this, imsi = req->imsi] {
          const Attachment* a = attachments_.find(imsi);
          if (a == nullptr || a->attached) return;
          auto rej = pool_message<GprsAttachReject>();
          rej->imsi = imsi;
          rej->cause = 17;  // network failure: HLR unreachable
          send(a->holder, std::move(rej));
          attachments_.erase(imsi);
        });
    return;
  }
  if (const auto* ack = msg_cast<MapUpdateGprsLocationAck>(&msg)) {
    retx_.ack(retx_key(RetxKind::kMapGprsUl, ack->imsi));
    Attachment* at = attachments_.find(ack->imsi);
    if (at == nullptr) return;
    if (!ack->success) {
      auto rej = pool_message<GprsAttachReject>();
      rej->imsi = ack->imsi;
      rej->cause = ack->cause;
      send(at->holder, std::move(rej));
      attachments_.erase(ack->imsi);
      return;
    }
    at->attached = true;
    ++net().metrics().counter(name() + "/attaches_accepted");
    net().metrics().gauge(name() + "/attached") =
        static_cast<double>(attachments_.size());
    auto acc = pool_message<GprsAttachAccept>();
    acc->imsi = ack->imsi;
    acc->ptmsi = at->ptmsi;
    send(at->holder, std::move(acc));
    return;
  }
  if (const auto* req = msg_cast<GprsDetachRequest>(&msg)) {
    // A detach is only honoured from the subscriber's *current* Gb-side
    // holder: after an inter-VMSC move the old VMSC's deferred detach must
    // not tear down the attachment the new VMSC just established.
    const Attachment* at = attachments_.find(req->imsi);
    if (at != nullptr && at->holder != env.from) {
      auto acc = pool_message<GprsDetachAccept>();
      acc->imsi = req->imsi;
      send(env.from, std::move(acc));
      return;
    }
    // Tear down any remaining contexts at the GGSN — direct probes of the
    // two NSAPIs in use (5 = signaling, 6 = voice), not a scan of every
    // subscriber's contexts.  The context entries are gone before the GTP
    // responses arrive; the delete's exchange keeps the request it sent.
    // A context already being deactivated is left to its own delete, which
    // answers the holder's deactivation.
    for (std::uint8_t n : {std::uint8_t{5}, std::uint8_t{6}}) {
      const PdpContext* ctx = contexts_.find(key(req->imsi, Nsapi(n)));
      if (ctx == nullptr || ctx->holder != env.from || ctx->deleting) {
        continue;
      }
      auto del = pool_message<GtpDeletePdpContextRequest>();
      del->imsi = ctx->imsi;
      del->nsapi = ctx->nsapi;
      del->teid = ctx->ggsn_teid;
      erase_context(*ctx);
      // GGSN unreachable: its context leaks until it ages out there;
      // nothing left to unwind here.
      retx_.send(retx_key(RetxKind::kGtpDelete, req->imsi, Nsapi(n)), ggsn(),
                 std::move(del));
    }
    // An attach still waiting on the HLR ends with the attachment.
    retx_.ack(retx_key(RetxKind::kMapGprsUl, req->imsi));
    attachments_.erase(req->imsi);
    auto acc = pool_message<GprsDetachAccept>();
    acc->imsi = req->imsi;
    send(env.from, std::move(acc));
    return;
  }

  // --- session management -----------------------------------------------------
  if (const auto* req = msg_cast<ActivatePdpContextRequest>(&msg)) {
    const Attachment* at = attachments_.find(req->imsi);
    if (at == nullptr || !at->attached) {
      auto rej = pool_message<ActivatePdpContextReject>();
      rej->imsi = req->imsi;
      rej->nsapi = req->nsapi;
      rej->cause = 7;  // GPRS services not allowed / not attached
      send(env.from, std::move(rej));
      return;
    }
    PdpContext& ctx = contexts_[key(req->imsi, req->nsapi)];
    if (ctx.sgsn_teid.valid()) {
      if (ctx.holder == env.from && !ctx.deleting) {
        // Duplicate activation from the current holder: an active context
        // is re-confirmed as it stands; one still being created is
        // answered when the GTP exchange completes.
        if (ctx.active) {
          auto acc = pool_message<ActivatePdpContextAccept>();
          acc->imsi = req->imsi;
          acc->nsapi = req->nsapi;
          acc->address = ctx.address;
          acc->qos = ctx.qos;
          send(env.from, std::move(acc));
        }
        return;
      }
      // Re-activation over an existing context (e.g. the subscriber moved
      // to a new VMSC): drop the stale tunnel endpoint mapping, and a delete
      // still in flight for the context being replaced.
      retx_.ack(retx_key(RetxKind::kGtpDelete, req->imsi, req->nsapi));
      by_teid_.erase(ctx.sgsn_teid.value());
    }
    ctx.imsi = req->imsi;
    ctx.nsapi = req->nsapi;
    ctx.qos = req->qos;
    ctx.holder = env.from;
    ctx.sgsn_teid = TunnelId(next_teid_++);
    ctx.active = false;
    ctx.deleting = false;
    by_teid_[ctx.sgsn_teid.value()] = key(req->imsi, req->nsapi);
    auto create = pool_message<GtpCreatePdpContextRequest>();
    create->imsi = req->imsi;
    create->nsapi = req->nsapi;
    create->sgsn_name = name();
    create->sgsn_teid = ctx.sgsn_teid;
    create->requested_address = req->requested_address;
    create->qos = req->qos;
    retx_.send(
        retx_key(RetxKind::kGtpCreate, req->imsi, req->nsapi), ggsn(),
        std::move(create), [this, imsi = req->imsi, nsapi = req->nsapi] {
          const PdpContext* c = contexts_.find(key(imsi, nsapi));
          if (c == nullptr || c->active) return;
          auto rej = pool_message<ActivatePdpContextReject>();
          rej->imsi = imsi;
          rej->nsapi = nsapi;
          rej->cause = 38;  // network failure: GGSN unreachable
          send(c->holder, std::move(rej));
          erase_context(*c);
        });
    return;
  }
  if (const auto* rsp = msg_cast<GtpCreatePdpContextResponse>(&msg)) {
    retx_.ack(retx_key(RetxKind::kGtpCreate, rsp->imsi, rsp->nsapi));
    PdpContext* found = contexts_.find(key(rsp->imsi, rsp->nsapi));
    if (found == nullptr) return;
    PdpContext& ctx = *found;
    if (!rsp->success) {
      auto rej = pool_message<ActivatePdpContextReject>();
      rej->imsi = rsp->imsi;
      rej->nsapi = rsp->nsapi;
      rej->cause = rsp->cause;
      send(ctx.holder, std::move(rej));
      erase_context(ctx);
      return;
    }
    ctx.address = rsp->address;
    ctx.ggsn_teid = rsp->ggsn_teid;
    ctx.qos = rsp->qos;
    ctx.active = true;
    ++net().metrics().counter(name() + "/pdp_activations");
    net().metrics().gauge(name() + "/pdp_contexts") =
        static_cast<double>(contexts_.size());
    auto acc = pool_message<ActivatePdpContextAccept>();
    acc->imsi = rsp->imsi;
    acc->nsapi = rsp->nsapi;
    acc->address = rsp->address;
    acc->qos = rsp->qos;
    send(ctx.holder, std::move(acc));
    return;
  }
  if (const auto* req = msg_cast<DeactivatePdpContextRequest>(&msg)) {
    PdpContext* ctx = contexts_.find(key(req->imsi, req->nsapi));
    if (ctx == nullptr) {
      auto acc = pool_message<DeactivatePdpContextAccept>();
      acc->imsi = req->imsi;
      acc->nsapi = req->nsapi;
      send(env.from, std::move(acc));
      return;
    }
    if (ctx->deleting) {
      // Duplicate deactivation: the in-flight GTP delete answers it.
      return;
    }
    ctx->deleting = true;
    auto del = pool_message<GtpDeletePdpContextRequest>();
    del->imsi = req->imsi;
    del->nsapi = req->nsapi;
    del->teid = ctx->ggsn_teid;
    retx_.send(
        retx_key(RetxKind::kGtpDelete, req->imsi, req->nsapi), ggsn(),
        std::move(del), [this, imsi = req->imsi, nsapi = req->nsapi] {
          // GGSN unreachable: confirm toward the holder anyway and drop
          // the local context; the GGSN side ages out on its own.
          const PdpContext* c = contexts_.find(key(imsi, nsapi));
          if (c == nullptr) return;
          NodeId holder = c->holder;
          erase_context(*c);
          auto acc = pool_message<DeactivatePdpContextAccept>();
          acc->imsi = imsi;
          acc->nsapi = nsapi;
          send(holder, std::move(acc));
        });
    // Deletion confirmation arrives as GTP_Delete_PDP_Context_Response.
    return;
  }
  if (const auto* rsp = msg_cast<GtpDeletePdpContextResponse>(&msg)) {
    retx_.ack(retx_key(RetxKind::kGtpDelete, rsp->imsi, rsp->nsapi));
    const PdpContext* ctx = contexts_.find(key(rsp->imsi, rsp->nsapi));
    if (ctx == nullptr) return;
    NodeId holder = ctx->holder;
    erase_context(*ctx);
    ++net().metrics().counter(name() + "/pdp_deactivations");
    net().metrics().gauge(name() + "/pdp_contexts") =
        static_cast<double>(contexts_.size());
    auto acc = pool_message<DeactivatePdpContextAccept>();
    acc->imsi = rsp->imsi;
    acc->nsapi = rsp->nsapi;
    send(holder, std::move(acc));
    return;
  }

  // --- network-initiated activation (3G TR 23.821 termination path) ----------
  if (const auto* note = msg_cast<GtpPduNotificationRequest>(&msg)) {
    auto rsp = pool_message<GtpPduNotificationResponse>();
    rsp->imsi = note->imsi;
    rsp->address = note->address;
    send(env.from, std::move(rsp));
    const Attachment* at = attachments_.find(note->imsi);
    if (at == nullptr || !at->attached) {
      VG_WARN("sgsn", name() << ": PDU notification for unattached "
                             << note->imsi.to_string());
      return;
    }
    auto req = pool_message<RequestPdpContextActivation>();
    req->imsi = note->imsi;
    req->nsapi = Nsapi(5);
    req->address = note->address;
    send(at->holder, std::move(req));
    return;
  }

  // --- user plane ---------------------------------------------------------------
  if (const auto* up = msg_cast<GbUnitData>(&msg)) {
    // Uplink: pick the sender's context whose PDP address matches the
    // datagram source; fall back to the subscriber's other active context.
    // Two direct probes of the NSAPIs in use (5 = signaling, 6 = voice) —
    // this runs per tunneled packet, so it must not scan the context table.
    IpAddress src;
    if (const auto* dgram = msg_cast<IpDatagram>(up->inner.get())) {
      src = dgram->src;
    }
    const PdpContext* chosen = nullptr;
    for (std::uint8_t n : {std::uint8_t{5}, std::uint8_t{6}}) {
      const PdpContext* ctx = contexts_.find(key(up->imsi, Nsapi(n)));
      if (ctx == nullptr || !ctx->active) continue;
      if (ctx->address == src) {
        chosen = ctx;
        break;
      }
      if (chosen == nullptr) chosen = ctx;
    }
    if (chosen == nullptr) {
      VG_WARN("sgsn", name() << ": uplink data without PDP context from "
                             << up->imsi.to_string());
      return;
    }
    auto pdu = pool_message<GtpPdu>();
    pdu->teid = chosen->ggsn_teid;
    pdu->inner = up->inner;
    send(ggsn(), std::move(pdu));
    return;
  }
  if (const auto* pdu = msg_cast<GtpPdu>(&msg)) {
    const std::uint64_t* ctx_key = by_teid_.find(pdu->teid.value());
    if (ctx_key == nullptr) {
      VG_WARN("sgsn", name() << ": downlink PDU for unknown "
                             << pdu->teid.to_string());
      return;
    }
    const PdpContext& ctx = *contexts_.find(*ctx_key);
    auto down = pool_message<GbUnitData>();
    down->imsi = ctx.imsi;
    down->inner = pdu->inner;
    send(ctx.holder, std::move(down));
    return;
  }

  VG_WARN("sgsn", name() << ": unhandled " << msg.name());
}

}  // namespace vgprs
