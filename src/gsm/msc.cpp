#include "gsm/msc.hpp"

#include "common/log.hpp"

namespace vgprs {

bool GsmMsc::is_msrn(const Msisdn& called) const {
  return config_.msrn_prefix != 0 &&
         called.value() / 100000 == config_.msrn_prefix;
}

// --- MO leg: GSM -> ISUP ------------------------------------------------------

void GsmMsc::route_mo_call(MsContext& ctx) {
  Cic cic = allocate_cic();
  call_by_cic_[cic] = ctx.call_ref;
  cic_by_call_[ctx.call_ref] = cic;
  trunk_peer_[cic] = pstn();
  auto iam = pool_message<IsupIam>();
  iam->cic = cic;
  iam->calling = ctx.calling;
  iam->called = ctx.called;
  send(pstn(), std::move(iam));
}

void GsmMsc::release_trunk_leg(MsContext& ctx, ClearCause cause) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto rel = pool_message<IsupRel>();
  rel->cic = it->second;
  rel->cause = static_cast<std::uint8_t>(cause);
  send(trunk_peer_[it->second], std::move(rel));
}

void GsmMsc::on_ms_disconnect(MsContext& ctx, ClearCause cause) {
  release_trunk_leg(ctx, cause);
  complete_ms_release(ctx);
}

void GsmMsc::on_call_aborted(MsContext& ctx) {
  release_trunk_leg(ctx, ClearCause::kNetworkFailure);
}

void GsmMsc::on_mt_alerting(MsContext& ctx) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto acm = pool_message<IsupAcm>();
  acm->cic = it->second;
  send(trunk_peer_[it->second], std::move(acm));
}

void GsmMsc::on_mt_connected(MsContext& ctx) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto anm = pool_message<IsupAnm>();
  anm->cic = it->second;
  send(trunk_peer_[it->second], std::move(anm));
}

void GsmMsc::on_call_cleared(MsContext& ctx) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  call_by_cic_.erase(it->second);
  trunk_peer_.erase(it->second);
  cic_by_call_.erase(it);
}

void GsmMsc::on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) {
  auto it = cic_by_call_.find(ctx.call_ref);
  if (it == cic_by_call_.end()) return;
  auto voice = pool_message<TrunkVoice>();
  voice->cic = it->second;
  voice->seq = frame.seq;
  voice->origin_us = frame.origin_us;
  send(trunk_peer_[it->second], std::move(voice));
}

// --- incoming ISUP ---------------------------------------------------------------

void GsmMsc::handle_incoming_iam(const Envelope& env, const IsupIam& iam) {
  if (is_msrn(iam.called)) {
    // Terminating leg of GSM call delivery: resolve MSRN -> IMSI at the
    // co-located VLR, then page and set up the call.
    Msrn msrn(iam.called.value());
    pending_msrn_[msrn] = PendingIncoming{iam.cic, env.from, iam.calling};
    auto query = pool_message<MapSendInfoForIncomingCall>();
    query->msrn = msrn;
    send(vlr(), std::move(query));
    return;
  }
  if (config_.gmsc_role) {
    // Gateway role: interrogate the HLR for the roaming number, then
    // forward the call leg (this is what trombones, Fig. 7).
    pending_sri_[iam.called] =
        PendingIncoming{iam.cic, env.from, iam.calling};
    auto sri = pool_message<MapSendRoutingInformation>();
    sri->msisdn = iam.called;
    sri->gmsc_name = name();
    send(hlr(), std::move(sri));
    return;
  }
  auto rel = pool_message<IsupRel>();
  rel->cic = iam.cic;
  rel->cause = 1;  // unallocated number
  send(env.from, std::move(rel));
}

bool GsmMsc::on_unhandled(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* iam = msg_cast<IsupIam>(&msg)) {
    handle_incoming_iam(env, *iam);
    return true;
  }

  if (const auto* ack = msg_cast<MapSendInfoForIncomingCallAck>(&msg)) {
    auto it = pending_msrn_.find(ack->msrn);
    if (it == pending_msrn_.end()) return true;
    PendingIncoming pending = it->second;
    pending_msrn_.erase(it);
    if (!ack->found) {
      auto rel = pool_message<IsupRel>();
      rel->cic = pending.cic;
      rel->cause = 1;
      send(pending.from, std::move(rel));
      return true;
    }
    CallRef call_ref(0x40000000u | pending.cic);
    call_by_cic_[pending.cic] = call_ref;
    cic_by_call_[call_ref] = pending.cic;
    trunk_peer_[pending.cic] = pending.from;
    if (!start_mt_call(ack->imsi, pending.calling, call_ref)) {
      auto rel = pool_message<IsupRel>();
      rel->cic = pending.cic;
      rel->cause = 17;  // busy
      send(pending.from, std::move(rel));
    }
    return true;
  }

  if (const auto* ack = msg_cast<MapSendRoutingInformationAck>(&msg)) {
    auto it = pending_sri_.find(ack->msisdn);
    if (it == pending_sri_.end()) return true;
    PendingIncoming pending = it->second;
    pending_sri_.erase(it);
    if (!ack->found) {
      auto rel = pool_message<IsupRel>();
      rel->cic = pending.cic;
      rel->cause = 1;
      send(pending.from, std::move(rel));
      return true;
    }
    // Forward the call toward the serving MSC by dialling the MSRN into
    // the PSTN; we stay in the path as a transit exchange with a fresh
    // circuit on the outgoing trunk.
    Cic out_cic = allocate_cic();
    transit_legs_.push_back(
        TransitLeg{pending.from, pending.cic, pstn(), out_cic});
    transit_index_[pending.cic] = transit_legs_.size() - 1;
    transit_index_[out_cic] = transit_legs_.size() - 1;
    auto iam = pool_message<IsupIam>();
    iam->cic = out_cic;
    iam->calling = pending.calling;
    iam->called = Msisdn(ack->msrn.value(), 12);
    send(pstn(), std::move(iam));
    return true;
  }

  if (const auto* acm = msg_cast<IsupAcm>(&msg)) {
    if (relay_transit(env, *acm)) return true;
    auto it = call_by_cic_.find(acm->cic);
    if (it == call_by_cic_.end()) return true;
    MsContext* ctx = context_by_call(it->second);
    if (ctx != nullptr && ctx->proc == Proc::kMoCall) {
      notify_mo_alerting(*ctx);
    }
    return true;
  }
  if (const auto* anm = msg_cast<IsupAnm>(&msg)) {
    if (relay_transit(env, *anm)) return true;
    auto it = call_by_cic_.find(anm->cic);
    if (it == call_by_cic_.end()) return true;
    MsContext* ctx = context_by_call(it->second);
    if (ctx != nullptr && ctx->proc == Proc::kMoCall) {
      notify_mo_connect(*ctx);
    }
    return true;
  }
  if (const auto* rel = msg_cast<IsupRel>(&msg)) {
    if (relay_transit(env, *rel)) return true;
    auto rlc = pool_message<IsupRlc>();
    rlc->cic = rel->cic;
    send(env.from, std::move(rlc));
    auto it = call_by_cic_.find(rel->cic);
    if (it == call_by_cic_.end()) return true;
    if (MsContext* ctx = context_by_call(it->second)) {
      release_from_network(*ctx, static_cast<ClearCause>(rel->cause));
    }
    return true;
  }
  if (const auto* rlc = msg_cast<IsupRlc>(&msg)) {
    if (relay_transit(env, *rlc)) {
      auto it = transit_index_.find(rlc->cic);
      if (it != transit_index_.end()) {
        const TransitLeg& leg = transit_legs_[it->second];
        transit_index_.erase(leg.up_cic == rlc->cic ? leg.down_cic
                                                    : leg.up_cic);
        transit_index_.erase(rlc->cic);
      }
      return true;
    }
    return true;  // confirmation of our REL
  }
  if (const auto* voice = msg_cast<TrunkVoice>(&msg)) {
    if (relay_transit(env, *voice)) return true;
    auto it = call_by_cic_.find(voice->cic);
    if (it == call_by_cic_.end()) return true;
    if (MsContext* ctx = context_by_call(it->second)) {
      send_downlink_voice(*ctx, voice->seq, voice->origin_us);
    }
    return true;
  }

  return false;
}

}  // namespace vgprs
