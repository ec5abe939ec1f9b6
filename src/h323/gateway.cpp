#include "h323/gateway.hpp"

#include "common/log.hpp"

namespace vgprs {

H323Gateway::Call* H323Gateway::call_by_cic(Cic cic) {
  auto it = by_cic_.find(cic);
  return it == by_cic_.end() ? nullptr : call_by_ref(it->second);
}

H323Gateway::Call* H323Gateway::call_by_ref(CallRef ref) {
  auto it = calls_.find(ref);
  return it == calls_.end() ? nullptr : &it->second;
}

void H323Gateway::register_endpoint() {
  auto rrq = pool_message<RasRrq>();
  rrq->call_signal_address = TransportAddress(ip(), config_.signal_port);
  rrq->alias = config_.service_alias;
  send_ip(config_.gk_ip, std::move(rrq));
}

// --- PSTN side -----------------------------------------------------------------

void H323Gateway::on_other(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* iam = msg_cast<IsupIam>(&msg)) {
    // A call entered from the PSTN (Fig. 8, step (1)).  Check with the
    // gatekeeper whether the callee is reachable over VoIP (step (2)).
    CallRef ref(0x60000000u | ++call_seq_);
    Call& call = calls_[ref];
    call.cic = iam->cic;
    call.trunk_peer = env.from;
    call.calling = iam->calling;
    call.called = iam->called;
    by_cic_[iam->cic] = ref;
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = endpoint_id_;
    arq->call_ref = ref;
    arq->calling = iam->calling;
    arq->called = iam->called;
    send_ip(config_.gk_ip, std::move(arq));
    return;
  }

  if (const auto* acm = msg_cast<IsupAcm>(&msg)) {
    relay_transit(env, *acm);
    return;
  }
  if (const auto* anm = msg_cast<IsupAnm>(&msg)) {
    relay_transit(env, *anm);
    return;
  }
  if (const auto* rel = msg_cast<IsupRel>(&msg)) {
    if (relay_transit(env, *rel)) return;
    // Caller hung up a VoIP-completed call: release the H.323 leg.
    Call* call = call_by_cic(rel->cic);
    if (call != nullptr) {
      auto q_rel = pool_message<Q931ReleaseComplete>();
      auto ref = by_cic_[rel->cic];
      q_rel->call_ref = ref;
      q_rel->cause = rel->cause;
      send_ip(call->remote_signal, std::move(q_rel));
      auto drq = pool_message<RasDrq>();
      drq->endpoint_id = endpoint_id_;
      drq->call_ref = ref;
      send_ip(config_.gk_ip, std::move(drq));
      auto rlc = pool_message<IsupRlc>();
      rlc->cic = rel->cic;
      send(env.from, std::move(rlc));
      by_cic_.erase(rel->cic);
      calls_.erase(ref);
    }
    return;
  }
  if (const auto* rlc = msg_cast<IsupRlc>(&msg)) {
    if (relay_transit(env, *rlc)) {
      auto it = transit_index_.find(rlc->cic);
      if (it != transit_index_.end()) {
        const TransitLeg& leg = transit_legs_[it->second];
        Cic in_cic = leg.up_cic;
        transit_index_.erase(leg.down_cic);
        transit_index_.erase(leg.up_cic);
        auto ref = by_cic_.find(in_cic);
        if (ref != by_cic_.end()) {
          calls_.erase(ref->second);
          by_cic_.erase(ref);
        }
      }
    }
    return;
  }
  if (const auto* voice = msg_cast<TrunkVoice>(&msg)) {
    if (relay_transit(env, *voice)) return;
    Call* call = call_by_cic(voice->cic);
    if (call != nullptr && call->remote_media.valid()) {
      auto rtp = pool_message<RtpPacket>();
      rtp->ssrc = endpoint_id_;
      rtp->seq = voice->seq;
      rtp->origin_us = voice->origin_us;
      send_ip(call->remote_media, std::move(rtp));
    }
    return;
  }

  VG_WARN("gw", name() << ": unhandled " << msg.name());
}

// --- IP side --------------------------------------------------------------------

void H323Gateway::on_ip(const IpDatagramInfo& dgram, const Message& inner) {
  if (const auto* rcf = msg_cast<RasRcf>(&inner)) {
    endpoint_id_ = rcf->endpoint_id;
    return;
  }

  if (const auto* acf = msg_cast<RasAcf>(&inner)) {
    Call* call = call_by_ref(acf->call_ref);
    if (call == nullptr) return;
    // Callee found in the gatekeeper's table: complete over VoIP
    // (Fig. 8 step (3)).
    call->voip = true;
    ++voip_calls_;
    call->remote_signal = acf->dest_call_signal_address.ip();
    auto setup = pool_message<Q931Setup>();
    setup->call_ref = acf->call_ref;
    setup->calling = call->calling;
    setup->called = call->called;
    setup->src_signal_address = TransportAddress(ip(), config_.signal_port);
    setup->media_address = TransportAddress(ip(), config_.media_port);
    send_ip(call->remote_signal, std::move(setup));
    return;
  }

  if (const auto* arj = msg_cast<RasArj>(&inner)) {
    Call* call = call_by_ref(arj->call_ref);
    if (call == nullptr) return;
    // Callee not registered in this zone: instruct normal PSTN routing
    // (Fig. 8 discussion -> international trunk), with a fresh circuit on
    // the outgoing trunk.
    ++fallback_calls_;
    Cic out_cic = allocate_cic();
    transit_legs_.push_back(
        TransitLeg{call->trunk_peer, call->cic, fallback(), out_cic});
    transit_index_[call->cic] = transit_legs_.size() - 1;
    transit_index_[out_cic] = transit_legs_.size() - 1;
    auto iam = pool_message<IsupIam>();
    iam->cic = out_cic;
    iam->calling = call->calling;
    iam->called = call->called;
    send(fallback(), std::move(iam));
    return;
  }

  if (msg_cast<Q931CallProceeding>(&inner) != nullptr) {
    return;
  }
  if (const auto* alert = msg_cast<Q931Alerting>(&inner)) {
    Call* call = call_by_ref(alert->call_ref);
    if (call == nullptr) return;
    auto acm = pool_message<IsupAcm>();
    acm->cic = call->cic;
    send(call->trunk_peer, std::move(acm));
    return;
  }
  if (const auto* conn = msg_cast<Q931Connect>(&inner)) {
    Call* call = call_by_ref(conn->call_ref);
    if (call == nullptr) return;
    call->remote_media = conn->media_address.ip();
    auto anm = pool_message<IsupAnm>();
    anm->cic = call->cic;
    send(call->trunk_peer, std::move(anm));
    return;
  }
  if (const auto* rel = msg_cast<Q931ReleaseComplete>(&inner)) {
    Call* call = call_by_ref(rel->call_ref);
    if (call == nullptr) return;
    auto isup_rel = pool_message<IsupRel>();
    isup_rel->cic = call->cic;
    isup_rel->cause = rel->cause;
    send(call->trunk_peer, std::move(isup_rel));
    auto drq = pool_message<RasDrq>();
    drq->endpoint_id = endpoint_id_;
    drq->call_ref = rel->call_ref;
    send_ip(config_.gk_ip, std::move(drq));
    by_cic_.erase(call->cic);
    calls_.erase(rel->call_ref);
    return;
  }
  if (msg_cast<RasDcf>(&inner) != nullptr) {
    return;
  }
  if (const auto* rtp = msg_cast<RtpPacket>(&inner)) {
    // Media from the VoIP leg toward the PSTN caller.
    for (auto& [ref, call] : calls_) {
      (void)ref;
      if (call.remote_media == dgram.src || call.voip) {
        auto voice = pool_message<TrunkVoice>();
        voice->cic = call.cic;
        voice->seq = rtp->seq;
        voice->origin_us = rtp->origin_us;
        send(call.trunk_peer, std::move(voice));
        return;
      }
    }
    return;
  }

  VG_WARN("gw", name() << ": unhandled " << inner.name());
}

}  // namespace vgprs
