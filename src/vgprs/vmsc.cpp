#include "vgprs/vmsc.hpp"

#include "common/log.hpp"

namespace vgprs {

const Vmsc::VgprsState* Vmsc::vgprs_state(Imsi imsi) const {
  return vgprs_states_.find(imsi);
}

std::size_t Vmsc::ready_count() const {
  std::size_t n = 0;
  for (const auto& [imsi, vs] : vgprs_states_) {
    (void)imsi;
    if (vs.phase == VgprsState::Phase::kReady) ++n;
  }
  return n;
}

MessagePtr Vmsc::tunneled(Imsi imsi, IpAddress src, IpAddress dst,
                          MessagePtr inner) const {
  auto frame = pool_message<GbUnitData>();
  frame->imsi = imsi;
  frame->inner = make_ip_datagram(src, dst, std::move(inner));
  return frame;
}

void Vmsc::send_tunneled(Imsi imsi, IpAddress src, IpAddress dst,
                         MessagePtr inner, SimDuration processing) {
  send(sgsn(), tunneled(imsi, src, dst, std::move(inner)), processing);
}

void Vmsc::send_sgsn_request(RetxKind kind, Imsi imsi, MessagePtr request,
                             std::function<void()> give_up) {
  retx().send(retx_key(kind, imsi), sgsn(), std::move(request),
              std::move(give_up));
}

void Vmsc::enter_phase(Imsi imsi, VgprsState& vs, VgprsState::Phase phase) {
  if (vs.phase == VgprsState::Phase::kAttaching) {
    retx().ack(retx_key(RetxKind::kGprsAttach, imsi));
  } else if (vs.phase == VgprsState::Phase::kRasRegistering) {
    retx().ack(retx_key(RetxKind::kRasRrq, imsi));
  }
  vs.phase = phase;
}

void Vmsc::forget(Imsi imsi) {
  for (RetxKind kind :
       {RetxKind::kGprsAttach, RetxKind::kRasRrq, RetxKind::kRasArq,
        RetxKind::kRasDrq, RetxKind::kRasUrq, RetxKind::kQ931Setup}) {
    retx().ack(retx_key(kind, imsi));
  }
  for (RetxKind kind : {RetxKind::kPdpActivateSig, RetxKind::kPdpActivateVoice,
                        RetxKind::kPdpDeactivateSig,
                        RetxKind::kPdpDeactivateVoice}) {
    if (!retx().ack(retx_key(kind, imsi))) continue;
    const bool activation = kind == RetxKind::kPdpActivateSig ||
                            kind == RetxKind::kPdpActivateVoice;
    net().spans().close(
        activation ? SpanKind::kPdpActivation : SpanKind::kPdpDeactivation,
        imsi.value(), SpanOutcome::kRejected, now());
  }
  vgprs_states_.erase(imsi);
}

// --- registration substrate (paper steps 1.3-1.5) -----------------------------

void Vmsc::on_registration_substrate(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  vs.alias = ctx.msisdn;
  if (vs.phase == VgprsState::Phase::kReady) {
    // Re-registration (e.g. movement within the VMSC area).
    finish_registration(ctx);
    return;
  }
  enter_phase(ctx.imsi, vs, VgprsState::Phase::kAttaching);
  auto attach = pool_message<GprsAttachRequest>();
  attach->imsi = ctx.imsi;
  send_sgsn_request(
      RetxKind::kGprsAttach, ctx.imsi, std::move(attach),
      [this, imsi = ctx.imsi] {
        // Giving up on the attach must also clear the vGPRS phase, or the
        // endpoint is wedged in kAttaching and every later registration
        // attempt short-circuits on the stale state.
        if (VgprsState* st = vgprs_states_.find(imsi);
            st != nullptr && st->phase == VgprsState::Phase::kAttaching) {
          enter_phase(imsi, *st, VgprsState::Phase::kNone);
        }
        if (MsContext* c = context(imsi)) {
          if (c->step == Step::kSubstrate) reject_registration(*c, 17);
        }
      });
}

void Vmsc::activate_signaling_context(Imsi imsi) {
  net().spans().open(SpanKind::kPdpActivation, imsi.value(), name(), now());
  auto req = pool_message<ActivatePdpContextRequest>();
  req->imsi = imsi;
  req->nsapi = kSignalingNsapi;
  req->qos = config_.signaling_qos;
  send_sgsn_request(
      RetxKind::kPdpActivateSig, imsi, std::move(req), [this, imsi] {
        // The signaling context is the substrate for everything: without
        // it neither registration nor a queued MO call can proceed.
        net().spans().close(SpanKind::kPdpActivation, imsi.value(),
                            SpanOutcome::kTimeout, now());
        if (VgprsState* st = vgprs_states_.find(imsi); st != nullptr) {
          st->mo_pending = false;
          if (st->phase == VgprsState::Phase::kActivatingSignaling) {
            enter_phase(imsi, *st, VgprsState::Phase::kNone);
          }
        }
        if (MsContext* ctx = context(imsi)) {
          if (ctx->step == Step::kSubstrate) {
            reject_registration(*ctx, 17);
          } else if (ctx->proc == Proc::kMoCall &&
                     ctx->step != Step::kActive) {
            reject_mo_call(*ctx, ClearCause::kNetworkFailure);
          }
        }
      });
}

void Vmsc::activate_voice_context(Imsi imsi) {
  net().spans().open(SpanKind::kPdpActivation, imsi.value(), name(), now());
  auto req = pool_message<ActivatePdpContextRequest>();
  req->imsi = imsi;
  req->nsapi = kVoiceNsapi;
  req->qos = config_.voice_qos;
  // The exchange outlives the call on purpose: an accept that arrives after
  // the release is what tears the late context down (handle_gprs).
  send_sgsn_request(
      RetxKind::kPdpActivateVoice, imsi, std::move(req), [this, imsi] {
        // The call survives without the conversational context: uplink
        // voice falls back to the signaling context (degraded QoS), which
        // is exactly what on_uplink_voice does when voice_active is false.
        net().spans().close(SpanKind::kPdpActivation, imsi.value(),
                            SpanOutcome::kTimeout, now());
        VG_WARN("vmsc", name() << ": no voice PDP context for "
                               << imsi.to_string()
                               << "; falling back to signaling context");
      });
}

void Vmsc::deactivate_context(Imsi imsi, Nsapi nsapi) {
  net().spans().open(SpanKind::kPdpDeactivation, imsi.value(), name(), now());
  auto req = pool_message<DeactivatePdpContextRequest>();
  req->imsi = imsi;
  req->nsapi = nsapi;
  send_sgsn_request(
      nsapi == kVoiceNsapi ? RetxKind::kPdpDeactivateVoice
                           : RetxKind::kPdpDeactivateSig,
      imsi, std::move(req), [this, imsi, nsapi] {
        // Locally the context is gone either way; a leaked context at the
        // SGSN is reclaimed at detach.
        net().spans().close(SpanKind::kPdpDeactivation, imsi.value(),
                            SpanOutcome::kTimeout, now());
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr) return;
        if (nsapi == kVoiceNsapi) {
          st->voice_active = false;
          st->voice_ip = IpAddress{};
        } else {
          st->signaling_active = false;
          st->signaling_ip = IpAddress{};
        }
      });
}

// --- MO call (paper Fig. 5) -----------------------------------------------------

void Vmsc::send_arq_for_mo(MsContext& ctx, VgprsState& vs) {
  auto arq = pool_message<RasArq>();
  arq->endpoint_id = vs.endpoint_id;
  arq->call_ref = ctx.call_ref;
  arq->calling = ctx.calling;
  arq->called = ctx.called;
  send_sgsn_request(
      RetxKind::kRasArq, ctx.imsi,
      tunneled(ctx.imsi, vs.signaling_ip, config_.gk_ip, std::move(arq)),
      [this, imsi = ctx.imsi] {
        if (MsContext* c = context(imsi)) {
          if (c->proc == Proc::kMoCall && c->step != Step::kActive) {
            reject_mo_call(*c, ClearCause::kNetworkFailure);
          }
        }
      });
}

void Vmsc::route_mo_call(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  if (vs.phase != VgprsState::Phase::kReady) {
    reject_mo_call(ctx, ClearCause::kNetworkFailure);
    return;
  }
  if (!vs.signaling_active) {
    // Idle-deactivation ablation: the signaling context must be rebuilt
    // (and the alias re-registered, since the PDP address is dynamic)
    // before any call signaling can flow.  This is the setup-time penalty
    // Section 6 attributes to the TR 23.821 lifecycle.
    vs.mo_pending = true;
    activate_signaling_context(ctx.imsi);
    return;
  }
  send_arq_for_mo(ctx, vs);
}

// --- release (paper steps 3.1-3.4) -----------------------------------------------

void Vmsc::send_drq(Imsi imsi, VgprsState& vs, CallRef call_ref) {
  auto drq = pool_message<RasDrq>();
  drq->endpoint_id = vs.endpoint_id;
  drq->call_ref = call_ref;
  vs.pending_drq_deactivate = vs.voice_active;
  send_sgsn_request(
      RetxKind::kRasDrq, imsi,
      tunneled(imsi, vs.signaling_ip, config_.gk_ip, std::move(drq)),
      [this, imsi] {
        // The gatekeeper will age the admission out; finish the local
        // teardown (step 3.4) that was waiting on the DCF.
        VgprsState* st = vgprs_states_.find(imsi);
        if (st == nullptr) return;
        if (st->pending_drq_deactivate) {
          st->pending_drq_deactivate = false;
          deactivate_context(imsi, kVoiceNsapi);
        }
      });
}

void Vmsc::detach_and_forget(Imsi imsi) {
  auto detach = pool_message<GprsDetachRequest>();
  detach->imsi = imsi;
  // The SGSN detach is idempotent and the MS table entry is gone by the
  // give-up; nothing further to unwind.
  send_sgsn_request(RetxKind::kGprsDetach, imsi, std::move(detach), {});
  forget(imsi);
}

void Vmsc::release_h323_leg(MsContext& ctx, ClearCause cause) {
  VgprsState& vs = vstate(ctx.imsi);
  // Step 3.2: release the H.323 leg.
  if (vs.remote_signal.valid() && vs.signaling_active) {
    auto rel = pool_message<Q931ReleaseComplete>();
    rel->call_ref = ctx.call_ref;
    rel->cause = static_cast<std::uint8_t>(cause);
    send_tunneled(ctx.imsi, vs.signaling_ip, vs.remote_signal, std::move(rel));
  }
  if (vs.signaling_active) {
    // Step 3.3: disengage at the gatekeeper (charging stops).  Step 3.4
    // (voice context deactivation) follows when the DCF arrives.
    send_drq(ctx.imsi, vs, ctx.call_ref);
  } else if (vs.voice_active) {
    deactivate_context(ctx.imsi, kVoiceNsapi);
  }
}

void Vmsc::on_ms_disconnect(MsContext& ctx, ClearCause cause) {
  release_h323_leg(ctx, cause);
  complete_ms_release(ctx);
}

void Vmsc::on_call_aborted(MsContext& ctx) {
  release_h323_leg(ctx, ClearCause::kNetworkFailure);
}

void Vmsc::on_mt_alerting(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  auto alert = pool_message<Q931Alerting>();
  alert->call_ref = ctx.call_ref;
  send_tunneled(ctx.imsi, vs.signaling_ip, vs.remote_signal, std::move(alert));
}

void Vmsc::on_mt_connected(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  auto conn = pool_message<Q931Connect>();
  conn->call_ref = ctx.call_ref;
  conn->media_address =
      TransportAddress(vs.signaling_ip, config_.media_port);
  send_tunneled(ctx.imsi, vs.signaling_ip, vs.remote_signal, std::move(conn));
  // Step 4.8: second PDP context for the voice packets.
  activate_voice_context(ctx.imsi);
}

void Vmsc::on_call_cleared(MsContext& ctx) {
  VgprsState& vs = vstate(ctx.imsi);
  vs.remote_signal = IpAddress{};
  vs.remote_media = IpAddress{};
  // An admission request still pending ends with the call: the MT one
  // waits on awaiting_admission, and an MO one the re-registration sent
  // during the release serves a call that is gone.
  vs.awaiting_admission = false;
  retx().ack(retx_key(RetxKind::kRasArq, ctx.imsi));
  vs.mo_pending = false;
  if (config_.deactivate_pdp_when_idle && vs.signaling_active) {
    deactivate_context(ctx.imsi, kSignalingNsapi);
  }
}

void Vmsc::on_subscriber_removed(const MsContext& ctx) {
  VgprsState* found = vgprs_states_.find(ctx.imsi);
  if (found == nullptr) return;
  VgprsState& vs = *found;
  // Unregister the alias at the gatekeeper first (a stale endpoint id is
  // ignored if the subscriber already re-registered elsewhere); the GPRS
  // detach waits for the UCF so the confirmation can still ride the
  // signaling context.  Without an active context, detach immediately.
  if (vs.signaling_active && vs.endpoint_id != 0) {
    vs.pending_detach = true;
    auto urq = pool_message<RasUrq>();
    urq->alias = vs.alias;
    urq->endpoint_id = vs.endpoint_id;
    send_sgsn_request(
        RetxKind::kRasUrq, ctx.imsi,
        tunneled(ctx.imsi, vs.signaling_ip, config_.gk_ip, std::move(urq)),
        [this, imsi = ctx.imsi] {
          // The gatekeeper stayed silent; detach anyway — a stale alias
          // there is replaced on the next registration.
          VgprsState* st = vgprs_states_.find(imsi);
          if (st == nullptr || !st->pending_detach) return;
          detach_and_forget(imsi);
        });
    return;
  }
  detach_and_forget(ctx.imsi);
}

// --- voice interworking (vocoder bank + PCU) ---------------------------------------

void Vmsc::on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) {
  VgprsState& vs = vstate(ctx.imsi);
  if (!vs.remote_media.valid()) return;
  auto rtp = pool_message<RtpPacket>();
  rtp->ssrc = vs.endpoint_id;
  rtp->seq = frame.seq;
  rtp->timestamp = frame.seq * 160;
  rtp->origin_us = frame.origin_us;
  IpAddress src = vs.voice_active ? vs.voice_ip : vs.signaling_ip;
  send_tunneled(ctx.imsi, src, vs.remote_media, std::move(rtp),
                config_.transcode_delay);
}

// --- GPRS control plane ---------------------------------------------------------------

bool Vmsc::handle_gprs(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* acc = msg_cast<GprsAttachAccept>(&msg)) {
    retx().ack(retx_key(RetxKind::kGprsAttach, acc->imsi));
    VgprsState* vs = vgprs_states_.find(acc->imsi);
    if (vs == nullptr || vs->phase != VgprsState::Phase::kAttaching) {
      return true;
    }
    enter_phase(acc->imsi, *vs, VgprsState::Phase::kActivatingSignaling);
    activate_signaling_context(acc->imsi);
    return true;
  }
  if (const auto* rej = msg_cast<GprsAttachReject>(&msg)) {
    retx().ack(retx_key(RetxKind::kGprsAttach, rej->imsi));
    VG_WARN("vmsc", name() << ": GPRS attach rejected for "
                           << rej->imsi.to_string());
    if (MsContext* ctx = context(rej->imsi)) {
      if (ctx->step == Step::kSubstrate) reject_registration(*ctx, 17);
    }
    forget(rej->imsi);
    return true;
  }
  if (const auto* acc = msg_cast<ActivatePdpContextAccept>(&msg)) {
    retx().ack(retx_key(acc->nsapi == kVoiceNsapi
                            ? RetxKind::kPdpActivateVoice
                            : RetxKind::kPdpActivateSig,
                        acc->imsi));
    net().spans().close(SpanKind::kPdpActivation, acc->imsi.value(),
                        SpanOutcome::kOk, now());
    // An answer for a subscriber this VMSC has forgotten is dropped: its
    // GPRS detach removes the context at the SGSN.
    VgprsState* found = vgprs_states_.find(acc->imsi);
    if (found == nullptr) return true;
    VgprsState& vs = *found;
    if (acc->nsapi == kVoiceNsapi) {
      // The call may have been released while the activation was in
      // flight; a voice context without an active call is torn down
      // immediately, or it would leak until detach.
      MsContext* ctx = context(acc->imsi);
      if (ctx == nullptr || ctx->step != Step::kActive) {
        deactivate_context(acc->imsi, kVoiceNsapi);
        return true;
      }
      vs.voice_ip = acc->address;
      vs.voice_active = true;
      return true;
    }
    vs.signaling_ip = acc->address;
    vs.signaling_active = true;
    enter_phase(acc->imsi, vs, VgprsState::Phase::kRasRegistering);
    // Step 1.4: end-point registration at the gatekeeper, through the
    // freshly activated signaling context.
    auto rrq = pool_message<RasRrq>();
    rrq->call_signal_address =
        TransportAddress(vs.signaling_ip, config_.signal_port);
    rrq->alias = vs.alias;
    send_sgsn_request(
        RetxKind::kRasRrq, acc->imsi,
        tunneled(acc->imsi, vs.signaling_ip, config_.gk_ip, std::move(rrq)),
        [this, imsi = acc->imsi] {
          if (VgprsState* st = vgprs_states_.find(imsi);
              st != nullptr &&
              st->phase == VgprsState::Phase::kRasRegistering) {
            enter_phase(imsi, *st, VgprsState::Phase::kNone);
          }
          if (MsContext* c = context(imsi)) {
            if (c->step == Step::kSubstrate) reject_registration(*c, 17);
          }
        });
    return true;
  }
  if (const auto* rej = msg_cast<ActivatePdpContextReject>(&msg)) {
    retx().ack(retx_key(rej->nsapi == kVoiceNsapi
                            ? RetxKind::kPdpActivateVoice
                            : RetxKind::kPdpActivateSig,
                        rej->imsi));
    net().spans().close(SpanKind::kPdpActivation, rej->imsi.value(),
                        SpanOutcome::kRejected, now());
    VG_WARN("vmsc", name() << ": PDP activation rejected for "
                           << rej->imsi.to_string() << " cause "
                           << static_cast<int>(rej->cause));
    // A signaling-context rejection ends the activation phase; leaving the
    // phase at kActivatingSignaling wedged every subsequent registration
    // for this IMSI (vgprs_verify deadlock finding).
    if (rej->nsapi != kVoiceNsapi) {
      if (VgprsState* st = vgprs_states_.find(rej->imsi);
          st != nullptr &&
          st->phase == VgprsState::Phase::kActivatingSignaling) {
        enter_phase(rej->imsi, *st, VgprsState::Phase::kNone);
      }
    }
    if (MsContext* ctx = context(rej->imsi)) {
      if (ctx->step == Step::kSubstrate) reject_registration(*ctx, 17);
    }
    return true;
  }
  if (const auto* acc = msg_cast<DeactivatePdpContextAccept>(&msg)) {
    retx().ack(retx_key(acc->nsapi == kVoiceNsapi
                            ? RetxKind::kPdpDeactivateVoice
                            : RetxKind::kPdpDeactivateSig,
                        acc->imsi));
    net().spans().close(SpanKind::kPdpDeactivation, acc->imsi.value(),
                        SpanOutcome::kOk, now());
    VgprsState* vs = vgprs_states_.find(acc->imsi);
    if (vs == nullptr) return true;  // forgotten while the delete ran
    if (acc->nsapi == kVoiceNsapi) {
      vs->voice_active = false;
      vs->voice_ip = IpAddress{};
    } else {
      vs->signaling_active = false;
      vs->signaling_ip = IpAddress{};
    }
    return true;
  }
  if (const auto* acc = msg_cast<GprsDetachAccept>(&msg)) {
    retx().ack(retx_key(RetxKind::kGprsDetach, acc->imsi));
    return true;
  }
  if (const auto* frame = msg_cast<GbUnitData>(&msg)) {
    const auto* dgram = msg_cast<IpDatagram>(frame->inner.get());
    if (dgram != nullptr && dgram->inner != nullptr) {
      handle_tunneled(frame->imsi, *dgram, *dgram->inner);
    }
    return true;
  }

  return false;
}

// --- tunneled H.323 signaling -------------------------------------------------------------

void Vmsc::handle_tunneled(Imsi imsi, const IpDatagramInfo& dgram,
                           const Message& inner) {
  VgprsState& vs = vstate(imsi);

  if (const auto* rcf = msg_cast<RasRcf>(&inner)) {
    retx().ack(retx_key(RetxKind::kRasRrq, imsi));
    vs.endpoint_id = rcf->endpoint_id;
    enter_phase(imsi, vs, VgprsState::Phase::kReady);
    MsContext* ctx = context(imsi);
    if (ctx != nullptr && ctx->step == Step::kSubstrate) {
      // Step 1.5 done: MM and PDP contexts recorded, complete step 1.6.
      finish_registration(*ctx);
      if (config_.deactivate_pdp_when_idle) {
        deactivate_context(imsi, kSignalingNsapi);
      }
    }
    if (vs.mo_pending && ctx != nullptr) {
      vs.mo_pending = false;
      send_arq_for_mo(*ctx, vs);
    }
    if (on_endpoint_ready) on_endpoint_ready(imsi);
    return;
  }
  if (const auto* rrj = msg_cast<RasRrj>(&inner)) {
    retx().ack(retx_key(RetxKind::kRasRrq, imsi));
    VG_WARN("vmsc", name() << ": RAS registration rejected, cause "
                           << static_cast<int>(rrj->cause));
    if (vs.phase == VgprsState::Phase::kRasRegistering) {
      enter_phase(imsi, vs, VgprsState::Phase::kNone);
    }
    if (MsContext* ctx = context(imsi)) {
      if (ctx->step == Step::kSubstrate) reject_registration(*ctx, 17);
    }
    return;
  }

  if (const auto* acf = msg_cast<RasAcf>(&inner)) {
    retx().ack(retx_key(RetxKind::kRasArq, imsi));
    MsContext* ctx = context(imsi);
    if (ctx == nullptr) return;
    if (vs.awaiting_admission) {
      // Step 4.3 complete: begin GSM-side delivery (paging, step 4.4).
      vs.awaiting_admission = false;
      if (!start_mt_call(imsi, vs.mt_calling, vs.mt_call_ref)) {
        auto rel = pool_message<Q931ReleaseComplete>();
        rel->call_ref = vs.mt_call_ref;
        rel->cause = 17;  // busy
        send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, std::move(rel));
      }
      return;
    }
    if (ctx->step == Step::kMoProgress) {
      // Step 2.3 complete: the gatekeeper supplied the destination call
      // signaling address; send the Q.931 Setup (step 2.4).  An ACF that
      // lands after the MS hung up sets up no far-end leg.
      vs.remote_signal = acf->dest_call_signal_address.ip();
      auto setup = pool_message<Q931Setup>();
      setup->call_ref = ctx->call_ref;
      setup->calling = ctx->calling;
      setup->called = ctx->called;
      setup->src_signal_address =
          TransportAddress(vs.signaling_ip, config_.signal_port);
      setup->media_address =
          TransportAddress(vs.signaling_ip, config_.media_port);
      send_sgsn_request(
          RetxKind::kQ931Setup, imsi,
          tunneled(imsi, vs.signaling_ip, vs.remote_signal, std::move(setup)),
          [this, imsi] {
            if (MsContext* c = context(imsi)) {
              if (c->proc == Proc::kMoCall && c->step != Step::kActive) {
                reject_mo_call(*c, ClearCause::kNetworkFailure);
              }
            }
          });
    }
    return;
  }
  if (const auto* arj = msg_cast<RasArj>(&inner)) {
    retx().ack(retx_key(RetxKind::kRasArq, imsi));
    MsContext* ctx = context(imsi);
    if (ctx == nullptr) return;
    if (vs.awaiting_admission) {
      vs.awaiting_admission = false;
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = vs.mt_call_ref;
      rel->cause = 47;
      send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, std::move(rel));
      return;
    }
    if (ctx->proc == Proc::kMoCall) {
      VG_INFO("vmsc", name() << ": admission rejected, cause "
                             << static_cast<int>(arj->cause));
      reject_mo_call(*ctx, ClearCause::kCallRejected);
    }
    return;
  }
  if (msg_cast<RasDcf>(&inner) != nullptr) {
    retx().ack(retx_key(RetxKind::kRasDrq, imsi));
    if (vs.pending_drq_deactivate) {
      // Step 3.4: deactivate the per-call voice PDP context.
      vs.pending_drq_deactivate = false;
      deactivate_context(imsi, kVoiceNsapi);
    }
    return;
  }
  if (msg_cast<RasUcf>(&inner) != nullptr) {
    retx().ack(retx_key(RetxKind::kRasUrq, imsi));
    if (vs.pending_detach) detach_and_forget(imsi);
    return;
  }

  if (const auto* setup = msg_cast<Q931Setup>(&inner)) {
    // Step 4.2: an incoming H.323 call reached the MS's signaling context.
    MsContext* ctx = context(imsi);
    auto busy = [&] {
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = setup->call_ref;
      rel->cause = 17;
      send_tunneled(imsi, vs.signaling_ip, setup->src_signal_address.ip(),
                    std::move(rel));
    };
    if (ctx == nullptr || !ctx->registered || ctx->proc != Proc::kNone ||
        vs.phase != VgprsState::Phase::kReady) {
      busy();
      return;
    }
    vs.remote_signal = setup->src_signal_address.ip();
    vs.remote_media = setup->media_address.ip();
    vs.mt_calling = setup->calling;
    vs.mt_call_ref = setup->call_ref;
    auto proceed = pool_message<Q931CallProceeding>();
    proceed->call_ref = setup->call_ref;
    send_tunneled(imsi, vs.signaling_ip, vs.remote_signal, std::move(proceed));
    // Step 4.3: admission for the terminating leg.
    vs.awaiting_admission = true;
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = vs.endpoint_id;
    arq->call_ref = setup->call_ref;
    arq->calling = setup->calling;
    arq->called = vs.alias;
    arq->answer_call = true;
    send_sgsn_request(
        RetxKind::kRasArq, imsi,
        tunneled(imsi, vs.signaling_ip, config_.gk_ip, std::move(arq)),
        [this, imsi] {
          // No admission decision: tell the caller the leg failed; no GSM
          // resources were committed yet (paging starts only at the ACF).
          VgprsState* st = vgprs_states_.find(imsi);
          if (st == nullptr || !st->awaiting_admission) return;
          st->awaiting_admission = false;
          auto rel = pool_message<Q931ReleaseComplete>();
          rel->call_ref = st->mt_call_ref;
          rel->cause = 47;
          send_tunneled(imsi, st->signaling_ip, st->remote_signal,
                        std::move(rel));
        });
    return;
  }
  if (msg_cast<Q931CallProceeding>(&inner) != nullptr) {
    retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    return;  // step 2.4 response; informational
  }
  if (const auto* alert = msg_cast<Q931Alerting>(&inner)) {
    retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    // Step 2.6 -> 2.7: ring-back toward the MS.  Tunneled messages are
    // dispatched by the subscriber the datagram was addressed to: two call
    // legs may legitimately share one H.225 call reference (e.g. an
    // MS-to-MS call hairpinning at the GGSN).
    MsContext* ctx = context(imsi);
    if (ctx != nullptr && ctx->proc == Proc::kMoCall &&
        ctx->step == Step::kMoProgress && alert->call_ref == ctx->call_ref) {
      notify_mo_alerting(*ctx);
    }
    return;
  }
  if (const auto* conn = msg_cast<Q931Connect>(&inner)) {
    retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    // Step 2.8: answer; step 2.9: activate the voice context.
    MsContext* ctx = context(imsi);
    // Answer racing a local release (the MS hung up while the Connect was
    // in flight) must not resurrect the call: only an MO call still in
    // progress may transition to active.
    if (ctx == nullptr || ctx->proc != Proc::kMoCall ||
        ctx->step != Step::kMoProgress || conn->call_ref != ctx->call_ref) {
      return;
    }
    vs.remote_media = conn->media_address.ip();
    notify_mo_connect(*ctx);
    activate_voice_context(imsi);
    return;
  }
  if (const auto* rel = msg_cast<Q931ReleaseComplete>(&inner)) {
    retx().ack(retx_key(RetxKind::kQ931Setup, imsi));
    MsContext* ctx = context(imsi);
    if (ctx != nullptr && rel->call_ref != ctx->call_ref) ctx = nullptr;
    if (ctx == nullptr || ctx->proc == Proc::kNone) return;
    if (ctx->step == Step::kReleasingMs || ctx->step == Step::kReleasingNet ||
        ctx->step == Step::kClearing) {
      return;  // already clearing
    }
    release_from_network(*ctx, static_cast<ClearCause>(rel->cause));
    send_drq(imsi, vs, rel->call_ref);
    return;
  }

  if (const auto* rtp = msg_cast<RtpPacket>(&inner)) {
    MsContext* ctx = context(imsi);
    if (ctx != nullptr && ctx->step == Step::kActive) {
      send_downlink_voice(*ctx, rtp->seq, rtp->origin_us,
                          config_.transcode_delay);
    }
    return;
  }

  VG_DEBUG("vmsc", name() << ": ignoring tunneled " << inner.name()
                          << " from " << dgram.src.to_string());
}

bool Vmsc::on_unhandled(const Envelope& env) { return handle_gprs(env); }

}  // namespace vgprs
