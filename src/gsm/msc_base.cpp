#include "gsm/msc_base.hpp"

#include "common/log.hpp"
#include "gsm/auth.hpp"

namespace vgprs {

namespace {
// A guard's cookie names its subscriber.  Imsi equality compares the digit
// count too, so the count rides above the value.
constexpr std::uint64_t guard_cookie(Imsi imsi) {
  return (std::uint64_t{imsi.digits()} << 56) | imsi.value();
}
constexpr Imsi guard_imsi(std::uint64_t cookie) {
  return Imsi(cookie & 0x00FFFFFFFFFFFFFFULL,
              static_cast<std::uint8_t>(cookie >> 56));
}
}  // namespace

void MscBase::adopt_cell(CellId cell, std::string bsc_name) {
  own_cells_[cell] = std::move(bsc_name);
}

void MscBase::add_remote_cell(CellId cell, std::string msc_name) {
  remote_cells_[cell] = std::move(msc_name);
}

const MscBase::MsContext* MscBase::context_of(Imsi imsi) const {
  return contexts_.find(imsi);
}

MscBase::MsContext* MscBase::context(Imsi imsi) {
  return contexts_.find(imsi);
}

MscBase::MsContext* MscBase::context_by_call(CallRef call_ref) {
  const Imsi* imsi = call_index_.find(call_ref);
  return imsi == nullptr ? nullptr : context(*imsi);
}

NodeId MscBase::downlink(const MsContext& ctx) const {
  return ctx.handed_off ? ctx.remote_msc : ctx.bsc;
}

// --- request retransmission ---------------------------------------------------

void MscBase::send_vlr_request(RetxKind kind, Imsi imsi, MessagePtr request) {
  retx_.send(retx_key(kind, imsi), vlr(), std::move(request), [this, imsi] {
    MsContext* ctx = context(imsi);
    if (ctx == nullptr || ctx->proc == Proc::kNone ||
        ctx->step == Step::kActive) {
      return;
    }
    abort_procedure(*ctx);
  });
}

void MscBase::set_step(MsContext& ctx, Step step) {
  switch (ctx.step) {
    case Step::kAuthInfo:
      retx_.ack(retx_key(RetxKind::kMapAuth, ctx.imsi));
      break;
    case Step::kUla:
      retx_.ack(retx_key(RetxKind::kMapUla, ctx.imsi));
      break;
    case Step::kAuthorize:
      retx_.ack(retx_key(RetxKind::kMapOutCall, ctx.imsi));
      break;
    case Step::kMoProgress:
      retx_.ack(retx_key(RetxKind::kRasArq, ctx.imsi));
      retx_.ack(retx_key(RetxKind::kQ931Setup, ctx.imsi));
      break;
    default:
      break;
  }
  ctx.step = step;
}

void MscBase::drop_requests(Imsi imsi) {
  for (RetxKind kind :
       {RetxKind::kMapAuth, RetxKind::kMapUla, RetxKind::kMapOutCall,
        RetxKind::kGprsAttach, RetxKind::kPdpActivateSig,
        RetxKind::kPdpActivateVoice, RetxKind::kPdpDeactivateSig,
        RetxKind::kPdpDeactivateVoice, RetxKind::kGprsDetach,
        RetxKind::kRasRrq, RetxKind::kRasArq, RetxKind::kRasDrq,
        RetxKind::kRasUrq, RetxKind::kQ931Setup}) {
    retx_.ack(retx_key(kind, imsi));
  }
}

// --- security sub-procedure --------------------------------------------------

void MscBase::begin_auth(MsContext& ctx) {
  set_step(ctx, Step::kAuthInfo);
  auto req = pool_message<MapSendAuthInfo>();
  req->imsi = ctx.imsi;
  send_vlr_request(RetxKind::kMapAuth, ctx.imsi, std::move(req));
}

void MscBase::continue_after_security(MsContext& ctx) {
  switch (ctx.proc) {
    case Proc::kRegister:
      send_ula(ctx);
      break;
    case Proc::kMoCall: {
      set_step(ctx, Step::kAwaitSetup);
      auto acc = pool_message<ACmServiceAccept>();
      acc->imsi = ctx.imsi;
      send(ctx.bsc, std::move(acc));
      break;
    }
    case Proc::kMtCall: {
      // Deliver the call: Setup plus early traffic-channel assignment
      // (paper step 4.5: "traffic channel assignment ... The VMSC sends
      // A_Setup to the BSC").
      set_step(ctx, Step::kAwaitAlert);
      auto setup = pool_message<ASetup>();
      setup->imsi = ctx.imsi;
      setup->call_ref = ctx.call_ref;
      setup->calling = ctx.calling;
      send(ctx.bsc, std::move(setup));
      auto assign = pool_message<AAssignmentRequest>();
      assign->imsi = ctx.imsi;
      assign->call_ref = ctx.call_ref;
      send(ctx.bsc, std::move(assign));
      break;
    }
    case Proc::kNone:
      break;
  }
}

void MscBase::send_ula(MsContext& ctx) {
  set_step(ctx, Step::kUla);
  auto ula = pool_message<MapUpdateLocationArea>();
  ula->imsi = ctx.imsi;
  ula->lai = ctx.lai;
  ula->msc_name = name();
  send_vlr_request(RetxKind::kMapUla, ctx.imsi, std::move(ula));
}

void MscBase::finish_registration(MsContext& ctx) {
  disarm_procedure_guard(ctx);
  ++net().metrics().counter(name() + "/registrations_accepted");
  ctx.registered = true;
  ctx.proc = Proc::kNone;
  set_step(ctx, Step::kNone);
  auto acc = pool_message<ALocationUpdateAccept>();
  acc->imsi = ctx.imsi;
  acc->lai = ctx.lai;
  acc->new_tmsi = ctx.tmsi;
  send(ctx.bsc, std::move(acc));
  if (on_ms_registered) on_ms_registered(ctx);
}

void MscBase::reject_registration(MsContext& ctx, std::uint8_t cause) {
  drop_requests(ctx.imsi);
  disarm_procedure_guard(ctx);
  ctx.proc = Proc::kNone;
  set_step(ctx, Step::kNone);
  ctx.registered = false;
  auto rej = pool_message<ALocationUpdateReject>();
  rej->imsi = ctx.imsi;
  rej->cause = cause;
  send(ctx.bsc, std::move(rej));
}

// --- MO helpers ----------------------------------------------------------------

void MscBase::notify_mo_alerting(MsContext& ctx) {
  auto alert = pool_message<AAlerting>();
  alert->imsi = ctx.imsi;
  alert->call_ref = ctx.call_ref;
  send(downlink(ctx), std::move(alert));
}

void MscBase::notify_mo_connect(MsContext& ctx) {
  disarm_procedure_guard(ctx);
  set_step(ctx, Step::kActive);
  auto conn = pool_message<AConnect>();
  conn->imsi = ctx.imsi;
  conn->call_ref = ctx.call_ref;
  send(downlink(ctx), std::move(conn));
}

void MscBase::reject_mo_call(MsContext& ctx, ClearCause cause) {
  release_from_network(ctx, cause);
}

// --- MT entry point ---------------------------------------------------------------

bool MscBase::start_mt_call(Imsi imsi, Msisdn calling, CallRef call_ref) {
  MsContext* ctx = context(imsi);
  if (ctx == nullptr || !ctx->registered || ctx->proc != Proc::kNone) {
    return false;
  }
  ctx->proc = Proc::kMtCall;
  arm_procedure_guard(*ctx);
  net().spans().open(SpanKind::kTermination, imsi.value(), name(), now());
  ++net().metrics().counter(name() + "/mt_calls_started");
  set_step(*ctx, Step::kPaging);
  ctx->call_ref = call_ref;
  ctx->calling = calling;
  call_index_[call_ref] = imsi;
  auto page = pool_message<APaging>();
  page->imsi = imsi;
  page->tmsi = ctx->tmsi;
  send(ctx->bsc, std::move(page));
  return true;
}

// --- release -----------------------------------------------------------------------

void MscBase::complete_ms_release(MsContext& ctx) {
  auto rel = pool_message<ARelease>();
  rel->imsi = ctx.imsi;
  rel->call_ref = ctx.call_ref;
  send(downlink(ctx), std::move(rel));
}

void MscBase::release_from_network(MsContext& ctx, ClearCause cause) {
  arm_procedure_guard(ctx);
  set_step(ctx, Step::kReleasingNet);
  auto disc = pool_message<ADisconnect>();
  disc->imsi = ctx.imsi;
  disc->call_ref = ctx.call_ref;
  disc->cause = cause;
  send(downlink(ctx), std::move(disc));
}

void MscBase::clear_radio(MsContext& ctx) {
  set_step(ctx, Step::kClearing);
  auto clear = pool_message<AClearCommand>();
  clear->imsi = ctx.imsi;
  clear->call_ref = ctx.call_ref;
  send(ctx.handed_off ? ctx.remote_msc : ctx.bsc, std::move(clear));
}

void MscBase::send_downlink_voice(MsContext& ctx, std::uint32_t seq,
                                  std::int64_t origin_us,
                                  SimDuration processing) {
  VoiceFrameInfo info;
  info.imsi = ctx.imsi;
  info.call_ref = ctx.call_ref;
  info.uplink = false;
  info.seq = seq;
  info.origin_us = origin_us;
  if (ctx.handed_off) {
    auto out = pool_message<ETrunkVoice>();
    static_cast<VoiceFrameInfo&>(*out) = info;
    send(ctx.remote_msc, std::move(out), processing);
  } else {
    auto out = pool_message<AVoiceFrame>();
    static_cast<VoiceFrameInfo&>(*out) = info;
    send(ctx.bsc, std::move(out), processing);
  }
}

// --- inter-system handoff -------------------------------------------------------------

bool MscBase::handle_handover(const Envelope& env) {
  const Message& msg = *env.msg;

  // Anchor: the serving BSC reports that the MS must move to a cell we do
  // not control.
  if (const auto* req = msg_cast<AHandoverRequired>(&msg)) {
    MsContext* ctx = context(req->imsi);
    if (ctx == nullptr) return true;
    auto it = remote_cells_.find(req->target_cell);
    if (it == remote_cells_.end()) {
      VG_WARN("msc", name() << ": no MSC for cell "
                            << req->target_cell.to_string());
      return true;
    }
    Node* target = net().node_by_name(it->second);
    if (target == nullptr) return true;
    net().spans().open(SpanKind::kHandoff, req->imsi.value(), name(), now());
    ++net().metrics().counter(name() + "/handoffs_started");
    ctx->handover_target = req->target_cell;
    ctx->remote_msc = target->id();
    auto prep = pool_message<MapPrepareHandover>();
    prep->imsi = req->imsi;
    prep->call_ref = req->call_ref;
    prep->target_cell = req->target_cell;
    prep->anchor_msc = name();
    send(target->id(), std::move(prep));
    // The MAP exchange is fire-and-forget per message (the exempted
    // retransmission rows promise the anchor supervises end-to-end):
    // bound the whole attempt so a dead target MSC or lost end signal
    // returns the call to the serving cell instead of wedging it.
    cancel_timer(ctx->handoff_guard);
    ctx->handoff_guard =
        set_timer(config_.handoff_guard, guard_cookie(req->imsi));
    return true;
  }

  // Target: the anchor asks us to prepare radio resources.
  if (const auto* prep = msg_cast<MapPrepareHandover>(&msg)) {
    auto it = own_cells_.find(prep->target_cell);
    auto nack = [&] {
      auto ack = pool_message<MapPrepareHandoverAck>();
      ack->imsi = prep->imsi;
      ack->call_ref = prep->call_ref;
      ack->success = false;
      send(env.from, std::move(ack));
    };
    if (it == own_cells_.end()) {
      nack();
      return true;
    }
    Node* bsc = net().node_by_name(it->second);
    if (bsc == nullptr) {
      nack();
      return true;
    }
    MsContext& ctx = contexts_[prep->imsi];
    ctx.imsi = prep->imsi;
    ctx.handed_in = true;
    ctx.remote_msc = env.from;
    ctx.bsc = bsc->id();
    ctx.cell = prep->target_cell;
    ctx.call_ref = prep->call_ref;
    call_index_[prep->call_ref] = prep->imsi;
    auto req = pool_message<AHandoverRequest>();
    req->imsi = prep->imsi;
    req->call_ref = prep->call_ref;
    req->target_cell = prep->target_cell;
    send(ctx.bsc, std::move(req));
    return true;
  }

  // Target: the anchor abandoned the attempt (its handoff guard expired).
  // A reservation the MS never took up is released; a context the MS
  // already moved onto keeps serving.
  if (const auto* abort = msg_cast<MapUAbort>(&msg)) {
    MsContext* ctx = context(abort->imsi);
    if (ctx == nullptr || !ctx->handed_in || ctx->arrived ||
        ctx->remote_msc != env.from) {
      return true;
    }
    auto clear = pool_message<AClearCommand>();
    clear->imsi = abort->imsi;
    clear->call_ref = abort->call_ref;
    send(ctx->bsc, std::move(clear));
    call_index_.erase(ctx->call_ref);
    contexts_.erase(abort->imsi);
    return true;
  }

  // Target: its BSC reserved (or failed to reserve) a channel.
  if (const auto* ack = msg_cast<AHandoverRequestAck>(&msg)) {
    MsContext* ctx = context(ack->imsi);
    if (ctx == nullptr || !ctx->handed_in) return true;
    auto out = pool_message<MapPrepareHandoverAck>();
    out->imsi = ack->imsi;
    out->call_ref = ack->call_ref;
    out->channel = ack->channel;
    out->success = ack->channel != 0;
    send(ctx->remote_msc, std::move(out));
    return true;
  }

  // Anchor: resources ready at the target; command the MS over.  An ack
  // with no attempt pending (it arrived after the handoff guard gave up)
  // must not command the MS toward an unset cell.
  if (const auto* ack = msg_cast<MapPrepareHandoverAck>(&msg)) {
    MsContext* ctx = context(ack->imsi);
    if (ctx == nullptr || !ctx->handover_target.valid()) return true;
    if (!ack->success) {
      VG_WARN("msc", name() << ": handover preparation failed for "
                            << ack->imsi.to_string());
      net().spans().close(SpanKind::kHandoff, ack->imsi.value(),
                          SpanOutcome::kRejected, now());
      ctx->handover_target = CellId{};
      cancel_timer(ctx->handoff_guard);
      return true;
    }
    auto cmd = pool_message<AHandoverCommand>();
    cmd->imsi = ack->imsi;
    cmd->call_ref = ack->call_ref;
    cmd->target_cell = ctx->handover_target;
    cmd->channel = ack->channel;
    send(ctx->bsc, std::move(cmd));
    return true;
  }

  if (const auto* det = msg_cast<AHandoverDetect>(&msg)) {
    VG_DEBUG("msc", name() << ": handover detect " << det->imsi.to_string());
    return true;
  }

  // Target: the MS completed the move; tell the anchor (MAP E interface).
  if (const auto* done = msg_cast<AHandoverComplete>(&msg)) {
    MsContext* ctx = context(done->imsi);
    if (ctx == nullptr || !ctx->handed_in) return false;
    ctx->arrived = true;
    auto end = pool_message<MapSendEndSignal>();
    end->imsi = done->imsi;
    end->call_ref = done->call_ref;
    send(ctx->remote_msc, std::move(end));
    return true;
  }

  // Anchor: switch the call path onto the inter-MSC trunk and release the
  // old radio resources.  The anchor stays in the call path (Fig. 9(b)).
  if (const auto* end = msg_cast<MapSendEndSignal>(&msg)) {
    MsContext* ctx = context(end->imsi);
    if (ctx == nullptr) return true;
    net().spans().close(SpanKind::kHandoff, end->imsi.value(),
                        SpanOutcome::kOk, now());
    ++net().metrics().counter(name() + "/handoffs_completed");
    cancel_timer(ctx->handoff_guard);
    NodeId old_bsc = ctx->bsc;
    ctx->handed_off = true;
    ctx->remote_msc = env.from;
    auto clear = pool_message<AClearCommand>();
    clear->imsi = end->imsi;
    clear->call_ref = end->call_ref;
    send(old_bsc, std::move(clear));
    return true;
  }

  return false;
}

// --- MAP responses ------------------------------------------------------------------------

bool MscBase::handle_map_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* ack = msg_cast<MapSendAuthInfoAck>(&msg)) {
    retx_.ack(retx_key(RetxKind::kMapAuth, ack->imsi));
    MsContext* ctx = context(ack->imsi);
    if (ctx == nullptr || ctx->step != Step::kAuthInfo) return true;
    if (ack->triplets.empty()) {
      if (ctx->proc == Proc::kRegister) {
        reject_registration(*ctx, 6);  // no auth vectors
      } else {
        auto rej = pool_message<ACmServiceReject>();
        rej->imsi = ctx->imsi;
        rej->cause = 6;
        send(ctx->bsc, std::move(rej));
        ctx->proc = Proc::kNone;
        set_step(*ctx, Step::kNone);
      }
      return true;
    }
    ctx->triplet = ack->triplets.front();
    ctx->has_triplet = true;
    set_step(*ctx, Step::kAuthChallenge);
    auto chal = pool_message<AAuthRequest>();
    chal->imsi = ctx->imsi;
    chal->rand = ctx->triplet.rand;
    send(ctx->bsc, std::move(chal));
    return true;
  }

  if (const auto* ack = msg_cast<MapUpdateLocationAreaAck>(&msg)) {
    retx_.ack(retx_key(RetxKind::kMapUla, ack->imsi));
    MsContext* ctx = context(ack->imsi);
    if (ctx == nullptr || ctx->step != Step::kUla) return true;
    if (!ack->success) {
      reject_registration(*ctx, ack->cause);
      return true;
    }
    ctx->tmsi = ack->new_tmsi;
    ctx->msisdn = ack->msisdn;
    set_step(*ctx, Step::kSubstrate);
    on_registration_substrate(*ctx);
    return true;
  }

  if (const auto* ack = msg_cast<MapSendInfoForOutgoingCallAck>(&msg)) {
    retx_.ack(retx_key(RetxKind::kMapOutCall, ack->imsi));
    MsContext* ctx = context(ack->imsi);
    if (ctx == nullptr || ctx->step != Step::kAuthorize) return true;
    if (!ack->success) {
      if (ack->cause == 1) {
        // "Unidentified subscriber": the VLR lost its visitor record — a
        // VLR restart while we still believed the MS registered.  GSM
        // 04.08 recovery: reject the MM connection with cause #4 so the
        // MS deletes its TMSI and re-runs the location update.
        ctx->registered = false;
        disarm_procedure_guard(*ctx);
        call_index_.erase(ctx->call_ref);
        ctx->proc = Proc::kNone;
        set_step(*ctx, Step::kNone);
        ctx->call_ref = CallRef{};
        auto rej = pool_message<ACmServiceReject>();
        rej->imsi = ctx->imsi;
        rej->cause = 4;  // IMSI unknown in VLR
        send(ctx->bsc, std::move(rej));
        return true;
      }
      reject_mo_call(*ctx, ClearCause::kCallRejected);
      return true;
    }
    // Call proceeding + traffic channel toward the MS, then let the
    // subclass route the far-end leg.
    auto proceed = pool_message<ACallProceeding>();
    proceed->imsi = ctx->imsi;
    proceed->call_ref = ctx->call_ref;
    send(ctx->bsc, std::move(proceed));
    auto assign = pool_message<AAssignmentRequest>();
    assign->imsi = ctx->imsi;
    assign->call_ref = ctx->call_ref;
    send(ctx->bsc, std::move(assign));
    set_step(*ctx, Step::kMoProgress);
    route_mo_call(*ctx);
    return true;
  }

  return false;
}

// --- A interface ------------------------------------------------------------------------------

void MscBase::arm_procedure_guard(MsContext& ctx) {
  cancel_timer(ctx.guard);
  ctx.guard = set_timer(config_.procedure_guard, guard_cookie(ctx.imsi));
}

void MscBase::abort_procedure(MsContext& ctx) {
  drop_requests(ctx.imsi);
  VG_WARN("msc", name() << ": aborting stalled procedure for "
                        << ctx.imsi.to_string() << " (proc "
                        << static_cast<int>(ctx.proc) << ", step "
                        << static_cast<int>(ctx.step) << ")");
  ++net().metrics().counter(name() + "/procedures_aborted");
  if (ctx.step == Step::kClearing) {
    // The guard expired while waiting for A_Clear_Complete: the answer is
    // lost or the BSC is gone.  Clear locally; re-sending A_Clear_Command
    // without supervision would wedge the context in kClearing forever.
    // (The MT span was already closed by the abort that started clearing.)
    disarm_procedure_guard(ctx);
    call_index_.erase(ctx.call_ref);
    MsContext snapshot = ctx;
    ctx.proc = Proc::kNone;
    set_step(ctx, Step::kNone);
    ctx.call_ref = CallRef{};
    ctx.handed_off = false;
    on_call_cleared(snapshot);
    return;
  }
  if (ctx.proc == Proc::kMtCall) {
    net().spans().close(SpanKind::kTermination, ctx.imsi.value(),
                        SpanOutcome::kTimeout, now());
  }
  if (ctx.proc == Proc::kRegister) {
    ctx.proc = Proc::kNone;
    set_step(ctx, Step::kNone);
    return;
  }
  on_call_aborted(ctx);
  clear_radio(ctx);
  // The clearing handshake is itself a transient step: supervise it so a
  // lost A_Clear_Complete ends in the local force-clear above.
  arm_procedure_guard(ctx);
}

void MscBase::on_timer(TimerId id, std::uint64_t cookie) {
  if (retx_.on_timer(id, cookie)) return;
  const Imsi imsi = guard_imsi(cookie);
  MsContext* ctx = context(imsi);
  // A guard acts only on the context that holds its id; one armed before a
  // restart matches no context created since.
  if (ctx == nullptr) return;
  if (ctx->guard == id) {
    if (ctx->proc == Proc::kNone || ctx->step == Step::kActive) return;
    abort_procedure(*ctx);
    return;
  }
  if (ctx->handoff_guard == id) {
    if (ctx->handed_off || !ctx->handover_target.valid()) return;
    VG_WARN("msc", name() << ": handoff attempt for " << imsi.to_string()
                          << " timed out; keeping call on serving cell");
    net().spans().close(SpanKind::kHandoff, imsi.value(),
                        SpanOutcome::kTimeout, now());
    ++net().metrics().counter(name() + "/handoffs_failed");
    ctx->handover_target = CellId{};
    // Tell the target, which may hold a channel for the MS (MAP U-ABORT).
    auto abort = pool_message<MapUAbort>();
    abort->imsi = imsi;
    abort->call_ref = ctx->call_ref;
    send(ctx->remote_msc, std::move(abort));
  }
}

void MscBase::on_restart() {
  // Everything keyed by a live subscriber is volatile: contexts, the call
  // index, armed guards and pending retransmissions.  A guard armed before
  // the crash still fires, but its id went with its context, so it does
  // nothing.  Cell provisioning (own_cells_ / remote_cells_) is
  // configuration and survives.
  contexts_.clear();
  call_index_.clear();
  retx_.reset();
}

void MscBase::remove_subscriber(Imsi imsi) {
  drop_requests(imsi);
  const MsContext* ctx = contexts_.find(imsi);
  if (ctx == nullptr) return;
  cancel_timer(ctx->guard);
  cancel_timer(ctx->handoff_guard);
  MsContext snapshot = *ctx;
  if (snapshot.call_ref.valid()) call_index_.erase(snapshot.call_ref);
  contexts_.erase(imsi);
  on_subscriber_removed(snapshot);
}

void MscBase::handle_a_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* detach = msg_cast<AImsiDetach>(&msg)) {
    remove_subscriber(detach->imsi);
    return;
  }
  if (const auto* cancel = msg_cast<MapCancelLocation>(&msg)) {
    remove_subscriber(cancel->imsi);
    return;
  }

  if (const auto* lu = msg_cast<ALocationUpdate>(&msg)) {
    MsContext& ctx = contexts_[lu->imsi];
    ctx.imsi = lu->imsi;
    ctx.lai = lu->lai;
    ctx.cell = lu->cell;
    ctx.bsc = env.from;
    ctx.proc = Proc::kRegister;
    arm_procedure_guard(ctx);
    if (config_.authenticate_registration) {
      begin_auth(ctx);
    } else {
      send_ula(ctx);
    }
    return;
  }

  if (const auto* rsp = msg_cast<AAuthResponse>(&msg)) {
    MsContext* ctx = context(rsp->imsi);
    if (ctx == nullptr || ctx->step != Step::kAuthChallenge) return;
    if (!ctx->has_triplet || rsp->sres != ctx->triplet.sres) {
      VG_WARN("msc", name() << ": authentication failure for "
                            << rsp->imsi.to_string());
      if (ctx->proc == Proc::kRegister) {
        reject_registration(*ctx, 6);
      } else {
        auto rej = pool_message<ACmServiceReject>();
        rej->imsi = ctx->imsi;
        rej->cause = 6;
        send(ctx->bsc, std::move(rej));
        ctx->proc = Proc::kNone;
        set_step(*ctx, Step::kNone);
      }
      return;
    }
    if (config_.ciphering) {
      set_step(*ctx, Step::kCipher);
      auto cmd = pool_message<ACipherModeCommand>();
      cmd->imsi = ctx->imsi;
      cmd->algorithm = 1;
      send(ctx->bsc, std::move(cmd));
    } else {
      continue_after_security(*ctx);
    }
    return;
  }

  if (const auto* done = msg_cast<ACipherModeComplete>(&msg)) {
    MsContext* ctx = context(done->imsi);
    if (ctx == nullptr || ctx->step != Step::kCipher) return;
    continue_after_security(*ctx);
    return;
  }

  if (const auto* req = msg_cast<ACmServiceRequest>(&msg)) {
    MsContext* ctx = context(req->imsi);
    if (ctx == nullptr || !ctx->registered || ctx->proc != Proc::kNone) {
      auto rej = pool_message<ACmServiceReject>();
      rej->imsi = req->imsi;
      rej->cause = ctx == nullptr || !ctx->registered ? 4 : 17;
      send(env.from, std::move(rej));
      return;
    }
    ctx->bsc = env.from;
    ctx->proc = Proc::kMoCall;
    arm_procedure_guard(*ctx);
    if (config_.authenticate_calls) {
      begin_auth(*ctx);
    } else {
      continue_after_security(*ctx);
    }
    return;
  }

  if (const auto* setup = msg_cast<ASetup>(&msg)) {
    MsContext* ctx = context(setup->imsi);
    if (ctx == nullptr || !ctx->registered) {
      // A Setup for a subscriber this switch has no registered context
      // for: the switch restarted after accepting the CM service request.
      // Cause #4 pushes the MS to delete its TMSI and re-register.
      auto rej = pool_message<ACmServiceReject>();
      rej->imsi = setup->imsi;
      rej->cause = 4;  // IMSI unknown in VLR
      send(env.from, std::move(rej));
      return;
    }
    if (ctx->step != Step::kAwaitSetup) return;
    ctx->call_ref = setup->call_ref;
    ctx->calling = setup->calling;
    ctx->called = setup->called;
    call_index_[setup->call_ref] = setup->imsi;
    set_step(*ctx, Step::kAuthorize);
    auto q = pool_message<MapSendInfoForOutgoingCall>();
    q->imsi = setup->imsi;
    q->called = setup->called;
    send_vlr_request(RetxKind::kMapOutCall, setup->imsi, std::move(q));
    return;
  }

  if (const auto* rsp = msg_cast<APagingResponse>(&msg)) {
    MsContext* ctx = context(rsp->imsi);
    if (ctx == nullptr || ctx->step != Step::kPaging) return;
    ctx->cell = rsp->cell;
    ctx->bsc = env.from;
    if (config_.authenticate_calls) {
      begin_auth(*ctx);
    } else {
      continue_after_security(*ctx);
    }
    return;
  }

  if (const auto* alert = msg_cast<AAlerting>(&msg)) {
    MsContext* ctx = context(alert->imsi);
    if (ctx == nullptr || ctx->proc != Proc::kMtCall ||
        ctx->step != Step::kAwaitAlert) {
      return;
    }
    set_step(*ctx, Step::kAwaitAnswer);
    on_mt_alerting(*ctx);
    return;
  }

  if (const auto* conn = msg_cast<AConnect>(&msg)) {
    MsContext* ctx = context(conn->imsi);
    if (ctx == nullptr || ctx->proc != Proc::kMtCall ||
        ctx->step != Step::kAwaitAnswer) {
      return;
    }
    auto ack = pool_message<AConnectAck>();
    ack->imsi = ctx->imsi;
    ack->call_ref = ctx->call_ref;
    send(downlink(*ctx), std::move(ack));
    disarm_procedure_guard(*ctx);
    net().spans().close(SpanKind::kTermination, ctx->imsi.value(),
                        SpanOutcome::kOk, now());
    ++net().metrics().counter(name() + "/mt_calls_connected");
    set_step(*ctx, Step::kActive);
    on_mt_connected(*ctx);
    return;
  }

  if (msg_cast<AConnectAck>(&msg) != nullptr) {
    return;  // MO answer acknowledgement; nothing to do
  }
  if (msg_cast<AAssignmentComplete>(&msg) != nullptr) {
    return;  // TCH in place
  }

  if (const auto* disc = msg_cast<ADisconnect>(&msg)) {
    MsContext* ctx = context(disc->imsi);
    if (ctx == nullptr || ctx->proc == Proc::kNone) {
      // No call state — either already cleared or this MSC restarted and
      // lost it.  Answer the clearing anyway so the MS's release completes
      // instead of retrying into silence.
      auto rel = pool_message<ARelease>();
      rel->imsi = disc->imsi;
      rel->call_ref = disc->call_ref;
      send(env.from, std::move(rel));
      return;
    }
    if (ctx->step == Step::kReleasingMs || ctx->step == Step::kReleasingNet ||
        ctx->step == Step::kClearing) {
      return;  // duplicate (retransmitted) disconnect; clearing already runs
    }
    if (ctx->proc == Proc::kMtCall && ctx->step != Step::kActive) {
      // The far end abandoned while we were still delivering the call.
      net().spans().close(SpanKind::kTermination, ctx->imsi.value(),
                          SpanOutcome::kRejected, now());
    }
    arm_procedure_guard(*ctx);
    set_step(*ctx, Step::kReleasingMs);
    on_ms_disconnect(*ctx, disc->cause);
    return;
  }

  if (const auto* rel = msg_cast<ARelease>(&msg)) {
    MsContext* ctx = context(rel->imsi);
    if (ctx == nullptr || ctx->step != Step::kReleasingNet) return;
    auto done = pool_message<AReleaseComplete>();
    done->imsi = ctx->imsi;
    done->call_ref = ctx->call_ref;
    send(downlink(*ctx), std::move(done));
    clear_radio(*ctx);
    return;
  }

  if (const auto* done = msg_cast<AReleaseComplete>(&msg)) {
    MsContext* ctx = context(done->imsi);
    if (ctx == nullptr || ctx->step != Step::kReleasingMs) return;
    clear_radio(*ctx);
    return;
  }

  if (const auto* done = msg_cast<AClearComplete>(&msg)) {
    MsContext* ctx = context(done->imsi);
    if (ctx == nullptr) return;
    if (ctx->step != Step::kClearing) {
      return;  // clearing of pre-handoff radio resources; call still active
    }
    disarm_procedure_guard(*ctx);
    call_index_.erase(ctx->call_ref);
    MsContext snapshot = *ctx;
    ctx->proc = Proc::kNone;
    set_step(*ctx, Step::kNone);
    ctx->call_ref = CallRef{};
    ctx->handed_off = false;
    on_call_cleared(snapshot);
    return;
  }

  if (const auto* vf = msg_cast<AVoiceFrame>(&msg)) {
    MsContext* ctx = context(vf->imsi);
    if (ctx != nullptr) on_uplink_voice(*ctx, *vf);
    return;
  }
  if (const auto* vf = msg_cast<ETrunkVoice>(&msg)) {
    MsContext* ctx = context(vf->imsi);
    if (ctx != nullptr) on_uplink_voice(*ctx, *vf);
    return;
  }

  VG_WARN("msc", name() << ": unhandled " << msg.name());
}

// --- target-MSC relay for handed-in contexts -----------------------------------

namespace {
/// Extracts the IMSI from any GSM payload-bearing message we relay.
template <typename... Ts>
struct ImsiExtractor;

template <typename T, typename... Rest>
struct ImsiExtractor<T, Rest...> {
  static const Imsi* get(const Message& msg) {
    if (const auto* m = msg_cast<T>(&msg)) return &m->imsi;
    return ImsiExtractor<Rest...>::get(msg);
  }
};

template <>
struct ImsiExtractor<> {
  static const Imsi* get(const Message&) { return nullptr; }
};

const Imsi* relayable_imsi(const Message& msg) {
  return ImsiExtractor<ADisconnect, ARelease, AReleaseComplete, AClearCommand,
                       AClearComplete, AAlerting, AConnect,
                       AConnectAck>::get(msg);
}
}  // namespace

void MscBase::on_message(const Envelope& env) {
  if (handle_handover(env)) return;

  // Target-MSC role after inter-system handoff: relay call control and
  // voice between the anchor MSC and our BSS.
  if (const auto* imsi = relayable_imsi(*env.msg)) {
    MsContext* ctx = context(*imsi);
    if (ctx != nullptr && ctx->handed_in) {
      if (env.from == ctx->remote_msc) {
        send(ctx->bsc, env.msg);
      } else {
        send(ctx->remote_msc, env.msg);
      }
      return;
    }
  }
  if (const auto* vf = msg_cast<AVoiceFrame>(env.msg.get())) {
    MsContext* ctx = context(vf->imsi);
    if (ctx != nullptr && ctx->handed_in) {
      auto out = pool_message<ETrunkVoice>();
      static_cast<VoiceFrameInfo&>(*out) = *vf;
      send(ctx->remote_msc, std::move(out));
      return;
    }
  }
  if (const auto* vf = msg_cast<ETrunkVoice>(env.msg.get())) {
    MsContext* ctx = context(vf->imsi);
    if (ctx != nullptr && ctx->handed_in) {
      auto out = pool_message<AVoiceFrame>();
      static_cast<VoiceFrameInfo&>(*out) = *vf;
      send(ctx->bsc, std::move(out));
      return;
    }
  }

  if (handle_map_message(env)) return;
  if (on_unhandled(env)) return;
  handle_a_message(env);
}

}  // namespace vgprs
