#include "gsm/mobile_station.hpp"

#include "common/log.hpp"

namespace vgprs {

void MobileStation::enter(State s) {
  state_ = s;
  cancel_timer(timer_);
}

void MobileStation::arm_guard() {
  cancel_timer(timer_);
  timer_ = set_timer(config_.retry_interval,
                     static_cast<std::uint64_t>(TimerKind::kGuard));
}

void MobileStation::start_step(MessagePtr msg) {
  last_proc_msg_ = msg;
  retries_left_ = config_.max_retries;
  send(bts(), std::move(msg));
  arm_guard();
}

NodeId MobileStation::bts() const {
  return peer(serving_bts_.empty() ? config_.bts_name : serving_bts_);
}

void MobileStation::close_state_span(SpanOutcome outcome) {
  SpanTracker& spans = net().spans();
  if (!spans.enabled()) return;
  const std::uint64_t corr = config_.imsi.value();
  switch (state_) {
    case State::kRegistering:
      spans.close(SpanKind::kRegistration, corr, outcome, now());
      break;
    case State::kMoChannel:
    case State::kMoService:
    case State::kMoSetup:
    case State::kMoRinging:
      spans.close(SpanKind::kOrigination, corr, outcome, now());
      break;
    case State::kReleasing:
      spans.close(SpanKind::kRelease, corr, outcome, now());
      break;
    default:
      break;  // MT-side and handoff spans belong to the MSC
  }
}

void MobileStation::fail(const std::string& reason) {
  VG_WARN("ms", name() << ": " << reason);
  close_state_span(reason.starts_with("guard timeout")
                       ? SpanOutcome::kTimeout
                       : SpanOutcome::kRejected);
  enter(tmsi_.valid() ? State::kIdle : State::kDetached);
  if (on_failure) on_failure(reason);
}

void MobileStation::power_on() {
  if (state_ != State::kDetached) return;
  enter(State::kRegistering);
  net().spans().open(SpanKind::kRegistration, config_.imsi.value(), name(),
                     now());
  auto msg = pool_message<UmLocationUpdateRequest>();
  msg->imsi = config_.imsi;
  msg->tmsi = tmsi_;
  start_step(std::move(msg));
}

void MobileStation::power_off() {
  if (state_ == State::kDetached) return;
  if (state_ != State::kIdle) hangup();
  // Detaching abandons the procedure in flight (the release hangup() just
  // began, a registration or a call setup), so its span ends here.
  close_state_span(SpanOutcome::kRejected);
  auto detach = pool_message<UmImsiDetach>();
  detach->imsi = config_.imsi;
  send(bts(), std::move(detach));
  enter(State::kDetached);
}

void MobileStation::move_to(const std::string& bts_name) {
  serving_bts_ = bts_name;
  if (state_ == State::kIdle) {
    // Movement-triggered location update: same procedure as power-on, but
    // the MS identifies with its TMSI.
    enter(State::kRegistering);
    net().spans().open(SpanKind::kRegistration, config_.imsi.value(), name(),
                       now());
    auto msg = pool_message<UmLocationUpdateRequest>();
    msg->imsi = config_.imsi;
    msg->tmsi = tmsi_;
    start_step(std::move(msg));
  }
}

void MobileStation::dial(Msisdn called) {
  if (state_ != State::kIdle) {
    fail("dial while " + std::string(to_string(state_)));
    return;
  }
  pending_called_ = called;
  call_ref_ = CallRef((config_.imsi.value() & 0xFFFF) << 12 | ++call_seq_);
  enter(State::kMoChannel);
  net().spans().open(SpanKind::kOrigination, config_.imsi.value(), name(),
                     now());
  auto msg = pool_message<UmChannelRequest>();
  msg->imsi = config_.imsi;
  msg->cause = ChannelCause::kOriginatingCall;
  start_step(std::move(msg));
}

void MobileStation::answer() {
  if (state_ != State::kMtRinging) return;
  auto msg = pool_message<UmConnect>();
  msg->imsi = config_.imsi;
  msg->call_ref = call_ref_;
  start_step(std::move(msg));
}

void MobileStation::hangup() {
  if (state_ != State::kConnected && state_ != State::kMoRinging &&
      state_ != State::kMoSetup) {
    return;
  }
  // Abandoning before connect: the origination span is still open and no
  // answer will ever close it.  (From kConnected this is a no-op.)
  close_state_span(SpanOutcome::kRejected);
  enter(State::kReleasing);
  net().spans().open(SpanKind::kRelease, config_.imsi.value(), name(), now());
  auto msg = pool_message<UmDisconnect>();
  msg->imsi = config_.imsi;
  msg->call_ref = call_ref_;
  msg->cause = ClearCause::kNormal;
  start_step(std::move(msg));
}

void MobileStation::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void MobileStation::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected) return;
  --voice_remaining_;
  auto frame = pool_message<UmVoiceFrame>();
  frame->imsi = config_.imsi;
  frame->call_ref = call_ref_;
  frame->uplink = true;
  frame->seq = ++voice_seq_;
  frame->origin_us = now().count_micros();
  send(bts(), std::move(frame));
  if (voice_remaining_ > 0) {
    cancel_timer(timer_);
    timer_ = set_timer(voice_interval_,
                       static_cast<std::uint64_t>(TimerKind::kVoice));
  }
}

void MobileStation::add_neighbor_bts(CellId cell, std::string bts_name) {
  neighbor_bts_[cell] = std::move(bts_name);
}

void MobileStation::on_timer(TimerId, std::uint64_t cookie) {
  switch (static_cast<TimerKind>(cookie)) {
    case TimerKind::kAnswer:
      answer();
      break;
    case TimerKind::kGuard:
      // Still in the state that armed supervision: the last message (or
      // its answer) was lost.  Retransmit, LAPDm-style, then give up.  A
      // sent message is immutable, so the copy is the message itself.
      if (retries_left_ > 0 && last_proc_msg_ != nullptr) {
        --retries_left_;
        send(bts(), last_proc_msg_);
        arm_guard();
      } else {
        fail(std::string("guard timeout in state ") + to_string(state_));
      }
      break;
    case TimerKind::kVoice:
      send_voice_frame();
      break;
  }
}

void MobileStation::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  // -- security procedures: answered in any state ----------------------------
  if (const auto* auth = msg_cast<UmAuthRequest>(&msg)) {
    auto rsp = pool_message<UmAuthResponse>();
    rsp->imsi = config_.imsi;
    rsp->sres = gsm_a3_sres(config_.ki, auth->rand);
    send(env.from, std::move(rsp));
    return;
  }
  if (msg_cast<UmCipherModeCommand>(&msg) != nullptr) {
    auto rsp = pool_message<UmCipherModeComplete>();
    rsp->imsi = config_.imsi;
    send(env.from, std::move(rsp));
    return;
  }

  if (const auto* rej = msg_cast<UmLocationUpdateReject>(&msg)) {
    if (state_ == State::kRegistering) {
      close_state_span(SpanOutcome::kRejected);
      enter(State::kDetached);
      if (on_failure) {
        on_failure("location update rejected, cause " +
                   std::to_string(rej->cause));
      }
    }
    return;
  }
  if (const auto* rej = msg_cast<UmCmServiceReject>(&msg)) {
    if (state_ == State::kMoService || state_ == State::kMoSetup) {
      close_state_span(SpanOutcome::kRejected);
      enter(State::kIdle);
      if (on_failure) {
        on_failure("CM service rejected, cause " +
                   std::to_string(rej->cause));
      }
      if (rej->cause == 4) {
        // GSM 04.08 cause #4 "IMSI unknown in VLR": the network lost our
        // registration (VLR or switch restart).  Delete the TMSI and run
        // location updating again so service can resume.
        tmsi_ = Tmsi{};
        ++net().metrics().counter("recovery/reregistrations");
        enter(State::kRegistering);
        net().spans().open(SpanKind::kRegistration, config_.imsi.value(),
                           name(), now());
        auto lu = pool_message<UmLocationUpdateRequest>();
        lu->imsi = config_.imsi;
        lu->tmsi = tmsi_;
        start_step(std::move(lu));
      }
    }
    return;
  }

  // -- registration -----------------------------------------------------------
  if (const auto* acc = msg_cast<UmLocationUpdateAccept>(&msg)) {
    if (state_ != State::kRegistering) return;
    close_state_span(SpanOutcome::kOk);
    tmsi_ = acc->new_tmsi;
    enter(State::kIdle);
    if (on_registered) on_registered();
    return;
  }

  // -- channel management ------------------------------------------------------
  if (msg_cast<UmImmediateAssignment>(&msg) != nullptr) {
    if (state_ == State::kMoChannel) {
      enter(State::kMoService);
      auto req = pool_message<UmCmServiceRequest>();
      req->imsi = config_.imsi;
      req->tmsi = tmsi_;
      req->service = 1;
      start_step(std::move(req));
    } else if (state_ == State::kMtChannel) {
      enter(State::kMtPaged);
      auto rsp = pool_message<UmPagingResponse>();
      rsp->imsi = config_.imsi;
      rsp->tmsi = tmsi_;
      start_step(std::move(rsp));
    }
    return;
  }
  if (msg_cast<UmCmServiceAccept>(&msg) != nullptr) {
    if (state_ != State::kMoService) return;
    enter(State::kMoSetup);
    auto setup = pool_message<UmSetup>();
    setup->imsi = config_.imsi;
    setup->call_ref = call_ref_;
    setup->calling = config_.msisdn;
    setup->called = pending_called_;
    start_step(std::move(setup));
    return;
  }
  if (const auto* asg = msg_cast<UmAssignmentCommand>(&msg)) {
    auto done = pool_message<UmAssignmentComplete>();
    done->imsi = config_.imsi;
    done->call_ref = asg->call_ref;
    done->channel = asg->channel;
    send(bts(), std::move(done));
    return;
  }

  // -- mobile-terminated call ---------------------------------------------------
  if (const auto* page = msg_cast<UmPagingRequest>(&msg)) {
    bool mine = page->imsi == config_.imsi ||
                (page->tmsi.valid() && page->tmsi == tmsi_);
    if (!mine || state_ != State::kIdle) return;
    enter(State::kMtChannel);
    auto req = pool_message<UmChannelRequest>();
    req->imsi = config_.imsi;
    req->cause = ChannelCause::kPageResponse;
    start_step(std::move(req));
    return;
  }
  if (const auto* setup = msg_cast<UmSetup>(&msg)) {
    if (state_ != State::kMtPaged) return;
    call_ref_ = setup->call_ref;
    enter(State::kMtRinging);
    if (on_incoming) on_incoming(call_ref_, setup->calling);
    auto alert = pool_message<UmAlerting>();
    alert->imsi = config_.imsi;
    alert->call_ref = call_ref_;
    send(bts(), std::move(alert));
    if (config_.auto_answer) {
      cancel_timer(timer_);
      timer_ = set_timer(config_.answer_delay,
                         static_cast<std::uint64_t>(TimerKind::kAnswer));
    }
    return;
  }

  // -- call progress (MO side) ---------------------------------------------------
  if (msg_cast<UmCallProceeding>(&msg) != nullptr) {
    return;  // informational
  }
  if (msg_cast<UmAlerting>(&msg) != nullptr) {
    if (state_ == State::kMoSetup) {
      enter(State::kMoRinging);
      if (on_ringback) on_ringback(call_ref_);
    }
    return;
  }
  if (msg_cast<UmConnect>(&msg) != nullptr) {
    if (state_ == State::kMoRinging || state_ == State::kMoSetup) {
      close_state_span(SpanOutcome::kOk);
      auto ack = pool_message<UmConnectAck>();
      ack->imsi = config_.imsi;
      ack->call_ref = call_ref_;
      send(bts(), std::move(ack));
      enter(State::kConnected);
      if (on_connected) on_connected(call_ref_);
      if (voice_remaining_ > 0) send_voice_frame();
    }
    return;
  }
  if (msg_cast<UmConnectAck>(&msg) != nullptr) {
    if (state_ == State::kMtRinging) {
      enter(State::kConnected);
      if (on_connected) on_connected(call_ref_);
      if (voice_remaining_ > 0) send_voice_frame();
    }
    return;
  }

  // -- call clearing ----------------------------------------------------------------
  if (const auto* disc = msg_cast<UmDisconnect>(&msg)) {
    // Network-initiated clearing: legal in any in-call state, including
    // the MT pre-ring states (the caller may abandon during paging).
    if (state_ == State::kConnected || state_ == State::kMtRinging ||
        state_ == State::kMoRinging || state_ == State::kMoSetup ||
        state_ == State::kMoService || state_ == State::kMtPaged ||
        state_ == State::kMtChannel) {
      // Clearing mid-setup aborts the MO origination in flight.
      close_state_span(SpanOutcome::kRejected);
      enter(State::kReleasing);
      net().spans().open(SpanKind::kRelease, config_.imsi.value(), name(),
                         now());
      auto rel = pool_message<UmRelease>();
      rel->imsi = config_.imsi;
      rel->call_ref = disc->call_ref;
      start_step(std::move(rel));
    }
    return;
  }
  if (const auto* rel = msg_cast<UmRelease>(&msg)) {
    // Network confirms MS-initiated disconnect.
    if (state_ == State::kReleasing) {
      close_state_span(SpanOutcome::kOk);
      auto done = pool_message<UmReleaseComplete>();
      done->imsi = config_.imsi;
      done->call_ref = rel->call_ref;
      send(bts(), std::move(done));
      enter(State::kIdle);
      if (on_released) on_released(rel->call_ref);
    }
    return;
  }
  if (const auto* rc = msg_cast<UmReleaseComplete>(&msg)) {
    if (state_ == State::kReleasing) {
      close_state_span(SpanOutcome::kOk);
      enter(State::kIdle);
      if (on_released) on_released(rc->call_ref);
    }
    return;
  }

  // -- handover ----------------------------------------------------------------------
  if (const auto* ho = msg_cast<UmHandoverCommand>(&msg)) {
    auto it = neighbor_bts_.find(ho->target_cell);
    if (it == neighbor_bts_.end()) {
      fail("handover to unknown cell " + ho->target_cell.to_string());
      return;
    }
    serving_bts_ = it->second;
    auto access = pool_message<UmHandoverAccess>();
    access->imsi = config_.imsi;
    access->call_ref = ho->call_ref;
    send(bts(), access);
    auto complete = pool_message<UmHandoverComplete>();
    complete->imsi = config_.imsi;
    complete->call_ref = ho->call_ref;
    send(bts(), std::move(complete));
    return;
  }

  // -- voice --------------------------------------------------------------------------
  if (const auto* vf = msg_cast<UmVoiceFrame>(&msg)) {
    ++voice_rx_;
    voice_latency_.add(
        SimDuration::micros(now().count_micros() - vf->origin_us));
    return;
  }

  VG_DEBUG("ms", name() << ": ignoring " << msg.name() << " in state "
                        << to_string(state_));
}

}  // namespace vgprs
