#include "h323/terminal.hpp"

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t kAnswerKind = 1;
constexpr std::uint64_t kVoiceKind = 3;
}  // namespace

void H323Terminal::enter(State s) {
  state_ = s;
  cancel_timer(timer_);
  retx_.reset();
}

void H323Terminal::send_request(RetxKind kind, IpAddress dst,
                                MessagePtr inner,
                                std::function<void()> give_up) {
  retx_.send(retx_key(kind), router(),
             make_ip_datagram(ip(), dst, std::move(inner)),
             std::move(give_up));
}

void H323Terminal::register_endpoint() {
  if (state_ != State::kIdle) return;
  enter(State::kRegistering);
  net().spans().open(SpanKind::kRegistration, config_.alias.value(), name(),
                     now());
  auto rrq = pool_message<RasRrq>();
  rrq->call_signal_address = TransportAddress(ip(), config_.signal_port);
  rrq->alias = config_.alias;
  send_request(RetxKind::kRrq, config_.gk_ip, std::move(rrq), [this] {
    if (state_ != State::kRegistering) return;
    net().spans().close(SpanKind::kRegistration, config_.alias.value(),
                        SpanOutcome::kTimeout, now());
    enter(State::kIdle);
    if (on_failure) on_failure("registration timed out");
  });
}

void H323Terminal::place_call(Msisdn called) {
  if (state_ != State::kRegistered) {
    if (on_failure) on_failure("place_call while not registered");
    return;
  }
  peer_number_ = called;
  call_ref_ = CallRef((endpoint_id_ << 16) | ++call_seq_);
  enter(State::kArqSent);
  net().spans().open(SpanKind::kOrigination, call_ref_.value(), name(), now());
  auto arq = pool_message<RasArq>();
  arq->endpoint_id = endpoint_id_;
  arq->call_ref = call_ref_;
  arq->calling = config_.alias;
  arq->called = called;
  send_request(RetxKind::kArq, config_.gk_ip, std::move(arq), [this] {
    if (state_ != State::kArqSent) return;
    net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                        SpanOutcome::kTimeout, now());
    enter(State::kRegistered);
    if (on_failure) on_failure("admission timed out");
    if (on_released) on_released(call_ref_);
  });
}

void H323Terminal::answer() {
  if (state_ != State::kRinging) return;
  auto conn = pool_message<Q931Connect>();
  conn->call_ref = call_ref_;
  conn->media_address = TransportAddress(ip(), config_.media_port);
  send_ip(remote_signal_, std::move(conn));
  enter(State::kConnected);
  if (on_connected) on_connected(call_ref_);
  if (voice_remaining_ > 0) send_voice_frame();
}

void H323Terminal::hangup() {
  if (state_ != State::kConnected && state_ != State::kRingback &&
      state_ != State::kCalling && state_ != State::kRinging) {
    return;
  }
  if (state_ == State::kCalling || state_ == State::kRingback) {
    // Abandoning our own setup before the far end answered.
    net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                        SpanOutcome::kRejected, now());
  }
  auto rel = pool_message<Q931ReleaseComplete>();
  rel->call_ref = call_ref_;
  send_ip(remote_signal_, std::move(rel));
  release_local(call_ref_);
}

void H323Terminal::release_local(CallRef call_ref) {
  if (config_.disengage_on_release && endpoint_id_ != 0) {
    auto drq = pool_message<RasDrq>();
    drq->endpoint_id = endpoint_id_;
    drq->call_ref = call_ref;
    send_ip(config_.gk_ip, std::move(drq));
  }
  enter(State::kRegistered);
  if (on_released) on_released(call_ref);
}

void H323Terminal::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void H323Terminal::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected ||
      !remote_media_.valid()) {
    return;
  }
  --voice_remaining_;
  auto rtp = pool_message<RtpPacket>();
  rtp->ssrc = endpoint_id_;
  rtp->seq = ++voice_seq_;
  rtp->timestamp = voice_seq_ * 160;  // 20 ms at 8 kHz
  rtp->origin_us = now().count_micros();
  send_ip(remote_media_, std::move(rtp));
  if (voice_remaining_ > 0) {
    cancel_timer(timer_);
    timer_ = set_timer(voice_interval_, kVoiceKind);
  }
}

void H323Terminal::on_timer(TimerId id, std::uint64_t cookie) {
  if (retx_.on_timer(id, cookie)) return;
  if (cookie == kAnswerKind) answer();
  if (cookie == kVoiceKind) send_voice_frame();
}

void H323Terminal::on_ip(const IpDatagramInfo& dgram, const Message& inner) {
  // --- RAS ---------------------------------------------------------------------
  if (const auto* rcf = msg_cast<RasRcf>(&inner)) {
    retx_.ack(retx_key(RetxKind::kRrq));
    if (state_ != State::kRegistering) return;
    net().spans().close(SpanKind::kRegistration, config_.alias.value(),
                        SpanOutcome::kOk, now());
    endpoint_id_ = rcf->endpoint_id;
    enter(State::kRegistered);
    if (on_registered) on_registered();
    return;
  }
  if (const auto* rrj = msg_cast<RasRrj>(&inner)) {
    retx_.ack(retx_key(RetxKind::kRrq));
    if (state_ == State::kRegistering) {
      net().spans().close(SpanKind::kRegistration, config_.alias.value(),
                          SpanOutcome::kRejected, now());
      enter(State::kIdle);
      if (on_failure) {
        on_failure("registration rejected, cause " +
                   std::to_string(rrj->cause));
      }
    }
    return;
  }
  if (const auto* acf = msg_cast<RasAcf>(&inner)) {
    retx_.ack(retx_key(RetxKind::kArq));
    if (state_ == State::kArqSent && acf->call_ref == call_ref_) {
      // Admission granted for our originating call: send Setup.
      remote_signal_ = acf->dest_call_signal_address.ip();
      enter(State::kCalling);
      auto setup = pool_message<Q931Setup>();
      setup->call_ref = call_ref_;
      setup->calling = config_.alias;
      setup->called = peer_number_;
      setup->src_signal_address =
          TransportAddress(ip(), config_.signal_port);
      setup->media_address = TransportAddress(ip(), config_.media_port);
      send_request(RetxKind::kSetup, remote_signal_, std::move(setup), [this] {
        if (state_ != State::kCalling) return;
        net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                            SpanOutcome::kTimeout, now());
        release_local(call_ref_);
      });
      return;
    }
    if (state_ == State::kIncomingArq && acf->call_ref == call_ref_) {
      // Admission granted for the call we are answering (paper step 2.5):
      // generate local ringing and alert the caller (step 2.6).
      enter(State::kRinging);
      auto alert = pool_message<Q931Alerting>();
      alert->call_ref = call_ref_;
      send_ip(remote_signal_, std::move(alert));
      if (on_incoming) on_incoming(call_ref_, peer_number_);
      if (config_.auto_answer) {
        cancel_timer(timer_);
        timer_ = set_timer(config_.answer_delay, kAnswerKind);
      }
      return;
    }
    return;
  }
  if (const auto* arj = msg_cast<RasArj>(&inner)) {
    retx_.ack(retx_key(RetxKind::kArq));
    if (arj->call_ref != call_ref_) return;
    if (state_ == State::kArqSent) {
      net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                          SpanOutcome::kRejected, now());
      enter(State::kRegistered);
      if (on_failure) {
        on_failure("admission rejected, cause " + std::to_string(arj->cause));
      }
      if (on_released) on_released(arj->call_ref);
      return;
    }
    if (state_ == State::kIncomingArq) {
      // Step 2.5: admission rejected while answering -> release the call.
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = call_ref_;
      rel->cause = 47;  // resource unavailable
      send_ip(remote_signal_, std::move(rel));
      enter(State::kRegistered);
      if (on_released) on_released(arj->call_ref);
      return;
    }
    return;
  }
  if (msg_cast<RasDcf>(&inner) != nullptr) {
    return;  // disengage confirmed
  }

  // --- Q.931 --------------------------------------------------------------------
  if (const auto* setup = msg_cast<Q931Setup>(&inner)) {
    if (state_ != State::kRegistered) {
      if (setup->call_ref == call_ref_ &&
          setup->src_signal_address.ip() == remote_signal_) {
        // Duplicate Setup for the call we are already handling
        // (retransmission after a lost CallProceeding): re-confirm rather
        // than busy-releasing our own call.
        auto proceed = pool_message<Q931CallProceeding>();
        proceed->call_ref = call_ref_;
        send_ip(remote_signal_, std::move(proceed));
        return;
      }
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = setup->call_ref;
      rel->cause = 17;  // busy
      send_ip(setup->src_signal_address.ip(), std::move(rel));
      return;
    }
    call_ref_ = setup->call_ref;
    peer_number_ = setup->calling;
    remote_signal_ = setup->src_signal_address.ip();
    remote_media_ = setup->media_address.ip();
    // Step 2.4: confirm sufficient routing information.
    auto proceed = pool_message<Q931CallProceeding>();
    proceed->call_ref = call_ref_;
    send_ip(remote_signal_, std::move(proceed));
    // Step 2.5: ask the gatekeeper for admission before alerting.
    enter(State::kIncomingArq);
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = endpoint_id_;
    arq->call_ref = call_ref_;
    arq->calling = setup->calling;
    arq->called = config_.alias;
    arq->answer_call = true;
    send_request(RetxKind::kArq, config_.gk_ip, std::move(arq), [this] {
      if (state_ != State::kIncomingArq) return;
      // No admission decision: clear the incoming leg toward the caller and
      // return to service.
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = call_ref_;
      rel->cause = 47;  // resource unavailable
      send_ip(remote_signal_, std::move(rel));
      enter(State::kRegistered);
      if (on_released) on_released(call_ref_);
    });
    return;
  }
  // Call Proceeding (Fig. 6 step 2.4) and Alerting confirm our Setup:
  // Q.931 stops T303, its Setup timer, on either.
  if (msg_cast<Q931CallProceeding>(&inner) != nullptr) {
    retx_.ack(retx_key(RetxKind::kSetup));
    return;
  }
  if (const auto* alert = msg_cast<Q931Alerting>(&inner)) {
    retx_.ack(retx_key(RetxKind::kSetup));
    if (state_ == State::kCalling && alert->call_ref == call_ref_) {
      enter(State::kRingback);
      if (on_ringback) on_ringback(call_ref_);
    }
    return;
  }
  if (const auto* conn = msg_cast<Q931Connect>(&inner)) {
    if ((state_ == State::kRingback || state_ == State::kCalling) &&
        conn->call_ref == call_ref_) {
      net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                          SpanOutcome::kOk, now());
      remote_media_ = conn->media_address.ip();
      enter(State::kConnected);
      if (on_connected) on_connected(call_ref_);
      if (voice_remaining_ > 0) send_voice_frame();
    }
    return;
  }
  if (const auto* rel = msg_cast<Q931ReleaseComplete>(&inner)) {
    if (rel->call_ref == call_ref_ && state_ != State::kIdle &&
        state_ != State::kRegistered) {
      if (state_ == State::kCalling || state_ == State::kRingback) {
        // Far end cleared before answering our setup.
        net().spans().close(SpanKind::kOrigination, call_ref_.value(),
                            SpanOutcome::kRejected, now());
      }
      release_local(rel->call_ref);
    }
    return;
  }

  // --- media -----------------------------------------------------------------------
  if (const auto* rtp = msg_cast<RtpPacket>(&inner)) {
    ++voice_rx_;
    voice_latency_.add(
        SimDuration::micros(now().count_micros() - rtp->origin_us));
    return;
  }

  VG_DEBUG("h323", name() << ": ignoring " << inner.name() << " from "
                          << dgram.src.to_string());
}

}  // namespace vgprs
