#include "tr23821/tr_ms.hpp"

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t kAnswerKind = 1;
constexpr std::uint64_t kRingbackKind = 2;
constexpr std::uint64_t kVoiceKind = 3;

/// Extracts the IMSI (standing in for the TLLI) from any GPRS message the
/// MS can receive on its SGSN link.
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

const Imsi* gprs_imsi(const Message& msg) {
  return ImsiExtractor<GprsAttachAccept, GprsAttachReject,
                       ActivatePdpContextAccept, ActivatePdpContextReject,
                       DeactivatePdpContextAccept, RequestPdpContextActivation,
                       GbUnitData>::get(msg);
}
}  // namespace

void TrMobileStation::enter(State s) {
  state_ = s;
  cancel_timer(timer_);
  retx_.reset();
}

MessagePtr TrMobileStation::tunneled(IpAddress dst, MessagePtr inner) const {
  auto frame = pool_message<GbUnitData>();
  frame->imsi = config_.imsi;
  frame->inner = make_ip_datagram(pdp_address_, dst, std::move(inner));
  return frame;
}

void TrMobileStation::send_tunneled(IpAddress dst, MessagePtr inner) {
  send(sgsn(), tunneled(dst, std::move(inner)));
}

void TrMobileStation::send_request(RetxKind kind, MessagePtr request,
                                   std::function<void()> give_up) {
  retx_.send(retx_key(kind), sgsn(), std::move(request), std::move(give_up));
}

void TrMobileStation::activate_pdp() {
  ++pdp_activations_;
  net().spans().open(SpanKind::kPdpActivation, config_.imsi.value(), name(),
                     now());
  auto req = pool_message<ActivatePdpContextRequest>();
  req->imsi = config_.imsi;
  req->nsapi = Nsapi(5);
  req->qos = QosProfile{QosClass::kConversational, 13, 1};
  req->requested_address = config_.static_pdp_address;
  send_request(RetxKind::kPdpActivate, std::move(req),
               [this] { give_up_pdp_activation(); });
}

void TrMobileStation::give_up_pdp_activation() {
  if (state_ != State::kActivatingInitial &&
      state_ != State::kActivatingForCall &&
      state_ != State::kActivatingForPage) {
    return;
  }
  net().spans().close(SpanKind::kPdpActivation, config_.imsi.value(),
                      SpanOutcome::kTimeout, now());
  pending_setup_ = nullptr;
  if (state_ == State::kActivatingInitial) {
    net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                        SpanOutcome::kTimeout, now());
  } else if (state_ == State::kActivatingForCall) {
    net().spans().close(SpanKind::kOrigination, config_.imsi.value(),
                        SpanOutcome::kTimeout, now());
  }
  if (on_failure) on_failure("PDP activation timed out");
  enter(attached_ ? State::kIdle : State::kDetached);
  pdp_active_ = false;
}

void TrMobileStation::deactivate_pdp(State next) {
  ++pdp_deactivations_;
  net().spans().open(SpanKind::kPdpDeactivation, config_.imsi.value(), name(),
                     now());
  enter(next);
  auto req = pool_message<DeactivatePdpContextRequest>();
  req->imsi = config_.imsi;
  req->nsapi = Nsapi(5);
  send_request(RetxKind::kPdpDeactivate, std::move(req), [this] {
    if (state_ != State::kDeactivatingIdle &&
        state_ != State::kDeactivatingAfterCall) {
      return;
    }
    // SGSN never confirmed: drop the context locally and move on.
    net().spans().close(SpanKind::kPdpDeactivation, config_.imsi.value(),
                        SpanOutcome::kTimeout, now());
    pdp_active_ = false;
    pdp_address_ = IpAddress{};
    enter(State::kIdle);
  });
}

void TrMobileStation::power_on() {
  if (state_ != State::kDetached) return;
  enter(State::kAttaching);
  // The TR 23.821 "registration" spans the whole Fig. 7 chain: GPRS attach,
  // initial PDP activation, and H.323 RAS registration at the gatekeeper.
  net().spans().open(SpanKind::kRegistration, config_.imsi.value(), name(),
                     now());
  auto attach = pool_message<GprsAttachRequest>();
  attach->imsi = config_.imsi;
  send_request(RetxKind::kAttach, std::move(attach), [this] {
    if (state_ != State::kAttaching) return;
    net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                        SpanOutcome::kTimeout, now());
    enter(State::kDetached);
    if (on_failure) on_failure("GPRS attach timed out");
  });
}

void TrMobileStation::dial(Msisdn called) {
  if (state_ != State::kIdle) {
    if (on_failure) on_failure("dial while busy");
    return;
  }
  peer_number_ = called;
  call_ref_ = CallRef((static_cast<std::uint32_t>(config_.imsi.value()) &
                       0xFFFFu) << 12 | ++call_seq_);
  net().spans().open(SpanKind::kOrigination, config_.imsi.value(), name(),
                     now());
  if (!pdp_active_) {
    // TR 23.821: the context was deactivated while idle and must be
    // rebuilt before any call signaling can flow.
    enter(State::kActivatingForCall);
    activate_pdp();
    return;
  }
  enter(State::kArqSent);
  send_arq();
}

void TrMobileStation::send_arq() {
  auto arq = pool_message<RasArq>();
  arq->endpoint_id = endpoint_id_;
  arq->call_ref = call_ref_;
  arq->calling = config_.msisdn;
  arq->called = peer_number_;
  send_request(RetxKind::kArq, tunneled(config_.gk_ip, std::move(arq)), [this] {
    if (state_ != State::kArqSent) return;
    if (on_failure) on_failure("admission timed out");
    release_call(false, 102);
  });
}

void TrMobileStation::answer() {
  if (state_ != State::kRinging) return;
  net().spans().close(SpanKind::kTermination, config_.imsi.value(),
                      SpanOutcome::kOk, now());
  auto conn = pool_message<Q931Connect>();
  conn->call_ref = call_ref_;
  conn->media_address = TransportAddress(pdp_address_, config_.media_port);
  send_tunneled(remote_signal_, std::move(conn));
  enter(State::kConnected);
  if (on_connected) on_connected(call_ref_);
  if (voice_remaining_ > 0) send_voice_frame();
}

void TrMobileStation::hangup() {
  if (state_ != State::kConnected && state_ != State::kRingback &&
      state_ != State::kCalling && state_ != State::kRinging) {
    return;
  }
  release_call(true, 16);
}

void TrMobileStation::release_call(bool notify_far_end, std::uint8_t cause) {
  if (state_ == State::kArqSent || state_ == State::kCalling ||
      state_ == State::kRingback) {
    // Our own setup ended before the far end answered.
    net().spans().close(SpanKind::kOrigination, config_.imsi.value(),
                        SpanOutcome::kRejected, now());
  } else if (state_ == State::kIncomingArq || state_ == State::kRinging) {
    // An incoming call collapsed before we answered it.
    net().spans().close(SpanKind::kTermination, config_.imsi.value(),
                        SpanOutcome::kRejected, now());
  }
  if (notify_far_end && remote_signal_.valid()) {
    auto rel = pool_message<Q931ReleaseComplete>();
    rel->call_ref = call_ref_;
    rel->cause = cause;
    send_tunneled(remote_signal_, std::move(rel));
  }
  // The DRQ serves the state entered here (kAwaitDcf, or kIdle without the
  // idle-deactivation policy), so it is built now and sent after enter().
  auto drq = pool_message<RasDrq>();
  drq->endpoint_id = endpoint_id_;
  drq->call_ref = call_ref_;
  MessagePtr drq_frame = tunneled(config_.gk_ip, std::move(drq));
  remote_signal_ = IpAddress{};
  remote_media_ = IpAddress{};
  CallRef released = call_ref_;
  if (config_.deactivate_pdp_when_idle) {
    // Deactivate only after the DCF confirms the disengage: tearing the
    // context down immediately could outrun the release signaling still in
    // flight on the (jittery) packet radio path.
    enter(State::kAwaitDcf);
  } else {
    enter(State::kIdle);
  }
  send_request(RetxKind::kDrq, std::move(drq_frame), [this] {
    // GK never confirmed the disengage: run the deferred teardown anyway so
    // the handset is not parked in kAwaitDcf forever.
    if (state_ == State::kAwaitDcf) {
      deactivate_pdp(State::kDeactivatingAfterCall);
    }
  });
  if (on_released) on_released(released);
}

void TrMobileStation::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void TrMobileStation::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected ||
      !remote_media_.valid()) {
    return;
  }
  --voice_remaining_;
  auto rtp = pool_message<RtpPacket>();
  rtp->ssrc = endpoint_id_;
  rtp->seq = ++voice_seq_;
  rtp->timestamp = voice_seq_ * 160;
  rtp->origin_us = now().count_micros();
  send_tunneled(remote_media_, std::move(rtp));
  if (voice_remaining_ > 0) {
    cancel_timer(timer_);
    timer_ = set_timer(voice_interval_, kVoiceKind);
  }
}

void TrMobileStation::on_timer(TimerId id, std::uint64_t cookie) {
  if (retx_.on_timer(id, cookie)) return;
  if (cookie == kAnswerKind) answer();
  if (cookie == kRingbackKind) {
    // release_call closes the origination span for us (kRingback branch).
    if (on_failure) on_failure("ringback timed out");
    release_call(true, 102);
  }
  if (cookie == kVoiceKind) send_voice_frame();
}

void TrMobileStation::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  // A real MS filters on its own identity: a response echoing someone
  // else's IMSI (e.g. a corrupted-but-decodable request bounced back as a
  // reject for the garbled identity) must not drive our state machine.
  if (const Imsi* imsi = gprs_imsi(msg);
      imsi != nullptr && *imsi != config_.imsi) {
    return;
  }

  if (const auto* acc = msg_cast<GprsAttachAccept>(&msg)) {
    (void)acc;
    retx_.ack(retx_key(RetxKind::kAttach));
    if (state_ != State::kAttaching) return;
    attached_ = true;
    enter(State::kActivatingInitial);
    activate_pdp();
    return;
  }
  if (msg_cast<GprsAttachReject>(&msg) != nullptr) {
    retx_.ack(retx_key(RetxKind::kAttach));
    if (state_ != State::kAttaching) return;
    net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                        SpanOutcome::kRejected, now());
    enter(State::kDetached);
    if (on_failure) on_failure("GPRS attach rejected");
    return;
  }

  if (const auto* acc = msg_cast<ActivatePdpContextAccept>(&msg)) {
    retx_.ack(retx_key(RetxKind::kPdpActivate));
    if (state_ != State::kActivatingInitial &&
        state_ != State::kActivatingForCall &&
        state_ != State::kActivatingForPage) {
      return;  // duplicate accept after the span already closed
    }
    net().spans().close(SpanKind::kPdpActivation, config_.imsi.value(),
                        SpanOutcome::kOk, now());
    pdp_active_ = true;
    pdp_address_ = acc->address;
    if (state_ == State::kActivatingInitial) {
      enter(State::kRasRegistering);
      auto rrq = pool_message<RasRrq>();
      rrq->call_signal_address =
          TransportAddress(pdp_address_, config_.signal_port);
      rrq->alias = config_.msisdn;
      MessagePtr rrq_frame = tunneled(config_.gk_ip, std::move(rrq));
      send_request(RetxKind::kRrq, std::move(rrq_frame), [this] {
        if (state_ != State::kRasRegistering) return;
        net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                            SpanOutcome::kTimeout, now());
        if (on_failure) on_failure("RAS registration timed out");
        if (config_.deactivate_pdp_when_idle) {
          deactivate_pdp(State::kDeactivatingIdle);
        } else {
          enter(State::kIdle);
        }
      });
      return;
    }
    if (state_ == State::kActivatingForCall) {
      enter(State::kArqSent);
      send_arq();
      return;
    }
    if (state_ == State::kActivatingForPage) {
      // Routing path re-established; the caller's Setup will now reach us
      // (or already did and was held).
      enter(State::kIdle);
      if (pending_setup_ != nullptr) {
        MessagePtr held = std::move(pending_setup_);
        pending_setup_ = nullptr;
        handle_tunneled(*held);
      }
      return;
    }
    return;
  }
  if (msg_cast<ActivatePdpContextReject>(&msg) != nullptr) {
    retx_.ack(retx_key(RetxKind::kPdpActivate));
    if (state_ != State::kActivatingInitial &&
        state_ != State::kActivatingForCall &&
        state_ != State::kActivatingForPage) {
      return;
    }
    net().spans().close(SpanKind::kPdpActivation, config_.imsi.value(),
                        SpanOutcome::kRejected, now());
    pending_setup_ = nullptr;  // the held caller's Setup cannot be serviced
    if (state_ == State::kActivatingInitial) {
      net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                          SpanOutcome::kRejected, now());
    } else if (state_ == State::kActivatingForCall) {
      net().spans().close(SpanKind::kOrigination, config_.imsi.value(),
                          SpanOutcome::kRejected, now());
    }
    if (on_failure) on_failure("PDP activation rejected");
    enter(attached_ ? State::kIdle : State::kDetached);
    pdp_active_ = false;
    return;
  }
  if (msg_cast<DeactivatePdpContextAccept>(&msg) != nullptr) {
    retx_.ack(retx_key(RetxKind::kPdpDeactivate));
    if (state_ != State::kDeactivatingIdle &&
        state_ != State::kDeactivatingAfterCall) {
      return;
    }
    net().spans().close(SpanKind::kPdpDeactivation, config_.imsi.value(),
                        SpanOutcome::kOk, now());
    pdp_active_ = false;
    pdp_address_ = IpAddress{};
    if (state_ == State::kDeactivatingIdle ||
        state_ == State::kDeactivatingAfterCall) {
      enter(State::kIdle);
    }
    return;
  }

  if (const auto* req = msg_cast<RequestPdpContextActivation>(&msg)) {
    // Network-initiated activation for a terminating call (3G TR 23.821).
    if (state_ != State::kIdle || pdp_active_) return;
    enter(State::kActivatingForPage);
    ++pdp_activations_;
    net().spans().open(SpanKind::kPdpActivation, config_.imsi.value(), name(),
                       now());
    auto act = pool_message<ActivatePdpContextRequest>();
    act->imsi = config_.imsi;
    act->nsapi = req->nsapi;
    act->qos = QosProfile{QosClass::kConversational, 13, 1};
    act->requested_address = req->address;
    send_request(RetxKind::kPdpActivate, std::move(act),
                 [this] { give_up_pdp_activation(); });
    return;
  }

  if (const auto* frame = msg_cast<GbUnitData>(&msg)) {
    const auto* dgram = msg_cast<IpDatagram>(frame->inner.get());
    if (dgram == nullptr || dgram->inner == nullptr) return;
    if (msg_cast<Q931Setup>(dgram->inner.get()) != nullptr &&
        (state_ == State::kActivatingForPage ||
         (state_ == State::kIdle && !pdp_active_))) {
      // The network paged us for this call; the caller's Setup overtook our
      // activation accept on the jittery Gb path.  Hold it until the
      // context is up rather than bouncing the call as busy.
      pending_setup_ = dgram->inner;
      return;
    }
    handle_tunneled(*dgram->inner);
    return;
  }

  VG_DEBUG("tr-ms", name() << ": ignoring " << msg.name());
}

void TrMobileStation::handle_tunneled(const Message& inner) {
  if (const auto* rcf = msg_cast<RasRcf>(&inner)) {
    retx_.ack(retx_key(RetxKind::kRrq));
    if (state_ != State::kRasRegistering) return;
    net().spans().close(SpanKind::kRegistration, config_.imsi.value(),
                        SpanOutcome::kOk, now());
    endpoint_id_ = rcf->endpoint_id;
    // Step 6 of TR 23.821 Fig. 7: deactivate the context once registered.
    if (config_.deactivate_pdp_when_idle) {
      deactivate_pdp(State::kDeactivatingIdle);
    } else {
      enter(State::kIdle);
    }
    if (on_registered) on_registered();
    return;
  }
  if (const auto* acf = msg_cast<RasAcf>(&inner)) {
    retx_.ack(retx_key(RetxKind::kArq));
    if (state_ == State::kArqSent && acf->call_ref == call_ref_) {
      remote_signal_ = acf->dest_call_signal_address.ip();
      enter(State::kCalling);
      auto setup = pool_message<Q931Setup>();
      setup->call_ref = call_ref_;
      setup->calling = config_.msisdn;
      setup->called = peer_number_;
      setup->src_signal_address =
          TransportAddress(pdp_address_, config_.signal_port);
      setup->media_address =
          TransportAddress(pdp_address_, config_.media_port);
      MessagePtr setup_frame = tunneled(remote_signal_, std::move(setup));
      send_request(RetxKind::kSetup, std::move(setup_frame), [this] {
        if (state_ != State::kCalling) return;
        if (on_failure) on_failure("Setup timed out");
        release_call(true, 102);
      });
      return;
    }
    if (state_ == State::kIncomingArq && acf->call_ref == call_ref_) {
      enter(State::kRinging);
      auto alert = pool_message<Q931Alerting>();
      alert->call_ref = call_ref_;
      send_tunneled(remote_signal_, std::move(alert));
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
    if (state_ == State::kArqSent || state_ == State::kIncomingArq) {
      if (on_failure) {
        on_failure("admission rejected, cause " + std::to_string(arj->cause));
      }
      release_call(state_ == State::kIncomingArq, 47);
    }
    return;
  }
  if (msg_cast<RasDcf>(&inner) != nullptr) {
    retx_.ack(retx_key(RetxKind::kDrq));
    if (state_ == State::kAwaitDcf) {
      deactivate_pdp(State::kDeactivatingAfterCall);
    }
    return;
  }

  if (const auto* setup = msg_cast<Q931Setup>(&inner)) {
    if (setup->call_ref == call_ref_ && state_ != State::kIdle &&
        state_ != State::kDetached &&
        setup->src_signal_address.ip() == remote_signal_) {
      // Duplicate Setup for the call we are already handling: re-confirm
      // rather than busy-releasing our own call.
      auto proceed = pool_message<Q931CallProceeding>();
      proceed->call_ref = call_ref_;
      send_tunneled(remote_signal_, std::move(proceed));
      return;
    }
    if (state_ != State::kIdle || !pdp_active_) {
      auto rel = pool_message<Q931ReleaseComplete>();
      rel->call_ref = setup->call_ref;
      rel->cause = 17;
      send_tunneled(setup->src_signal_address.ip(), std::move(rel));
      return;
    }
    call_ref_ = setup->call_ref;
    peer_number_ = setup->calling;
    remote_signal_ = setup->src_signal_address.ip();
    remote_media_ = setup->media_address.ip();
    net().spans().open(SpanKind::kTermination, config_.imsi.value(), name(),
                       now());
    auto proceed = pool_message<Q931CallProceeding>();
    proceed->call_ref = call_ref_;
    send_tunneled(remote_signal_, std::move(proceed));
    enter(State::kIncomingArq);
    auto arq = pool_message<RasArq>();
    arq->endpoint_id = endpoint_id_;
    arq->call_ref = call_ref_;
    arq->calling = setup->calling;
    arq->called = config_.msisdn;
    arq->answer_call = true;
    MessagePtr arq_frame = tunneled(config_.gk_ip, std::move(arq));
    send_request(RetxKind::kArq, std::move(arq_frame), [this] {
      if (state_ != State::kIncomingArq) return;
      if (on_failure) on_failure("admission timed out");
      release_call(true, 102);
    });
    return;
  }
  if (msg_cast<Q931CallProceeding>(&inner) != nullptr) {
    retx_.ack(retx_key(RetxKind::kSetup));
    return;
  }
  if (const auto* alert = msg_cast<Q931Alerting>(&inner)) {
    retx_.ack(retx_key(RetxKind::kSetup));
    if (state_ == State::kCalling && alert->call_ref == call_ref_) {
      enter(State::kRingback);
      timer_ = set_timer(config_.ringback_timeout, kRingbackKind);
      if (on_ringback) on_ringback(call_ref_);
    }
    return;
  }
  if (const auto* conn = msg_cast<Q931Connect>(&inner)) {
    retx_.ack(retx_key(RetxKind::kSetup));
    if ((state_ == State::kRingback || state_ == State::kCalling) &&
        conn->call_ref == call_ref_) {
      net().spans().close(SpanKind::kOrigination, config_.imsi.value(),
                          SpanOutcome::kOk, now());
      remote_media_ = conn->media_address.ip();
      enter(State::kConnected);
      if (on_connected) on_connected(call_ref_);
      if (voice_remaining_ > 0) send_voice_frame();
    }
    return;
  }
  if (const auto* rel = msg_cast<Q931ReleaseComplete>(&inner)) {
    retx_.ack(retx_key(RetxKind::kSetup));
    if (rel->call_ref == call_ref_ && state_ != State::kIdle &&
        state_ != State::kDetached && state_ != State::kAwaitDcf &&
        state_ != State::kDeactivatingAfterCall) {
      release_call(false, rel->cause);
    }
    return;
  }
  if (const auto* rtp = msg_cast<RtpPacket>(&inner)) {
    if (state_ == State::kConnected) {
      ++voice_rx_;
      voice_latency_.add(
          SimDuration::micros(now().count_micros() - rtp->origin_us));
    }
    return;
  }

  VG_DEBUG("tr-ms", name() << ": ignoring tunneled " << inner.name());
}

}  // namespace vgprs
