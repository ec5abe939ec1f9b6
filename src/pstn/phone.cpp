#include "pstn/phone.hpp"

#include "common/log.hpp"

namespace vgprs {

namespace {
constexpr std::uint64_t kAnswerKind = 1;
constexpr std::uint64_t kVoiceKind = 3;
}  // namespace

void PstnPhone::enter(State s) {
  state_ = s;
  cancel_timer(timer_);
}

void PstnPhone::place_call(Msisdn called) {
  if (state_ != State::kIdle) return;
  enter(State::kDialing);
  cic_ = allocate_cic();
  auto iam = pool_message<IsupIam>();
  iam->cic = cic_;
  iam->calling = config_.number;
  iam->called = called;
  send(exchange(), std::move(iam));
}

void PstnPhone::answer() {
  if (state_ != State::kIncoming) return;
  enter(State::kConnected);
  auto anm = pool_message<IsupAnm>();
  anm->cic = cic_;
  send(exchange(), std::move(anm));
  if (on_connected) on_connected();
  if (voice_remaining_ > 0) send_voice_frame();
}

void PstnPhone::hangup() {
  if (state_ == State::kIdle) return;
  enter(State::kReleasing);
  auto rel = pool_message<IsupRel>();
  rel->cic = cic_;
  send(exchange(), std::move(rel));
}

void PstnPhone::start_voice(std::uint32_t count, SimDuration interval) {
  voice_remaining_ = count;
  voice_interval_ = interval;
  if (state_ == State::kConnected) send_voice_frame();
}

void PstnPhone::send_voice_frame() {
  if (voice_remaining_ == 0 || state_ != State::kConnected) return;
  --voice_remaining_;
  auto frame = pool_message<TrunkVoice>();
  frame->cic = cic_;
  frame->seq = ++voice_seq_;
  frame->origin_us = now().count_micros();
  send(exchange(), std::move(frame));
  if (voice_remaining_ > 0) {
    cancel_timer(timer_);
    timer_ = set_timer(voice_interval_, kVoiceKind);
  }
}

void PstnPhone::on_timer(TimerId, std::uint64_t cookie) {
  if (cookie == kAnswerKind) answer();
  if (cookie == kVoiceKind) send_voice_frame();
}

void PstnPhone::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* iam = msg_cast<IsupIam>(&msg)) {
    if (state_ != State::kIdle) {
      auto rel = pool_message<IsupRel>();
      rel->cic = iam->cic;
      rel->cause = 17;  // user busy
      send(env.from, std::move(rel));
      return;
    }
    enter(State::kIncoming);
    cic_ = iam->cic;
    auto acm = pool_message<IsupAcm>();
    acm->cic = cic_;
    send(env.from, std::move(acm));
    if (on_incoming) on_incoming(iam->calling);
    if (config_.auto_answer) {
      cancel_timer(timer_);
      timer_ = set_timer(config_.answer_delay, kAnswerKind);
    }
    return;
  }
  if (const auto* acm = msg_cast<IsupAcm>(&msg)) {
    if (state_ == State::kDialing && acm->cic == cic_) {
      enter(State::kRinging);
      if (on_ringback) on_ringback();
    }
    return;
  }
  if (const auto* anm = msg_cast<IsupAnm>(&msg)) {
    if (state_ == State::kRinging && anm->cic == cic_) {
      enter(State::kConnected);
      if (on_connected) on_connected();
      if (voice_remaining_ > 0) send_voice_frame();
    }
    return;
  }
  if (const auto* rel = msg_cast<IsupRel>(&msg)) {
    if (rel->cic != cic_) return;
    auto rlc = pool_message<IsupRlc>();
    rlc->cic = cic_;
    send(env.from, std::move(rlc));
    enter(State::kIdle);
    if (on_released) on_released();
    return;
  }
  if (const auto* rlc = msg_cast<IsupRlc>(&msg)) {
    if (rlc->cic == cic_ && state_ == State::kReleasing) {
      enter(State::kIdle);
      if (on_released) on_released();
    }
    return;
  }
  if (const auto* voice = msg_cast<TrunkVoice>(&msg)) {
    if (voice->cic == cic_ && state_ == State::kConnected) {
      voice_latency_.add(
          SimDuration::micros(now().count_micros() - voice->origin_us));
    }
    return;
  }

  VG_DEBUG("phone", name() << ": ignoring " << msg.name());
}

}  // namespace vgprs
