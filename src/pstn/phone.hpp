// A fixed-line telephone attached to a PSTN switch.  Subscriber-line
// signaling is abstracted as ISUP toward the switch.
#pragma once

#include <functional>
#include <string>

#include "pstn/messages.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"

namespace vgprs {

class PstnPhone final : public Node {
 public:
  struct Config {
    Msisdn number;
    std::string switch_name;
    bool auto_answer = true;
    SimDuration answer_delay = SimDuration::millis(900);
  };

  enum class State { kIdle, kDialing, kRinging, kIncoming, kConnected,
                     kReleasing };

  PstnPhone(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  void place_call(Msisdn called);
  void answer();
  void hangup();

  /// Emits `count` trunk voice frames every `interval` once connected.
  void start_voice(std::uint32_t count,
                   SimDuration interval = SimDuration::millis(20));

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Cic cic() const { return cic_; }
  [[nodiscard]] Msisdn number() const { return config_.number; }
  [[nodiscard]] const Histogram& voice_latency() const {
    return voice_latency_;
  }

  std::function<void()> on_ringback;   // far end alerting (ACM)
  std::function<void(Msisdn)> on_incoming;
  std::function<void()> on_connected;
  std::function<void()> on_released;

  void on_message(const Envelope& env) override;
  void on_timer(TimerId id, std::uint64_t cookie) override;

 private:
  void enter(State s);
  [[nodiscard]] NodeId exchange() const { return peer(config_.switch_name); }
  void send_voice_frame();

  Config config_;
  State state_ = State::kIdle;
  Cic cic_ = 0;
  TimerId timer_ = 0;  // the current state's timer; enter() cancels it

  std::uint32_t voice_remaining_ = 0;
  std::uint32_t voice_seq_ = 0;
  SimDuration voice_interval_ = SimDuration::millis(20);
  Histogram voice_latency_;
};

}  // namespace vgprs
