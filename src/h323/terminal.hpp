// H323Terminal: a native H.323 endpoint in the external VoIP network — the
// far end of the paper's call origination (Fig. 5) and the caller of the
// call termination flow (Fig. 6).  Implements RAS registration, Q.931 call
// control in both directions and RTP media with latency probes.
#pragma once

#include <functional>
#include <string>

#include "h323/ip_endpoint.hpp"
#include "h323/messages.hpp"
#include "sim/retransmit.hpp"
#include "sim/stats.hpp"
#include "voice/rtp.hpp"

namespace vgprs {

class H323Terminal : public IpEndpoint {
 public:
  struct Config {
    IpAddress ip;
    std::uint16_t signal_port = 1720;
    std::uint16_t media_port = 5004;
    Msisdn alias;
    IpAddress gk_ip;
    std::string router_name;
    bool auto_answer = true;
    SimDuration answer_delay = SimDuration::millis(800);
    bool disengage_on_release = true;  // step 3.3: DRQ at call end
  };

  enum class State {
    kIdle,
    kRegistering,
    kRegistered,
    kArqSent,     // MO: admission requested
    kCalling,     // MO: Setup sent
    kRingback,    // MO: far end alerting
    kIncomingArq, // MT: admission requested before alerting
    kRinging,     // MT: alerting locally
    kConnected,
  };

  H323Terminal(std::string name, Config config)
      : IpEndpoint(std::move(name), config.ip, config.router_name),
        config_(std::move(config)) {}

  // --- user API ---------------------------------------------------------------
  void register_endpoint();
  void place_call(Msisdn called);
  void answer();
  void hangup();
  void start_voice(std::uint32_t count,
                   SimDuration interval = SimDuration::millis(20));

  // --- introspection -------------------------------------------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] CallRef call_ref() const { return call_ref_; }
  [[nodiscard]] std::uint32_t endpoint_id() const { return endpoint_id_; }
  [[nodiscard]] const Histogram& voice_latency() const {
    return voice_latency_;
  }
  [[nodiscard]] std::uint32_t voice_frames_received() const {
    return voice_rx_;
  }

  // --- hooks --------------------------------------------------------------------
  std::function<void()> on_registered;
  std::function<void(CallRef, Msisdn)> on_incoming;
  std::function<void(CallRef)> on_ringback;
  std::function<void(CallRef)> on_connected;
  std::function<void(CallRef)> on_released;
  std::function<void(std::string)> on_failure;

  void on_timer(TimerId id, std::uint64_t cookie) override;

 protected:
  void on_ip(const IpDatagramInfo& dgram, const Message& inner) override;

 private:
  /// Keys for the terminal's own request–response exchanges.
  enum class RetxKind : std::uint64_t { kRrq = 1, kArq = 2, kSetup = 3 };
  static std::uint64_t retx_key(RetxKind kind) {
    return static_cast<std::uint64_t>(kind);
  }

  /// Cancels the state's timer and ends every pending exchange: each one
  /// served the state that sent its request.
  void enter(State s);
  /// Sends `inner` to `dst` as a request under `kind`; the Retransmitter
  /// re-sends that datagram until an answer or enter() ends the exchange.
  void send_request(RetxKind kind, IpAddress dst, MessagePtr inner,
                    std::function<void()> give_up);
  void send_voice_frame();
  void release_local(CallRef call_ref);

  Config config_;
  Retransmitter retx_{*this};
  State state_ = State::kIdle;
  std::uint32_t endpoint_id_ = 0;
  CallRef call_ref_;
  Msisdn peer_number_;
  IpAddress remote_signal_;
  IpAddress remote_media_;
  std::uint32_t call_seq_ = 0;
  TimerId timer_ = 0;  // the current state's timer; enter() cancels it

  std::uint32_t voice_remaining_ = 0;
  std::uint32_t voice_seq_ = 0;
  std::uint32_t voice_rx_ = 0;
  SimDuration voice_interval_ = SimDuration::millis(20);
  Histogram voice_latency_;
};

}  // namespace vgprs
