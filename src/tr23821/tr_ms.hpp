// TrMobileStation: the 3G TR 23.821 handset — an MS that *is* an H.323
// terminal, with vocoder and H.323 stack on board (exactly what the paper
// says standard handsets lack).  It reaches the SGSN over the
// packet-switched radio path (PCU), so all of its signaling AND voice ride
// the GPRS user plane; the radio leg has queueing jitter, which is the
// paper's "no real-time guarantee" argument.
//
// PDP-context lifecycle per 3G TR 23.821: activate for registration,
// deactivate afterwards, re-activate for every call (MS-initiated for
// originations, network-initiated — which requires a static PDP address —
// for terminations).
#pragma once

#include <functional>
#include <string>

#include "gprs/ip.hpp"
#include "gprs/messages.hpp"
#include "h323/messages.hpp"
#include "sim/network.hpp"
#include "sim/retransmit.hpp"
#include "sim/stats.hpp"
#include "voice/rtp.hpp"

namespace vgprs {

class TrMobileStation final : public Node {
 public:
  struct Config {
    Imsi imsi;
    Msisdn msisdn;
    IpAddress static_pdp_address;  // required for terminating calls
    std::string sgsn_name;
    IpAddress gk_ip;
    std::uint16_t signal_port = 1720;
    std::uint16_t media_port = 5004;
    bool auto_answer = true;
    SimDuration answer_delay = SimDuration::millis(800);
    /// Ceiling on how long a caller listens to ringback before abandoning
    /// the call; without it a lost Q931_Connect left the MS in kRingback
    /// forever (the Setup retransmitter is acked by the alerting already).
    SimDuration ringback_timeout = SimDuration::seconds(60);
    /// TR 23.821 resource policy: drop the PDP context while idle.
    bool deactivate_pdp_when_idle = true;
  };

  enum class State {
    kDetached,
    kAttaching,
    kActivatingInitial,   // PDP context for registration
    kRasRegistering,
    kDeactivatingIdle,    // post-registration teardown
    kIdle,                // registered at GK, no PDP context (if policy on)
    kActivatingForCall,   // MO: rebuilding the context
    kActivatingForPage,   // MT: network-initiated activation
    kArqSent,
    kCalling,
    kRingback,
    kIncomingArq,
    kRinging,
    kConnected,
    kAwaitDcf,            // DRQ sent; deactivate once the GK confirms
    kDeactivatingAfterCall,
  };

  TrMobileStation(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  // --- user API ------------------------------------------------------------
  void power_on();
  void dial(Msisdn called);
  void answer();
  void hangup();
  void start_voice(std::uint32_t count,
                   SimDuration interval = SimDuration::millis(20));

  // --- introspection ----------------------------------------------------------
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] bool pdp_active() const { return pdp_active_; }
  [[nodiscard]] std::uint32_t pdp_activations() const {
    return pdp_activations_;
  }
  [[nodiscard]] std::uint32_t pdp_deactivations() const {
    return pdp_deactivations_;
  }
  [[nodiscard]] const Histogram& voice_latency() const {
    return voice_latency_;
  }
  [[nodiscard]] std::uint32_t voice_frames_received() const {
    return voice_rx_;
  }
  [[nodiscard]] CallRef call_ref() const { return call_ref_; }

  // --- hooks ---------------------------------------------------------------------
  std::function<void()> on_registered;
  std::function<void(CallRef, Msisdn)> on_incoming;
  std::function<void(CallRef)> on_ringback;
  std::function<void(CallRef)> on_connected;
  std::function<void(CallRef)> on_released;
  std::function<void(std::string)> on_failure;

  void on_message(const Envelope& env) override;
  void on_timer(TimerId id, std::uint64_t cookie) override;
  /// Handset restart: everything is volatile; the subscriber has to power
  /// on again before any further service.
  void on_restart() override {
    enter(State::kDetached);
    attached_ = false;
    pdp_active_ = false;
    pdp_address_ = IpAddress{};
    endpoint_id_ = 0;
    pending_setup_ = nullptr;
    remote_signal_ = IpAddress{};
    remote_media_ = IpAddress{};
  }

 private:
  /// Keys for the handset's request–response exchanges (one subscriber per
  /// node, so the kind alone is the key).
  enum class RetxKind : std::uint64_t {
    kAttach = 1,
    kPdpActivate = 2,
    kPdpDeactivate = 3,
    kRrq = 4,
    kArq = 5,
    kDrq = 6,
    kSetup = 7,
  };
  static std::uint64_t retx_key(RetxKind kind) {
    return static_cast<std::uint64_t>(kind);
  }
  /// Cancels the state's timer and ends every pending exchange: each one
  /// served the state that sent its request.
  void enter(State s);
  [[nodiscard]] NodeId sgsn() const { return peer(config_.sgsn_name); }
  /// The Gb frame that carries `inner` from the PDP address to `dst`.
  [[nodiscard]] MessagePtr tunneled(IpAddress dst, MessagePtr inner) const;
  void send_tunneled(IpAddress dst, MessagePtr inner);
  /// Sends a GPRS request, or a frame tunnelling a RAS / Q.931 request, to
  /// the SGSN under `kind`; the Retransmitter re-sends that message.
  void send_request(RetxKind kind, MessagePtr request,
                    std::function<void()> give_up);
  void activate_pdp();
  void give_up_pdp_activation();
  void deactivate_pdp(State next);
  void send_arq();
  void send_voice_frame();
  void release_call(bool notify_far_end, std::uint8_t cause);
  void handle_tunneled(const Message& inner);

  Config config_;
  Retransmitter retx_{*this};
  State state_ = State::kDetached;
  bool attached_ = false;
  bool pdp_active_ = false;
  IpAddress pdp_address_;
  std::uint32_t endpoint_id_ = 0;
  std::uint32_t pdp_activations_ = 0;
  std::uint32_t pdp_deactivations_ = 0;

  CallRef call_ref_;
  Msisdn peer_number_;
  IpAddress remote_signal_;
  IpAddress remote_media_;
  // A caller's Setup that overtook our page-triggered activation accept on
  // the jittery Gb path; replayed once the context is up.
  MessagePtr pending_setup_;
  std::uint32_t call_seq_ = 0;
  TimerId timer_ = 0;  // the current state's timer; enter() cancels it

  std::uint32_t voice_remaining_ = 0;
  std::uint32_t voice_seq_ = 0;
  std::uint32_t voice_rx_ = 0;
  SimDuration voice_interval_ = SimDuration::millis(20);
  Histogram voice_latency_;
};

}  // namespace vgprs
