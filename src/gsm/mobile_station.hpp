// MobileStation: a *standard* GSM handset.  This is the crux of the paper:
// vGPRS serves unmodified MSs, so this class implements only GSM 04.08
// mobility management and call control — no vocoder-over-IP, no H.323
// terminal capability.  The identical class is used against the classic
// GSM MSC and against the vGPRS VMSC, which demonstrates the "no handset
// modification" claim by construction.
#pragma once

#include <functional>
#include <string>
#include <unordered_map>

#include "gsm/auth.hpp"
#include "gsm/messages.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"

namespace vgprs {

class MobileStation final : public Node {
 public:
  struct Config {
    Imsi imsi;
    Msisdn msisdn;
    std::uint64_t ki = 0;        // SIM secret key
    std::string bts_name;        // serving cell
    bool auto_answer = true;
    SimDuration answer_delay = SimDuration::millis(800);
    /// Procedure supervision: if a procedure stalls for `retry_interval`,
    /// the last procedure message is retransmitted (modeling LAPDm / RR
    /// retries); after `max_retries` retransmissions the procedure fails.
    SimDuration retry_interval = SimDuration::seconds(4);
    std::uint8_t max_retries = 3;
  };

  enum class State {
    kDetached,
    kRegistering,
    kIdle,
    kMoChannel,    // waiting for SDCCH (originating)
    kMoService,    // CM service request sent
    kMoSetup,      // Setup sent, waiting for progress
    kMoRinging,    // heard ringback (Alerting received)
    kMtChannel,    // waiting for SDCCH (page response)
    kMtPaged,      // paging response sent, waiting for Setup
    kMtRinging,    // ringing locally
    kConnected,
    kReleasing,
  };

  MobileStation(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  // --- subscriber API (what a user does with the phone) --------------------
  void power_on();
  /// IMSI detach: tells the network this MS is gone, then powers down.
  void power_off();
  /// Moves the MS to another cell.  When idle, this triggers the standard
  /// location-update-on-movement registration the paper mentions in
  /// Section 3 ("The registration procedure for MS movement is similar").
  void move_to(const std::string& bts_name);
  void dial(Msisdn called);
  void answer();
  void hangup();

  /// Starts emitting uplink TCH voice frames every `interval` while the call
  /// lasts (at most `count` frames).  Received downlink frames accumulate in
  /// voice_latency().
  void start_voice(std::uint32_t count,
                   SimDuration interval = SimDuration::millis(20));

  /// Declares a neighbour cell the MS may be handed over to.
  void add_neighbor_bts(CellId cell, std::string bts_name);

  // --- introspection --------------------------------------------------------
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const Config& config() const { return config_; }
  [[nodiscard]] Tmsi tmsi() const { return tmsi_; }
  [[nodiscard]] CallRef call_ref() const { return call_ref_; }
  [[nodiscard]] const Histogram& voice_latency() const {
    return voice_latency_;
  }
  [[nodiscard]] std::uint32_t voice_frames_received() const {
    return voice_rx_;
  }

  // --- event hooks -----------------------------------------------------------
  std::function<void()> on_registered;
  std::function<void(CallRef)> on_ringback;   // MO: far end is ringing
  std::function<void(CallRef, Msisdn)> on_incoming;
  std::function<void(CallRef)> on_connected;
  std::function<void(CallRef)> on_released;
  std::function<void(std::string)> on_failure;

  void on_message(const Envelope& env) override;
  void on_timer(TimerId id, std::uint64_t cookie) override;

 private:
  enum class TimerKind : std::uint8_t { kAnswer = 1, kGuard = 2, kVoice = 3 };

  void enter(State s);
  /// Arms procedure supervision and remembers `msg` for retransmission.
  void start_step(MessagePtr msg);
  void arm_guard();
  [[nodiscard]] NodeId bts() const;
  void fail(const std::string& reason);
  void send_voice_frame();
  /// Closes the span implied by the current procedure state (registration /
  /// origination / release) when the procedure dies without its normal
  /// closing message.  No-op for states whose span another node owns.
  void close_state_span(SpanOutcome outcome);

  Config config_;
  State state_ = State::kDetached;
  std::string serving_bts_;  // may change at handover
  Tmsi tmsi_;
  CallRef call_ref_;
  Msisdn pending_called_;
  std::uint32_t call_seq_ = 0;
  TimerId timer_ = 0;  // the current state's timer; enter() cancels it
  MessagePtr last_proc_msg_;  // retransmitted if the procedure stalls
  std::uint8_t retries_left_ = 0;

  std::unordered_map<CellId, std::string> neighbor_bts_;

  // voice traffic state
  std::uint32_t voice_remaining_ = 0;
  std::uint32_t voice_seq_ = 0;
  std::uint32_t voice_rx_ = 0;
  SimDuration voice_interval_ = SimDuration::millis(20);
  Histogram voice_latency_;
};

[[nodiscard]] constexpr const char* to_string(MobileStation::State s) {
  switch (s) {
    case MobileStation::State::kDetached: return "detached";
    case MobileStation::State::kRegistering: return "registering";
    case MobileStation::State::kIdle: return "idle";
    case MobileStation::State::kMoChannel: return "mo-channel";
    case MobileStation::State::kMoService: return "mo-service";
    case MobileStation::State::kMoSetup: return "mo-setup";
    case MobileStation::State::kMoRinging: return "mo-ringing";
    case MobileStation::State::kMtChannel: return "mt-channel";
    case MobileStation::State::kMtPaged: return "mt-paged";
    case MobileStation::State::kMtRinging: return "mt-ringing";
    case MobileStation::State::kConnected: return "connected";
    case MobileStation::State::kReleasing: return "releasing";
  }
  return "?";
}

}  // namespace vgprs
