// Vmsc: the paper's contribution — a router-based softswitch that replaces
// the GSM MSC.  Toward the BSS/VLR/HLR it is exactly an MSC (all of that
// machinery is inherited, unmodified, from MscBase).  Beyond it:
//
//  * at registration it performs a GPRS attach and activates a low-priority
//    signaling PDP context, then registers the subscriber's MSISDN as an
//    H.323 alias at the gatekeeper (Fig. 4, steps 1.3-1.5);
//  * it runs H.225 RAS + Q.931 call signaling "just like an H.323
//    terminal", tunneled through the GPRS core via Gb/GTP (Figs. 5, 6);
//  * per call it activates a second, conversational-QoS PDP context for
//    the voice packets and transcodes TCH frames <-> RTP in its vocoder
//    bank (steps 2.9 / 4.8, release steps 3.1-3.4);
//  * it stays the anchor across inter-system handoff (Fig. 9), inherited
//    from MscBase.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "gprs/ip.hpp"
#include "gprs/messages.hpp"
#include "gsm/msc_base.hpp"
#include "h323/messages.hpp"
#include "sim/subscriber_pool.hpp"
#include "voice/codec.hpp"
#include "voice/rtp.hpp"

namespace vgprs {

class Vmsc : public MscBase {
 public:
  struct VmscConfig {
    Config base;
    std::string sgsn_name;
    IpAddress gk_ip;
    std::uint16_t signal_port = 1720;
    std::uint16_t media_port = 5004;
    QosProfile signaling_qos{QosClass::kBackground, 8, 3};
    QosProfile voice_qos{QosClass::kConversational, 13, 1};
    /// Ablation (Section 6): deactivate the signaling PDP context when the
    /// MS is idle, TR 23.821-style, and re-activate per call.  Increases
    /// call setup time; MT calls are then undeliverable.
    bool deactivate_pdp_when_idle = false;
    /// Vocoder transcode budget per direction.
    SimDuration transcode_delay = GsmFrCodec::kTranscodeDelay;
  };

  /// vGPRS-side registration progress of one MS (the "MS table" of the
  /// paper, holding MM and PDP contexts).
  struct VgprsState {
    enum class Phase : std::uint8_t {
      kNone,
      kAttaching,           // GPRS attach in flight (step 1.3)
      kActivatingSignaling, // signaling PDP context in flight (step 1.3)
      kRasRegistering,      // RRQ in flight (step 1.4)
      kReady,               // RCF received (step 1.5)
    };

    Phase phase = Phase::kNone;
    Msisdn alias;
    IpAddress signaling_ip;
    IpAddress voice_ip;
    bool signaling_active = false;
    bool voice_active = false;
    std::uint32_t endpoint_id = 0;

    // per-call H.323 leg
    IpAddress remote_signal;
    IpAddress remote_media;
    bool awaiting_admission = false;  // MT: ARQ outstanding before paging
    bool pending_drq_deactivate = false;
    Msisdn mt_calling;   // MT: caller identity from the tunneled Setup
    CallRef mt_call_ref;
    bool mo_pending = false;  // MO queued while re-activating the PDP ctx
    bool pending_detach = false;  // GPRS detach deferred until the UCF
  };

  Vmsc(std::string name, VmscConfig config)
      : MscBase(std::move(name), config.base), config_(std::move(config)) {}

  [[nodiscard]] const VgprsState* vgprs_state(Imsi imsi) const;
  [[nodiscard]] std::size_t ready_count() const;
  [[nodiscard]] const VmscConfig& vmsc_config() const { return config_; }

  /// Fired when the RAS registration completes for an MS.
  std::function<void(Imsi)> on_endpoint_ready;

  /// Switch restart: the MS table (MM contexts, PDP state, endpoint ids) is
  /// volatile on top of everything MscBase loses.  Subscribers re-attach
  /// through cause-4-driven re-registration.
  void on_restart() override {
    MscBase::on_restart();
    vgprs_states_.clear();
  }

 protected:
  void on_registration_substrate(MsContext& ctx) override;
  void route_mo_call(MsContext& ctx) override;
  void on_ms_disconnect(MsContext& ctx, ClearCause cause) override;
  void on_mt_alerting(MsContext& ctx) override;
  void on_mt_connected(MsContext& ctx) override;
  void on_call_cleared(MsContext& ctx) override;
  void on_call_aborted(MsContext& ctx) override;
  void on_subscriber_removed(const MsContext& ctx) override;
  void on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) override;
  bool on_unhandled(const Envelope& env) override;

 private:
  [[nodiscard]] NodeId sgsn() const { return peer(config_.sgsn_name); }
  VgprsState& vstate(Imsi imsi) { return vgprs_states_[imsi]; }

  /// The Gb frame that carries an H.323/IP message from `src` (one of the
  /// MS's PDP addresses) through the GPRS tunnel toward the SGSN.
  [[nodiscard]] MessagePtr tunneled(Imsi imsi, IpAddress src, IpAddress dst,
                                    MessagePtr inner) const;
  void send_tunneled(Imsi imsi, IpAddress src, IpAddress dst,
                     MessagePtr inner,
                     SimDuration processing = SimDuration::zero());
  /// Sends a GPRS request, or a frame tunnelling a RAS / Q.931 request, to
  /// the SGSN under (kind, imsi); the Retransmitter re-sends that message.
  void send_sgsn_request(RetxKind kind, Imsi imsi, MessagePtr request,
                         std::function<void()> give_up);
  /// Moves the MS table entry to `phase`.  The GPRS attach serves
  /// kAttaching and the RRQ kRasRegistering: leaving one ends its exchange.
  void enter_phase(Imsi imsi, VgprsState& vs, VgprsState::Phase phase);
  /// Erases the MS table entry.  Every exchange but the GPRS detach served
  /// it and ends with it; a PDP procedure in flight closes as rejected.
  void forget(Imsi imsi);

  void release_h323_leg(MsContext& ctx, ClearCause cause);
  /// Sends the DRQ for `call_ref` with retransmission; gives up by running
  /// the deferred voice-context deactivation locally.
  void send_drq(Imsi imsi, VgprsState& vs, CallRef call_ref);
  /// Sends the GPRS detach (with retransmission) and forgets the MS table
  /// entry.  Terminal: the detach is fire-and-forget beyond the backoff.
  void detach_and_forget(Imsi imsi);
  void activate_signaling_context(Imsi imsi);
  void activate_voice_context(Imsi imsi);
  void deactivate_context(Imsi imsi, Nsapi nsapi);
  void send_arq_for_mo(MsContext& ctx, VgprsState& vs);

  // GPRS control-plane handlers
  bool handle_gprs(const Envelope& env);
  // Tunneled H.323 handlers
  void handle_tunneled(Imsi imsi, const IpDatagramInfo& dgram,
                       const Message& inner);

  static constexpr Nsapi kSignalingNsapi{5};
  static constexpr Nsapi kVoiceNsapi{6};

  VmscConfig config_;
  SubscriberTable<Imsi, VgprsState> vgprs_states_;
};

}  // namespace vgprs
