// MscBase: the GSM-side machinery shared by the classic circuit-switched
// MSC and the paper's VMSC.  It owns the per-MS contexts and drives the
// standard procedures — registration (authentication, ciphering, location
// updating), MO/MT call control on the A interface, call clearing, and
// inter-system handoff (anchor and target roles, MAP/E interface).
//
// What a subclass supplies is exactly what differs between an MSC and a
// VMSC: how a call leaves the GSM domain (route_mo_call / on_ms_disconnect)
// and what happens at registration beyond GSM (on_registration_substrate —
// the VMSC's GPRS attach + PDP activation + H.323 endpoint registration).
// Sharing this class between both switches is the executable form of the
// paper's claim that vGPRS changes nothing on the BSS/VLR/HLR side.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>

#include "gsm/messages.hpp"
#include "sim/network.hpp"
#include "sim/retransmit.hpp"
#include "sim/subscriber_pool.hpp"

namespace vgprs {

class MscBase : public Node {
 public:
  struct Config {
    std::string vlr_name;
    bool authenticate_registration = true;
    bool authenticate_calls = true;
    bool ciphering = true;
    /// Supervision for every transient procedure (registration, call
    /// setup, clearing): if it has not reached a stable state by then, the
    /// MSC aborts it and releases all resources it holds.
    SimDuration procedure_guard = SimDuration::seconds(45);
    /// Supervision for an anchor-side inter-MSC handoff: if the target has
    /// not taken over (MAP_Send_End_Signal) by then, the attempt is
    /// abandoned and the call stays on the serving cell.
    SimDuration handoff_guard = SimDuration::seconds(30);
  };

  /// Procedure currently owning the context.
  enum class Proc : std::uint8_t {
    kNone,
    kRegister,
    kMoCall,
    kMtCall,
  };

  /// Step within the owning procedure.
  enum class Step : std::uint8_t {
    kNone,
    kAuthInfo,       // waiting for MAP_Send_Auth_Info_ack
    kAuthChallenge,  // waiting for A_Auth_Response
    kCipher,         // waiting for A_Cipher_Mode_Complete
    kUla,            // waiting for MAP_Update_Location_Area_ack
    kSubstrate,      // subclass registration work in progress
    kAwaitSetup,     // MO: CM service accepted, waiting for A_Setup
    kAuthorize,      // MO: waiting for MAP_Send_Info_For_Outgoing_Call_ack
    kPaging,         // MT: waiting for A_Paging_Response
    kAwaitAlert,     // MT: setup sent, waiting for A_Alerting
    kAwaitAnswer,    // MT: alerting, waiting for A_Connect
    kMoProgress,     // MO: waiting for far-end alerting/answer
    kActive,         // conversation
    kReleasingMs,    // MS hung up; waiting for A_Release_Complete
    kReleasingNet,   // network clearing; waiting for A_Release
    kClearing,       // waiting for A_Clear_Complete
  };

  struct MsContext {
    Imsi imsi;
    Tmsi tmsi;
    Msisdn msisdn;  // learned from the VLR at location updating
    LocationAreaId lai;
    CellId cell;
    NodeId bsc;
    bool registered = false;

    Proc proc = Proc::kNone;
    Step step = Step::kNone;
    AuthTriplet triplet;  // vector in use for the current challenge
    bool has_triplet = false;

    CallRef call_ref;
    Msisdn calling;
    Msisdn called;

    TimerId guard = 0;  // procedure guard; disarm_procedure_guard cancels it

    // Inter-system handoff.
    bool handed_off = false;  // anchor: MS now served by remote_msc
    bool handed_in = false;   // target: MS handed in from remote_msc (anchor)
    bool arrived = false;     // target: the MS completed the move
    NodeId remote_msc;
    CellId handover_target;
    TimerId handoff_guard = 0;  // anchor: supervises the attempt in flight
  };

  MscBase(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  /// Declares that `cell` is served by this MSC via `bsc_name` (used when
  /// this MSC is the handoff target).
  void adopt_cell(CellId cell, std::string bsc_name);
  /// Declares that `cell` belongs to the neighbouring MSC `msc_name`
  /// (used when this MSC is the handoff anchor).
  void add_remote_cell(CellId cell, std::string msc_name);

  [[nodiscard]] const MsContext* context_of(Imsi imsi) const;
  [[nodiscard]] std::size_t attached_count() const { return contexts_.size(); }

  void on_message(const Envelope& env) override;
  void on_timer(TimerId id, std::uint64_t cookie) override;
  /// Switch restart: every MS context, call binding, armed guard and
  /// pending retransmission is volatile and lost.  Cell provisioning
  /// (adopt_cell / add_remote_cell) survives.  Subscribers re-establish
  /// state through re-registration (cause-4 CM service rejects push them).
  void on_restart() override;

  /// Fired when a context finishes registration (after the substrate step).
  std::function<void(const MsContext&)> on_ms_registered;

 protected:
  // --- hooks for subclasses -------------------------------------------------
  /// Registration beyond GSM (VMSC: GPRS attach + PDP + RAS).  The default
  /// completes immediately.  Implementations must eventually call
  /// finish_registration(ctx).
  virtual void on_registration_substrate(MsContext& ctx) {
    finish_registration(ctx);
  }
  /// MO call authorized: route it beyond the GSM domain.  Implementations
  /// drive progress via notify_mo_alerting / notify_mo_connect, or reject
  /// via reject_mo_call.
  virtual void route_mo_call(MsContext& ctx) = 0;
  /// The MS hung up: release the far end, then call complete_ms_release.
  virtual void on_ms_disconnect(MsContext& ctx, ClearCause cause) = 0;
  /// MT call progress, for relaying toward the far end.
  virtual void on_mt_alerting(MsContext& ctx) { (void)ctx; }
  virtual void on_mt_connected(MsContext& ctx) { (void)ctx; }
  /// Both call legs are gone and radio resources are clear.
  virtual void on_call_cleared(MsContext& ctx) { (void)ctx; }
  /// A supervised procedure expired (peer unreachable, message lost
  /// without recovery): release the far-end leg this MSC created.  The
  /// radio resources are cleared by the base right after this call.
  virtual void on_call_aborted(MsContext& ctx) { (void)ctx; }
  /// The subscriber left this MSC: IMSI detach from the MS, or
  /// MAP_Cancel_Location relayed by the VLR after the subscriber
  /// registered elsewhere.  The context is erased right after this call;
  /// the VMSC uses it to detach from GPRS and unregister the alias.
  virtual void on_subscriber_removed(const MsContext& ctx) { (void)ctx; }
  /// Uplink voice from the MS (already anchored here after handoff).
  virtual void on_uplink_voice(MsContext& ctx, const VoiceFrameInfo& frame) {
    (void)ctx;
    (void)frame;
  }
  /// A message no MscBase procedure recognises; subclass protocols
  /// (ISUP, GPRS, H.323) handle it.  Return true if consumed.
  virtual bool on_unhandled(const Envelope& env) {
    (void)env;
    return false;
  }

  // --- helpers for subclasses ------------------------------------------------
  MsContext* context(Imsi imsi);
  MsContext* context_by_call(CallRef call_ref);
  [[nodiscard]] NodeId vlr() const { return peer(config_.vlr_name); }

  /// Completes the registration procedure (sends Location Update Accept).
  void finish_registration(MsContext& ctx);
  void reject_registration(MsContext& ctx, std::uint8_t cause);

  /// MO helpers.
  void notify_mo_alerting(MsContext& ctx);
  void notify_mo_connect(MsContext& ctx);
  void reject_mo_call(MsContext& ctx, ClearCause cause);

  /// Starts an MT call toward a registered MS.  Returns false if the MS is
  /// unknown, not registered, or busy.
  bool start_mt_call(Imsi imsi, Msisdn calling, CallRef call_ref);

  /// MS-initiated release, far end already released by the subclass.
  void complete_ms_release(MsContext& ctx);
  /// Network-initiated release (far end hung up or call failed).
  void release_from_network(MsContext& ctx, ClearCause cause);

  /// Sends one downlink voice frame toward the MS (via the target MSC when
  /// the call was handed off).  `processing` models local work such as the
  /// VMSC's vocoder transcode.
  void send_downlink_voice(MsContext& ctx, std::uint32_t seq,
                           std::int64_t origin_us,
                           SimDuration processing = SimDuration::zero());

  /// Where MS-bound messages go: the serving BSC, or the target MSC after
  /// an inter-system handoff.
  [[nodiscard]] NodeId downlink(const MsContext& ctx) const;

  // --- request retransmission -------------------------------------------------
  /// One key space for every request this switch may have in flight, shared
  /// with subclasses so the Retransmitter keys cannot collide.  Kinds 0x1x
  /// are MscBase's MAP exchanges; 0x2x GPRS and 0x3x RAS / 0x4x Q.931 are
  /// armed by the Vmsc.
  enum class RetxKind : std::uint8_t {
    kMapAuth = 0x11,
    kMapUla = 0x12,
    kMapOutCall = 0x13,
    kGprsAttach = 0x21,
    kPdpActivateSig = 0x22,
    kPdpActivateVoice = 0x23,
    kPdpDeactivateSig = 0x24,
    kPdpDeactivateVoice = 0x25,
    kGprsDetach = 0x26,
    kRasRrq = 0x31,
    kRasArq = 0x32,
    kRasDrq = 0x33,
    kRasUrq = 0x34,
    kQ931Setup = 0x41,
  };
  [[nodiscard]] static std::uint64_t retx_key(RetxKind kind, Imsi imsi) {
    return (static_cast<std::uint64_t>(kind) << 56) | imsi.value();
  }
  /// Cancels every pending request for `imsi` (all kinds).  Called whenever
  /// a procedure is torn down through another path, so a stale give-up
  /// cannot fire into a later, unrelated procedure.
  void drop_requests(Imsi imsi);
  [[nodiscard]] Retransmitter& retx() { return retx_; }

 private:
  /// Sends a MAP request to the VLR under (kind, imsi) with the standard
  /// give-up: abort the subscriber's current procedure (the VLR stayed
  /// silent through every backoff step — same outcome as the guard,
  /// reached much sooner).
  void send_vlr_request(RetxKind kind, Imsi imsi, MessagePtr request);
  /// Moves `ctx` to `step`.  The requests sent in a step serve that step,
  /// so leaving it ends their exchanges: the MAP requests of kAuthInfo,
  /// kUla and kAuthorize, and the Vmsc's admission request and Setup of
  /// kMoProgress.
  void set_step(MsContext& ctx, Step step);
  void remove_subscriber(Imsi imsi);
  void arm_procedure_guard(MsContext& ctx);
  void disarm_procedure_guard(MsContext& ctx) { cancel_timer(ctx.guard); }
  void abort_procedure(MsContext& ctx);
  void begin_auth(MsContext& ctx);
  void continue_after_security(MsContext& ctx);
  void send_ula(MsContext& ctx);
  void handle_a_message(const Envelope& env);
  bool handle_map_message(const Envelope& env);
  bool handle_handover(const Envelope& env);
  void clear_radio(MsContext& ctx);

  Config config_;
  Retransmitter retx_{*this};
  // Subscriber-proportional state lives in pooled slab tables; the cell
  // provisioning maps stay plain (small, configuration-time only).
  SubscriberTable<Imsi, MsContext> contexts_;
  SubscriberTable<CallRef, Imsi> call_index_;
  std::unordered_map<CellId, std::string> own_cells_;
  std::unordered_map<CellId, std::string> remote_cells_;
};

}  // namespace vgprs
