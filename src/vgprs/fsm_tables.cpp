#include "vgprs/fsm_tables.hpp"

#include "gprs/data_ms.hpp"
#include "gsm/msc_base.hpp"
#include "tr23821/tr_ms.hpp"
#include "vgprs/vmsc.hpp"

namespace vgprs {
namespace {

// Exhaustive, default-free switches: -Wswitch turns an enum value missing
// from its table into a build failure.

constexpr std::string_view step_name(MscBase::Step s) {
  switch (s) {
    case MscBase::Step::kNone: return "none";
    case MscBase::Step::kAuthInfo: return "auth-info";
    case MscBase::Step::kAuthChallenge: return "auth-challenge";
    case MscBase::Step::kCipher: return "cipher";
    case MscBase::Step::kUla: return "ula";
    case MscBase::Step::kSubstrate: return "substrate";
    case MscBase::Step::kAwaitSetup: return "await-setup";
    case MscBase::Step::kAuthorize: return "authorize";
    case MscBase::Step::kPaging: return "paging";
    case MscBase::Step::kAwaitAlert: return "await-alert";
    case MscBase::Step::kAwaitAnswer: return "await-answer";
    case MscBase::Step::kMoProgress: return "mo-progress";
    case MscBase::Step::kActive: return "active";
    case MscBase::Step::kReleasingMs: return "releasing-ms";
    case MscBase::Step::kReleasingNet: return "releasing-net";
    case MscBase::Step::kClearing: return "clearing";
  }
  return "?";
}

constexpr std::string_view phase_name(Vmsc::VgprsState::Phase p) {
  switch (p) {
    case Vmsc::VgprsState::Phase::kNone: return "none";
    case Vmsc::VgprsState::Phase::kAttaching: return "attaching";
    case Vmsc::VgprsState::Phase::kActivatingSignaling:
      return "activating-signaling";
    case Vmsc::VgprsState::Phase::kRasRegistering: return "ras-registering";
    case Vmsc::VgprsState::Phase::kReady: return "ready";
  }
  return "?";
}

constexpr std::string_view data_state_name(GprsDataMs::State s) {
  switch (s) {
    case GprsDataMs::State::kDetached: return "detached";
    case GprsDataMs::State::kAttaching: return "attaching";
    case GprsDataMs::State::kActivating: return "activating";
    case GprsDataMs::State::kOnline: return "online";
  }
  return "?";
}

constexpr std::string_view tr_state_name(TrMobileStation::State s) {
  switch (s) {
    case TrMobileStation::State::kDetached: return "detached";
    case TrMobileStation::State::kAttaching: return "attaching";
    case TrMobileStation::State::kActivatingInitial:
      return "activating-initial";
    case TrMobileStation::State::kRasRegistering: return "ras-registering";
    case TrMobileStation::State::kDeactivatingIdle: return "deactivating-idle";
    case TrMobileStation::State::kIdle: return "idle";
    case TrMobileStation::State::kActivatingForCall:
      return "activating-for-call";
    case TrMobileStation::State::kActivatingForPage:
      return "activating-for-page";
    case TrMobileStation::State::kArqSent: return "arq-sent";
    case TrMobileStation::State::kCalling: return "calling";
    case TrMobileStation::State::kRingback: return "ringback";
    case TrMobileStation::State::kIncomingArq: return "incoming-arq";
    case TrMobileStation::State::kRinging: return "ringing";
    case TrMobileStation::State::kConnected: return "connected";
    case TrMobileStation::State::kAwaitDcf: return "await-dcf";
    case TrMobileStation::State::kDeactivatingAfterCall:
      return "deactivating-after-call";
  }
  return "?";
}

FsmTable msc_call_table() {
  using S = MscBase::Step;
  auto n = [](S s) { return step_name(s); };
  FsmTable t;
  t.name = "msc-call";
  t.initial = n(S::kNone);
  t.states = {n(S::kNone),        n(S::kAuthInfo),     n(S::kAuthChallenge),
              n(S::kCipher),      n(S::kUla),          n(S::kSubstrate),
              n(S::kAwaitSetup),  n(S::kAuthorize),    n(S::kPaging),
              n(S::kAwaitAlert),  n(S::kAwaitAnswer),  n(S::kMoProgress),
              n(S::kActive),      n(S::kReleasingMs),  n(S::kReleasingNet),
              n(S::kClearing)};
  t.transitions = {
      // Registration (Fig. 4) / MO entry (Fig. 5) / MT entry (Fig. 6).
      {n(S::kNone), "A_Location_Update", n(S::kAuthInfo),
       {"MAP_Send_Auth_Info"}},
      {n(S::kNone), "A_Location_Update(no-auth)", n(S::kUla),
       {"MAP_Update_Location_Area"}},
      {n(S::kNone), "A_CM_Service_Request", n(S::kAuthInfo),
       {"MAP_Send_Auth_Info"}},
      {n(S::kNone), "A_CM_Service_Request(no-auth)", n(S::kAwaitSetup),
       {"A_CM_Service_Accept"}},
      {n(S::kNone), "start_mt_call", n(S::kPaging), {"A_Paging"}},
      // Security sub-procedure, shared by all three procedures.
      {n(S::kAuthInfo), "MAP_Send_Auth_Info_ack", n(S::kAuthChallenge),
       {"A_Auth_Request"}},
      {n(S::kAuthInfo), "MAP_Send_Auth_Info_ack(no-vectors)", n(S::kNone),
       {"A_Location_Update_Reject", "A_CM_Service_Reject"}},
      {n(S::kAuthChallenge), "A_Auth_Response", n(S::kCipher),
       {"A_Cipher_Mode_Command"}},
      {n(S::kAuthChallenge), "A_Auth_Response(mismatch)", n(S::kNone),
       {"A_Location_Update_Reject", "A_CM_Service_Reject"}},
      {n(S::kAuthChallenge), "A_Auth_Response(register,no-cipher)",
       n(S::kUla), {"MAP_Update_Location_Area"}},
      {n(S::kAuthChallenge), "A_Auth_Response(mo,no-cipher)",
       n(S::kAwaitSetup), {"A_CM_Service_Accept"}},
      {n(S::kAuthChallenge), "A_Auth_Response(mt,no-cipher)",
       n(S::kAwaitAlert), {"A_Setup", "A_Assignment_Request"}},
      {n(S::kCipher), "A_Cipher_Mode_Complete(register)", n(S::kUla),
       {"MAP_Update_Location_Area"}},
      {n(S::kCipher), "A_Cipher_Mode_Complete(mo)", n(S::kAwaitSetup),
       {"A_CM_Service_Accept"}},
      {n(S::kCipher), "A_Cipher_Mode_Complete(mt)", n(S::kAwaitAlert),
       {"A_Setup", "A_Assignment_Request"}},
      // Registration tail.
      {n(S::kUla), "MAP_Update_Location_Area_ack", n(S::kSubstrate)},
      {n(S::kUla), "MAP_Update_Location_Area_ack(failure)", n(S::kNone),
       {"A_Location_Update_Reject"}},
      {n(S::kSubstrate), "finish_registration", n(S::kNone),
       {"A_Location_Update_Accept"}},
      {n(S::kSubstrate), "reject_registration", n(S::kNone),
       {"A_Location_Update_Reject"}},
      // MO call setup.
      {n(S::kAwaitSetup), "A_Setup", n(S::kAuthorize),
       {"MAP_Send_Info_For_Outgoing_Call"}},
      {n(S::kAuthorize), "MAP_Send_Info_For_Outgoing_Call_ack",
       n(S::kMoProgress),
       {"A_Call_Proceeding", "A_Assignment_Request", "Gb_UnitData"}},
      {n(S::kAuthorize), "MAP_Send_Info_For_Outgoing_Call_ack(failure)",
       n(S::kReleasingNet), {"A_Disconnect"}},
      {n(S::kMoProgress), "notify_mo_alerting", n(S::kMoProgress),
       {"A_Alerting"}},
      {n(S::kMoProgress), "notify_mo_connect", n(S::kActive),
       {"A_Connect", "Activate_PDP_Context_Request"}},
      {n(S::kMoProgress), "reject_mo_call", n(S::kReleasingNet),
       {"A_Disconnect"}},
      {n(S::kMoProgress), "A_Disconnect", n(S::kReleasingMs),
       {"Gb_UnitData"}},
      // MT call setup.
      {n(S::kPaging), "A_Paging_Response", n(S::kAuthInfo),
       {"MAP_Send_Auth_Info"}},
      {n(S::kPaging), "A_Paging_Response(no-auth)", n(S::kAwaitAlert),
       {"A_Setup", "A_Assignment_Request"}},
      {n(S::kAwaitAlert), "A_Alerting", n(S::kAwaitAnswer), {"Gb_UnitData"}},
      {n(S::kAwaitAlert), "A_Disconnect", n(S::kReleasingMs),
       {"Gb_UnitData"}},
      {n(S::kAwaitAnswer), "A_Connect", n(S::kActive),
       {"A_Connect_Ack", "Gb_UnitData", "Activate_PDP_Context_Request"}},
      {n(S::kAwaitAnswer), "A_Disconnect", n(S::kReleasingMs),
       {"Gb_UnitData"}},
      // Conversation and clearing (steps 3.1-3.4).
      {n(S::kActive), "A_Disconnect", n(S::kReleasingMs), {"Gb_UnitData"}},
      {n(S::kActive), "release_from_network", n(S::kReleasingNet),
       {"A_Disconnect"}},
      {n(S::kReleasingMs), "A_Release_Complete", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kReleasingNet), "A_Release", n(S::kClearing),
       {"A_Release_Complete", "A_Clear_Command"}},
      {n(S::kClearing), "A_Clear_Complete", n(S::kNone),
       {"Deactivate_PDP_Context_Request"}},
      // Procedure supervision: a stalled registration resets, a stalled
      // call procedure aborts into radio clearing, and a stalled clearing
      // (A_Clear_Complete lost after an abort) force-clears locally.  The
      // same event also stands for the Retransmitter give-up, which aborts
      // through the identical path well before the guard fires.
      {n(S::kAuthInfo), "procedure_guard(register)", n(S::kNone)},
      {n(S::kAuthInfo), "procedure_guard(call)", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kAuthChallenge), "procedure_guard(register)", n(S::kNone)},
      {n(S::kAuthChallenge), "procedure_guard(call)", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kCipher), "procedure_guard(register)", n(S::kNone)},
      {n(S::kCipher), "procedure_guard(call)", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kUla), "procedure_guard", n(S::kNone)},
      {n(S::kSubstrate), "procedure_guard", n(S::kNone)},
      {n(S::kAuthorize), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kAwaitSetup), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kPaging), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kAwaitAlert), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kAwaitAnswer), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kMoProgress), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kReleasingMs), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kReleasingNet), "procedure_guard", n(S::kClearing),
       {"A_Clear_Command"}},
      {n(S::kClearing), "procedure_guard", n(S::kNone)},
  };
  t.stable = {n(S::kNone), n(S::kActive)};
  t.timers = {
      {n(S::kAuthInfo), "procedure_guard", ""},
      {n(S::kAuthChallenge), "procedure_guard", ""},
      {n(S::kCipher), "procedure_guard", ""},
      {n(S::kUla), "procedure_guard", "MAP_Update_Location_Area"},
      {n(S::kSubstrate), "procedure_guard", ""},
      {n(S::kAwaitSetup), "procedure_guard", ""},
      {n(S::kAuthorize), "procedure_guard",
       "MAP_Send_Info_For_Outgoing_Call"},
      {n(S::kPaging), "procedure_guard", ""},
      {n(S::kAwaitAlert), "procedure_guard", ""},
      {n(S::kAwaitAnswer), "procedure_guard", ""},
      {n(S::kMoProgress), "procedure_guard", ""},
      {n(S::kReleasingMs), "procedure_guard", ""},
      {n(S::kReleasingNet), "procedure_guard", ""},
      {n(S::kClearing), "procedure_guard", ""},
  };
  return t;
}

FsmTable vmsc_endpoint_table() {
  using P = Vmsc::VgprsState::Phase;
  auto n = [](P p) { return phase_name(p); };
  FsmTable t;
  t.name = "vmsc-endpoint";
  t.initial = n(P::kNone);
  t.states = {n(P::kNone), n(P::kAttaching), n(P::kActivatingSignaling),
              n(P::kRasRegistering), n(P::kReady)};
  t.transitions = {
      // Fig. 4 steps 1.3-1.5.
      {n(P::kNone), "registration_substrate", n(P::kAttaching),
       {"GPRS_Attach_Request"}},
      {n(P::kAttaching), "GPRS_Attach_Accept", n(P::kActivatingSignaling),
       {"Activate_PDP_Context_Request"}},
      {n(P::kAttaching), "GPRS_Attach_Reject", n(P::kNone),
       {"A_Location_Update_Reject"}},
      {n(P::kAttaching), "attach_give_up", n(P::kNone),
       {"A_Location_Update_Reject"}},
      {n(P::kActivatingSignaling), "Activate_PDP_Context_Accept",
       n(P::kRasRegistering), {"Gb_UnitData"}},
      {n(P::kActivatingSignaling), "Activate_PDP_Context_Reject",
       n(P::kNone), {"A_Location_Update_Reject"}},
      {n(P::kActivatingSignaling), "pdp_give_up", n(P::kNone),
       {"A_Location_Update_Reject"}},
      {n(P::kRasRegistering), "RAS_RCF", n(P::kReady),
       {"A_Location_Update_Accept", "Deactivate_PDP_Context_Request"}},
      {n(P::kRasRegistering), "RAS_RRJ", n(P::kNone),
       {"A_Location_Update_Reject"}},
      {n(P::kRasRegistering), "rrq_give_up", n(P::kNone),
       {"A_Location_Update_Reject"}},
      // handle_gprs tears down the whole endpoint state on an attach
      // reject in ANY phase (the SGSN is disowning the subscription), not
      // just while the attach is outstanding.
      {n(P::kActivatingSignaling), "GPRS_Attach_Reject", n(P::kNone)},
      {n(P::kRasRegistering), "GPRS_Attach_Reject", n(P::kNone)},
      {n(P::kReady), "GPRS_Attach_Reject", n(P::kNone)},
      // IMSI detach or MAP_Cancel_Location erases the endpoint state.
      {n(P::kReady), "subscriber_removed", n(P::kNone),
       {"GPRS_Detach_Request", "Gb_UnitData"}},
  };
  t.stable = {n(P::kNone), n(P::kReady)};
  t.timers = {
      {n(P::kAttaching), "attach_give_up", "GPRS_Attach_Request"},
      {n(P::kActivatingSignaling), "pdp_give_up",
       "Activate_PDP_Context_Request"},
      // The RRQ rides Gb_UnitData through the tunnel; the Retransmitter
      // keys it by IMSI, not by a flow-table request name.
      {n(P::kRasRegistering), "rrq_give_up", ""},
  };
  return t;
}

FsmTable pdp_context_table() {
  using S = GprsDataMs::State;
  auto n = [](S s) { return data_state_name(s); };
  FsmTable t;
  t.name = "pdp-context";
  t.initial = n(S::kDetached);
  t.states = {n(S::kDetached), n(S::kAttaching), n(S::kActivating),
              n(S::kOnline)};
  t.transitions = {
      {n(S::kDetached), "power_on", n(S::kAttaching),
       {"GPRS_Attach_Request"}},
      {n(S::kAttaching), "GPRS_Attach_Accept", n(S::kActivating),
       {"Activate_PDP_Context_Request"}},
      {n(S::kAttaching), "GPRS_Attach_Reject", n(S::kDetached)},
      {n(S::kActivating), "Activate_PDP_Context_Accept", n(S::kOnline)},
      {n(S::kActivating), "Activate_PDP_Context_Reject", n(S::kDetached)},
      // The data MS treats a late attach reject as an unconditional
      // detach order, whatever state it reached meanwhile.
      {n(S::kActivating), "GPRS_Attach_Reject", n(S::kDetached)},
      {n(S::kOnline), "GPRS_Attach_Reject", n(S::kDetached)},
      {n(S::kOnline), "GPRS_Detach_Request", n(S::kDetached)},
  };
  t.stable = {n(S::kDetached), n(S::kOnline)};
  // No timers: the plain data MS is best-effort background load (see the
  // verify:allow-timer exemptions in verify_model.cpp).
  return t;
}

FsmTable handoff_anchor_table() {
  FsmTable t;
  t.name = "handoff-anchor";
  t.initial = "idle";
  t.states = {"idle", "preparing", "commanded", "handed-off"};
  t.terminal = {"handed-off"};
  t.transitions = {
      // Fig. 9: the serving BSC reports a cell this MSC does not control.
      {"idle", "A_Handover_Required", "preparing", {"MAP_Prepare_Handover"}},
      {"preparing", "MAP_Prepare_Handover_ack", "commanded",
       {"A_Handover_Command"}},
      {"preparing", "MAP_Prepare_Handover_ack(failure)", "idle"},
      {"commanded", "MAP_Send_End_Signal", "handed-off",
       {"A_Clear_Command"}},
      // Supervision: the anchor bounds the whole preparation; on expiry
      // the call simply stays on the serving cell, and the target is told
      // to release what it reserved.
      {"preparing", "handoff_guard", "idle", {"MAP_U_Abort"}},
      {"commanded", "handoff_guard", "idle", {"MAP_U_Abort"}},
  };
  t.stable = {"idle", "handed-off"};
  t.timers = {
      {"preparing", "handoff_guard", ""},
      {"commanded", "handoff_guard", ""},
  };
  return t;
}

FsmTable handoff_target_table() {
  FsmTable t;
  t.name = "handoff-target";
  t.initial = "idle";
  t.states = {"idle", "reserving", "awaiting-access", "serving"};
  t.terminal = {"serving"};
  t.transitions = {
      {"idle", "MAP_Prepare_Handover", "reserving", {"A_Handover_Request"}},
      {"reserving", "A_Handover_Request_Ack", "awaiting-access",
       {"MAP_Prepare_Handover_ack"}},
      {"awaiting-access", "A_Handover_Complete", "serving",
       {"MAP_Send_End_Signal"}},
      // The anchor's guard gave up: release the reserved channel.
      {"reserving", "MAP_U_Abort", "idle", {"A_Clear_Command"}},
      {"awaiting-access", "MAP_U_Abort", "idle", {"A_Clear_Command"}},
  };
  t.stable = {"idle", "serving"};
  // No timers: the target's reservation is supervised end-to-end by the
  // anchor's handoff guard, whose expiry sends the abort (see the
  // verify:allow-* exemptions).
  return t;
}

FsmTable tr_ms_table() {
  using S = TrMobileStation::State;
  auto n = [](S s) { return tr_state_name(s); };
  FsmTable t;
  t.name = "tr-ms";
  t.initial = n(S::kDetached);
  t.states = {n(S::kDetached),          n(S::kAttaching),
              n(S::kActivatingInitial), n(S::kRasRegistering),
              n(S::kDeactivatingIdle),  n(S::kIdle),
              n(S::kActivatingForCall), n(S::kActivatingForPage),
              n(S::kArqSent),           n(S::kCalling),
              n(S::kRingback),          n(S::kIncomingArq),
              n(S::kRinging),           n(S::kConnected),
              n(S::kAwaitDcf),          n(S::kDeactivatingAfterCall)};
  // Models the TR 23.821 resource policy the paper compares against
  // (deactivate_pdp_when_idle = true): the context is torn down after
  // registration and after every call, and rebuilt per call.
  t.transitions = {
      // Registration: attach, initial PDP context, RAS, teardown.
      {n(S::kDetached), "power_on", n(S::kAttaching),
       {"GPRS_Attach_Request"}},
      {n(S::kAttaching), "GPRS_Attach_Accept", n(S::kActivatingInitial),
       {"Activate_PDP_Context_Request"}},
      {n(S::kAttaching), "GPRS_Attach_Reject", n(S::kDetached)},
      {n(S::kAttaching), "attach_give_up", n(S::kDetached)},
      {n(S::kActivatingInitial), "Activate_PDP_Context_Accept",
       n(S::kRasRegistering), {"Gb_UnitData"}},
      {n(S::kActivatingInitial), "Activate_PDP_Context_Reject", n(S::kIdle)},
      {n(S::kActivatingInitial), "pdp_give_up", n(S::kIdle)},
      {n(S::kRasRegistering), "RAS_RCF", n(S::kDeactivatingIdle),
       {"Deactivate_PDP_Context_Request"}},
      {n(S::kRasRegistering), "rrq_give_up", n(S::kDeactivatingIdle),
       {"Deactivate_PDP_Context_Request"}},
      {n(S::kDeactivatingIdle), "Deactivate_PDP_Context_Accept", n(S::kIdle)},
      {n(S::kDeactivatingIdle), "deactivate_give_up", n(S::kIdle)},
      // Origination: rebuild the context, then admission and setup.
      {n(S::kIdle), "dial", n(S::kActivatingForCall),
       {"Activate_PDP_Context_Request"}},
      {n(S::kActivatingForCall), "Activate_PDP_Context_Accept",
       n(S::kArqSent), {"Gb_UnitData"}},
      {n(S::kActivatingForCall), "Activate_PDP_Context_Reject", n(S::kIdle)},
      {n(S::kActivatingForCall), "pdp_give_up", n(S::kIdle)},
      {n(S::kArqSent), "RAS_ACF", n(S::kCalling), {"Gb_UnitData"}},
      {n(S::kArqSent), "RAS_ARJ", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kArqSent), "arq_give_up", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kCalling), "Q931_Alerting", n(S::kRingback)},
      {n(S::kCalling), "Q931_Connect", n(S::kConnected)},
      {n(S::kCalling), "Q931_Release_Complete", n(S::kAwaitDcf),
       {"Gb_UnitData"}},
      {n(S::kCalling), "setup_give_up", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kCalling), "hangup", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kRingback), "Q931_Connect", n(S::kConnected)},
      {n(S::kRingback), "Q931_Release_Complete", n(S::kAwaitDcf),
       {"Gb_UnitData"}},
      {n(S::kRingback), "ringback_timeout", n(S::kAwaitDcf),
       {"Gb_UnitData"}},
      {n(S::kRingback), "hangup", n(S::kAwaitDcf), {"Gb_UnitData"}},
      // Termination: network-initiated activation, admission, ringing.
      {n(S::kIdle), "Request_PDP_Context_Activation",
       n(S::kActivatingForPage), {"Activate_PDP_Context_Request"}},
      {n(S::kActivatingForPage), "Activate_PDP_Context_Accept", n(S::kIdle),
       {}},
      {n(S::kActivatingForPage), "Activate_PDP_Context_Reject", n(S::kIdle)},
      {n(S::kActivatingForPage), "pdp_give_up", n(S::kIdle)},
      // A caller's Setup that overtakes the page-triggered activation is
      // held (pending_setup_) and replayed once the context is up.
      {n(S::kActivatingForPage), "Q931_Setup(held)",
       n(S::kActivatingForPage)},
      {n(S::kIdle), "Q931_Setup(held)", n(S::kIdle)},
      {n(S::kIdle), "Q931_Setup", n(S::kIncomingArq), {"Gb_UnitData"}},
      {n(S::kIncomingArq), "RAS_ACF", n(S::kRinging), {"Gb_UnitData"}},
      {n(S::kIncomingArq), "RAS_ARJ", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kIncomingArq), "arq_give_up", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kIncomingArq), "Q931_Release_Complete", n(S::kAwaitDcf),
       {"Gb_UnitData"}},
      {n(S::kRinging), "answer_timer", n(S::kConnected), {"Gb_UnitData"}},
      {n(S::kRinging), "Q931_Release_Complete", n(S::kAwaitDcf),
       {"Gb_UnitData"}},
      {n(S::kRinging), "hangup", n(S::kAwaitDcf), {"Gb_UnitData"}},
      // Conversation and teardown: DRQ, DCF, context deactivation.
      {n(S::kConnected), "hangup", n(S::kAwaitDcf), {"Gb_UnitData"}},
      {n(S::kConnected), "Q931_Release_Complete", n(S::kAwaitDcf),
       {"Gb_UnitData"}},
      {n(S::kAwaitDcf), "RAS_DCF", n(S::kDeactivatingAfterCall),
       {"Deactivate_PDP_Context_Request"}},
      {n(S::kAwaitDcf), "drq_give_up", n(S::kDeactivatingAfterCall),
       {"Deactivate_PDP_Context_Request"}},
      {n(S::kDeactivatingAfterCall), "Deactivate_PDP_Context_Accept",
       n(S::kIdle)},
      {n(S::kDeactivatingAfterCall), "deactivate_give_up", n(S::kIdle)},
  };
  t.stable = {n(S::kDetached), n(S::kIdle), n(S::kConnected)};
  t.timers = {
      {n(S::kAttaching), "attach_give_up", "GPRS_Attach_Request"},
      {n(S::kActivatingInitial), "pdp_give_up",
       "Activate_PDP_Context_Request"},
      {n(S::kRasRegistering), "rrq_give_up", ""},
      {n(S::kDeactivatingIdle), "deactivate_give_up",
       "Deactivate_PDP_Context_Request"},
      {n(S::kActivatingForCall), "pdp_give_up",
       "Activate_PDP_Context_Request"},
      {n(S::kActivatingForPage), "pdp_give_up",
       "Activate_PDP_Context_Request"},
      {n(S::kArqSent), "arq_give_up", ""},
      {n(S::kCalling), "setup_give_up", ""},
      {n(S::kRingback), "ringback_timeout", ""},
      {n(S::kIncomingArq), "arq_give_up", ""},
      {n(S::kRinging), "answer_timer", ""},
      {n(S::kAwaitDcf), "drq_give_up", ""},
      {n(S::kDeactivatingAfterCall), "deactivate_give_up",
       "Deactivate_PDP_Context_Request"},
  };
  return t;
}

}  // namespace

const std::vector<FsmTable>& conformance_fsm_tables() {
  static const std::vector<FsmTable> tables{
      msc_call_table(),       vmsc_endpoint_table(),  pdp_context_table(),
      handoff_anchor_table(), handoff_target_table(), tr_ms_table()};
  return tables;
}

}  // namespace vgprs
