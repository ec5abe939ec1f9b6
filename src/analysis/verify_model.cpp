#include "analysis/verify_model.hpp"

namespace vgprs::analysis {
namespace {

// Qualifier allowlists.  A registration run may branch through the
// authentication/ciphering configuration variants but never the call
// variants; an MO run may take the (mo)/(call) edges but never (register);
// and so on.  This is how one msc-call table serves three procedures
// without cross-contaminating their state spaces.
const std::vector<std::string> kRegisterQualifiers{
    "register", "no-auth", "no-vectors", "mismatch", "no-cipher", "failure"};
const std::vector<std::string> kMoQualifiers{
    "mo", "call", "no-auth", "no-vectors", "mismatch", "no-cipher",
    "failure"};
const std::vector<std::string> kMtQualifiers{
    "mt", "call", "no-auth", "no-vectors", "mismatch", "no-cipher",
    "failure"};

VerifyModel build_model() {
  VerifyModel model;

  // --- procedures -----------------------------------------------------------

  model.procedures.push_back(
      {"registration",
       {{"msc-call", kRegisterQualifiers,
         {"finish_registration", "reject_registration", "procedure_guard"}},
        {"vmsc-endpoint", {},
         {"registration_substrate", "attach_give_up", "pdp_give_up",
          "rrq_give_up", "subscriber_removed"}}},
       {"A_Location_Update", "MAP_Send_Auth_Info_ack", "A_Auth_Response",
        "A_Cipher_Mode_Complete", "MAP_Update_Location_Area_ack",
        "GPRS_Attach_Accept", "GPRS_Attach_Reject",
        "Activate_PDP_Context_Accept", "Activate_PDP_Context_Reject",
        "RAS_RCF", "RAS_RRJ"},
       3});

  model.procedures.push_back(
      {"origination",
       {{"msc-call", kMoQualifiers,
         {"procedure_guard", "notify_mo_alerting", "notify_mo_connect",
          "reject_mo_call", "release_from_network"}}},
       {"A_CM_Service_Request", "MAP_Send_Auth_Info_ack", "A_Auth_Response",
        "A_Cipher_Mode_Complete", "A_Setup",
        "MAP_Send_Info_For_Outgoing_Call_ack", "A_Disconnect",
        "A_Release_Complete", "A_Release", "A_Clear_Complete"},
       3});

  model.procedures.push_back(
      {"termination",
       {{"msc-call", kMtQualifiers,
         {"start_mt_call", "procedure_guard", "release_from_network"}}},
       {"A_Paging_Response", "MAP_Send_Auth_Info_ack", "A_Auth_Response",
        "A_Cipher_Mode_Complete", "A_Alerting", "A_Connect", "A_Disconnect",
        "A_Release_Complete", "A_Release", "A_Clear_Complete"},
       3});

  model.procedures.push_back(
      {"handoff",
       {{"handoff-anchor", {"failure"}, {"handoff_guard"}},
        {"handoff-target", {}, {}}},
       {"A_Handover_Required", "MAP_Prepare_Handover",
        "MAP_Prepare_Handover_ack", "A_Handover_Request_Ack",
        "A_Handover_Complete", "MAP_Send_End_Signal", "MAP_U_Abort"},
       3});

  model.procedures.push_back(
      {"tr23821",
       {{"tr-ms", {"held"},
         {"power_on", "dial", "hangup", "answer_timer", "attach_give_up",
          "pdp_give_up", "rrq_give_up", "deactivate_give_up", "arq_give_up",
          "setup_give_up", "drq_give_up", "ringback_timeout"}}},
       {"GPRS_Attach_Accept", "GPRS_Attach_Reject",
        "Activate_PDP_Context_Accept", "Activate_PDP_Context_Reject",
        "RAS_RCF", "Deactivate_PDP_Context_Accept",
        "Request_PDP_Context_Activation", "Q931_Setup", "RAS_ACF", "RAS_ARJ",
        "Q931_Alerting", "Q931_Connect", "Q931_Release_Complete", "RAS_DCF",
        "Deactivate_PDP_Context_Accept"},
       3});

  model.procedures.push_back(
      {"gprs-data",
       {{"pdp-context", {}, {"power_on"}}},
       {"GPRS_Attach_Accept", "GPRS_Attach_Reject",
        "Activate_PDP_Context_Accept", "Activate_PDP_Context_Reject",
        "GPRS_Detach_Request"},
       3});

  // --- node bindings (flow-cover) -------------------------------------------

  model.node_bindings = {
      {"VMSC", {"msc-call", "vmsc-endpoint", "handoff-anchor"}},
      {"VMSC-HK", {"msc-call", "vmsc-endpoint"}},
      {"MSC-B", {"handoff-target"}},
      {"VMSC-B", {"handoff-target"}},
      {"TR-MS1", {"tr-ms"}},
  };

  // --- exemptions -----------------------------------------------------------
  // Every row documents a (state, message) pair the code deliberately
  // drops; the checker proves these are the ONLY reachable unhandled pairs
  // and flags any row that stops matching (so the list cannot rot).

  model.exemptions = {
      // msc-call: handle_a_message / handle_map_message drop answers whose
      // procedure step has moved on (late, duplicate, or post-abort
      // deliveries under reorder).
      {"unhandled", "msc-call", "*", "MAP_Send_Auth_Info_ack",
       "dropped unless step == kAuthInfo; a late or post-abort answer from "
       "the VLR is logged and ignored"},
      {"unhandled", "msc-call", "*", "A_Auth_Response",
       "dropped unless step == kAuthChallenge (late answer after the "
       "procedure guard reset the context)"},
      {"unhandled", "msc-call", "*", "A_Cipher_Mode_Complete",
       "dropped unless step == kCipher; the no-cipher configuration never "
       "arms ciphering at all"},
      {"unhandled", "msc-call", "*", "MAP_Update_Location_Area_ack",
       "dropped unless step == kUla"},
      {"unhandled", "msc-call", "*", "A_Setup",
       "dropped unless step == kAwaitSetup; the MS-side guard-retry "
       "re-offers the call after an aborted service request"},
      {"unhandled", "msc-call", "*", "MAP_Send_Info_For_Outgoing_Call_ack",
       "dropped unless step == kAuthorize"},
      {"unhandled", "msc-call", "*", "A_Disconnect",
       "a disconnect for an unknown or already-clearing call is answered "
       "with the A_Release / clearing sequence and duplicates are dropped "
       "(unknown-call regression fix, PR 4)"},
      {"unhandled", "msc-call", "*", "A_Release_Complete",
       "dropped unless step == kReleasingMs"},
      {"unhandled", "msc-call", "*", "A_Release",
       "dropped unless step == kReleasingNet"},
      {"unhandled", "msc-call", "*", "A_Clear_Complete",
       "dropped unless step == kClearing; the clearing guard force-clears "
       "locally when the BSC answer is lost"},
      {"unhandled", "msc-call", "*", "A_Paging_Response",
       "dropped unless step == kPaging"},
      {"unhandled", "msc-call", "*", "A_Alerting",
       "dropped unless step == kAwaitAlert"},
      {"unhandled", "msc-call", "*", "A_Connect",
       "dropped unless step == kAwaitAnswer"},

      // vmsc-endpoint: handle_gprs / handle_tunneled gate every answer on
      // the vGPRS phase; anything else is a duplicate or arrived after a
      // give-up reset the phase.
      {"unhandled", "vmsc-endpoint", "*", "GPRS_Attach_Accept",
       "handle_gprs ignores attach answers unless phase == kAttaching"},
      {"unhandled", "vmsc-endpoint", "none", "GPRS_Attach_Reject",
       "no vGPRS state to tear down; dropped"},
      {"unhandled", "vmsc-endpoint", "*", "Activate_PDP_Context_Accept",
       "ignored unless phase == kActivatingSignaling (duplicate or "
       "post-give-up delivery)"},
      {"unhandled", "vmsc-endpoint", "*", "Activate_PDP_Context_Reject",
       "ignored unless phase == kActivatingSignaling; rejection resets the "
       "phase to kNone"},
      {"unhandled", "vmsc-endpoint", "*", "RAS_RCF",
       "tunneled RAS answers are ignored unless phase == kRasRegistering"},
      {"unhandled", "vmsc-endpoint", "*", "RAS_RRJ",
       "tunneled RAS answers are ignored unless phase == kRasRegistering"},

      // handoff overlay: the anchor's pending-handover check and the
      // target's reservation lookup drop stale answers.
      {"unhandled", "handoff-anchor", "*", "MAP_Prepare_Handover_ack",
       "stale ack after the anchor's handoff guard reclaimed the "
       "procedure; with no handover target pending the anchor drops it"},
      {"unhandled", "handoff-anchor", "*", "MAP_Send_End_Signal",
       "dropped unless a handover was commanded; guard expiry already "
       "returned the call to the serving cell"},
      {"unhandled", "handoff-target", "*", "A_Handover_Request_Ack",
       "the target ignores BSC answers with no pending handed-in "
       "reservation"},
      {"unhandled", "handoff-target", "*", "A_Handover_Complete",
       "ignored when no reservation is awaiting access"},
      {"unhandled", "handoff-target", "*", "MAP_U_Abort",
       "an abort with no reservation held (never prepared, already "
       "released) or for an MS already served here is ignored"},

      // tr-ms: every handler is gated on the handset state; late or
      // duplicate answers outside the requesting state are dropped.
      {"unhandled", "tr-ms", "*", "GPRS_Attach_Accept",
       "attach answers are ignored outside kAttaching"},
      {"unhandled", "tr-ms", "*", "GPRS_Attach_Reject",
       "attach answers are ignored outside kAttaching"},
      {"unhandled", "tr-ms", "*", "Activate_PDP_Context_Accept",
       "PDP answers are ignored outside the three activating states"},
      {"unhandled", "tr-ms", "*", "Activate_PDP_Context_Reject",
       "PDP answers are ignored outside the three activating states"},
      {"unhandled", "tr-ms", "*", "Deactivate_PDP_Context_Accept",
       "ignored outside the two deactivating states"},
      {"unhandled", "tr-ms", "*", "RAS_RCF",
       "tunneled RAS answers are dropped when no matching request is "
       "outstanding (the handset's state check)"},
      {"unhandled", "tr-ms", "*", "RAS_ACF",
       "tunneled RAS answers are dropped when no matching request is "
       "outstanding (the handset's state check)"},
      {"unhandled", "tr-ms", "*", "RAS_ARJ",
       "tunneled RAS answers are dropped when no matching request is "
       "outstanding (the handset's state check)"},
      {"unhandled", "tr-ms", "*", "RAS_DCF",
       "tunneled RAS answers are dropped when no matching request is "
       "outstanding (the handset's state check)"},
      {"unhandled", "tr-ms", "*", "Q931_Setup",
       "a setup arriving while a page-triggered activation is in progress "
       "is held (pending_setup_) and replayed; otherwise dropped by the "
       "state guard"},
      {"unhandled", "tr-ms", "*", "Q931_Alerting",
       "ignored unless kCalling"},
      {"unhandled", "tr-ms", "*", "Q931_Connect",
       "ignored unless kCalling or kRingback"},
      {"unhandled", "tr-ms", "*", "Q931_Release_Complete",
       "release_call ignores duplicates once idle, detached, or already "
       "deactivating"},
      {"unhandled", "tr-ms", "*", "Request_PDP_Context_Activation",
       "network activation prompts are ignored unless idle"},

      // pdp-context: the plain data MS state-guards every answer.
      {"unhandled", "pdp-context", "*", "GPRS_Attach_Accept",
       "ignored outside kAttaching"},
      {"unhandled", "pdp-context", "detached", "GPRS_Attach_Reject",
       "no attach outstanding; dropped"},
      {"unhandled", "pdp-context", "*", "Activate_PDP_Context_Accept",
       "ignored outside kActivating"},
      {"unhandled", "pdp-context", "*", "Activate_PDP_Context_Reject",
       "ignored outside kActivating"},
      {"unhandled", "pdp-context", "*", "GPRS_Detach_Request",
       "ignored unless online; there is no context to tear down"},

      // Deliberately unsupervised waits.
      {"deadlock", "pdp-context", "attaching", "*",
       "the plain data MS is best-effort background load with no "
       "supervision by design; a lost attach answer surfaces in experiment "
       "statistics, not protocol correctness"},
      {"deadlock", "pdp-context", "activating", "*",
       "the plain data MS is best-effort background load with no "
       "supervision by design; a lost PDP answer surfaces in experiment "
       "statistics, not protocol correctness"},
      {"deadlock", "handoff-target", "reserving", "*",
       "a stale handed-in reservation is superseded by the next "
       "MAP_Prepare_Handover for the same IMSI; the anchor's handoff guard "
       "bounds the procedure end-to-end"},
      {"deadlock", "handoff-target", "awaiting-access", "*",
       "a stale handed-in reservation is superseded by the next "
       "MAP_Prepare_Handover for the same IMSI; the anchor's handoff guard "
       "bounds the procedure end-to-end"},
      {"timer", "pdp-context", "attaching", "*",
       "best-effort background data MS; no retransmission by design"},
      {"timer", "pdp-context", "activating", "*",
       "best-effort background data MS; no retransmission by design"},
      {"timer", "handoff-target", "reserving", "*",
       "supervised end-to-end by the anchor MSC's handoff guard"},
      {"timer", "handoff-target", "awaiting-access", "*",
       "supervised end-to-end by the anchor MSC's handoff guard"},
  };

  return model;
}

}  // namespace

const VerifyModel& vgprs_verify_model() {
  static const VerifyModel model = build_model();
  return model;
}

}  // namespace vgprs::analysis
