#include "gsm/bts.hpp"

#include "common/log.hpp"

namespace vgprs {

NodeId Bts::ms_node(const Imsi& imsi) const {
  auto it = ms_by_imsi_.find(imsi);
  return it == ms_by_imsi_.end() ? NodeId{} : it->second;
}

void Bts::on_message(const Envelope& env) {
  // Stamp the serving cell into uplink location/paging payloads before the
  // generic relay (the MS does not know the cell identity; the BTS does).
  if (const auto* lu = msg_cast<UmLocationUpdateRequest>(env.msg.get())) {
    note_ms(lu->imsi, env.from);
    auto out = pool_message<AbisLocationUpdate>();
    static_cast<LocationUpdateInfo&>(*out) =
        static_cast<const LocationUpdateInfo&>(*lu);
    out->cell = cell_;
    out->lai = lai_;
    send(bsc(), std::move(out));
    return;
  }
  if (const auto* pr = msg_cast<UmPagingResponse>(env.msg.get())) {
    note_ms(pr->imsi, env.from);
    auto out = pool_message<AbisPagingResponse>();
    static_cast<PagingResponseInfo&>(*out) =
        static_cast<const PagingResponseInfo&>(*pr);
    out->cell = cell_;
    send(bsc(), std::move(out));
    return;
  }
  if (const auto* ha = msg_cast<UmHandoverAccess>(env.msg.get())) {
    // Handover access arrives at the *target* BTS: adopt the MS.
    note_ms(ha->imsi, env.from);
    relay<UmHandoverAccess, AbisHandoverAccess>(env, bsc());
    return;
  }

  // Uplink: Um -> Abis.
  if (relay_up<UmChannelRequest, AbisChannelRequest>(env)) return;
  if (relay_up<UmAuthResponse, AbisAuthResponse>(env)) return;
  if (relay_up<UmCipherModeComplete, AbisCipherModeComplete>(env)) return;
  if (relay_up<UmCmServiceRequest, AbisCmServiceRequest>(env)) return;
  if (relay_up<UmSetup, AbisSetup>(env)) return;
  if (relay_up<UmCallProceeding, AbisCallProceeding>(env)) return;
  if (relay_up<UmAlerting, AbisAlerting>(env)) return;
  if (relay_up<UmConnect, AbisConnect>(env)) return;
  if (relay_up<UmConnectAck, AbisConnectAck>(env)) return;
  if (relay_up<UmDisconnect, AbisDisconnect>(env)) return;
  if (relay_up<UmRelease, AbisRelease>(env)) return;
  if (relay_up<UmReleaseComplete, AbisReleaseComplete>(env)) return;
  if (relay_up<UmAssignmentComplete, AbisAssignmentComplete>(env)) return;
  if (relay_up<UmHandoverComplete, AbisHandoverComplete>(env)) return;
  if (relay_up<UmVoiceFrame, AbisVoiceFrame>(env)) return;
  if (relay_up<UmImsiDetach, AbisImsiDetach>(env)) return;

  // Downlink: Abis -> Um.
  if (relay_down<AbisPaging, UmPagingRequest>(env)) return;
  if (relay_down<AbisImmediateAssignment, UmImmediateAssignment>(env)) return;
  if (relay_down<AbisLocationUpdateAccept, UmLocationUpdateAccept>(env))
    return;
  if (relay_down<AbisAuthRequest, UmAuthRequest>(env)) return;
  if (relay_down<AbisCipherModeCommand, UmCipherModeCommand>(env)) return;
  if (relay_down<AbisCmServiceAccept, UmCmServiceAccept>(env)) return;
  if (relay_down<AbisSetup, UmSetup>(env)) return;
  if (relay_down<AbisCallProceeding, UmCallProceeding>(env)) return;
  if (relay_down<AbisAlerting, UmAlerting>(env)) return;
  if (relay_down<AbisConnect, UmConnect>(env)) return;
  if (relay_down<AbisConnectAck, UmConnectAck>(env)) return;
  if (relay_down<AbisDisconnect, UmDisconnect>(env)) return;
  if (relay_down<AbisRelease, UmRelease>(env)) return;
  if (relay_down<AbisReleaseComplete, UmReleaseComplete>(env)) return;
  if (relay_down<AbisAssignmentCommand, UmAssignmentCommand>(env)) return;
  if (relay_down<AbisHandoverCommand, UmHandoverCommand>(env)) return;
  if (relay_down<AbisVoiceFrame, UmVoiceFrame>(env)) return;
  if (relay_down<AbisLocationUpdateReject, UmLocationUpdateReject>(env))
    return;
  if (relay_down<AbisCmServiceReject, UmCmServiceReject>(env)) return;

  VG_WARN("bts", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
