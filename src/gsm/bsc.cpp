#include "gsm/bsc.hpp"

#include "common/log.hpp"
#include "gsm/bts.hpp"

namespace vgprs {

void Bsc::adopt_bts(const Bts& bts) { adopt_bts(bts.id(), bts.cell()); }

void Bsc::adopt_bts(NodeId bts, CellId cell) { bts_by_cell_[cell] = bts; }

void Bsc::initiate_handover(Imsi imsi, CallRef call_ref, CellId target_cell) {
  auto req = pool_message<AHandoverRequired>();
  req->imsi = imsi;
  req->call_ref = call_ref;
  req->target_cell = target_cell;
  send(msc(), std::move(req));
}

NodeId Bsc::bts_for(const Imsi& imsi) const {
  auto it = ms_.find(imsi);
  return it == ms_.end() ? NodeId{} : it->second.bts;
}

void Bsc::release_channels(const Imsi& imsi) {
  auto it = ms_.find(imsi);
  if (it == ms_.end()) return;
  MsRadio& radio = it->second;
  if (radio.sdcch) --sdcch_in_use_;
  if (radio.tch) --tch_in_use_;
  radio.sdcch = false;
  radio.tch = false;
}

void Bsc::on_message(const Envelope& env) {
  // --- radio resource management, handled locally --------------------------
  if (const auto* cr = msg_cast<AbisChannelRequest>(env.msg.get())) {
    MsRadio& radio = ms_[cr->imsi];
    radio.bts = env.from;
    if (!take(radio.sdcch, sdcch_in_use_, config_.sdcch_channels)) {
      VG_WARN("bsc", name() << ": SDCCH congestion, request from "
                            << cr->imsi.to_string() << " dropped");
      return;  // the MS's request timer will expire
    }
    auto out = pool_message<AbisImmediateAssignment>();
    out->imsi = cr->imsi;
    out->channel = next_channel_++;
    send(env.from, std::move(out));
    return;
  }
  if (const auto* ar = msg_cast<AAssignmentRequest>(env.msg.get())) {
    MsRadio& radio = ms_[ar->imsi];
    if (!take(radio.tch, tch_in_use_, config_.tch_channels)) {
      VG_WARN("bsc", name() << ": TCH congestion for " << ar->imsi.to_string());
      return;
    }
    const NodeId bts = radio.bts;
    if (!bts.valid()) return;
    auto out = pool_message<AbisAssignmentCommand>();
    out->imsi = ar->imsi;
    out->call_ref = ar->call_ref;
    out->channel = next_channel_++;
    send(bts, std::move(out));
    return;
  }
  if (const auto* clear = msg_cast<AClearCommand>(env.msg.get())) {
    release_channels(clear->imsi);
    auto out = pool_message<AClearComplete>();
    out->imsi = clear->imsi;
    out->call_ref = clear->call_ref;
    send(msc(), std::move(out));
    return;
  }
  if (const auto* pg = msg_cast<APaging>(env.msg.get())) {
    // Page every cell of the location area (all BTSs of this BSC).
    for (const auto& [cell, bts] : bts_by_cell_) {
      (void)cell;
      auto out = pool_message<AbisPaging>();
      static_cast<PagingInfo&>(*out) = static_cast<const PagingInfo&>(*pg);
      send(bts, std::move(out));
    }
    return;
  }
  if (const auto* hreq = msg_cast<AHandoverRequest>(env.msg.get())) {
    // Target-BSC side of inter-system handoff: reserve a channel in the
    // requested cell and acknowledge to the requesting MSC.
    auto ack = pool_message<AHandoverRequestAck>();
    ack->imsi = hreq->imsi;
    ack->call_ref = hreq->call_ref;
    ack->target_cell = hreq->target_cell;
    if (!bts_by_cell_.contains(hreq->target_cell) ||
        !take(ms_[hreq->imsi].tch, tch_in_use_, config_.tch_channels)) {
      ack->channel = 0;  // failure indication
    } else {
      ack->channel = next_channel_++;
    }
    send(env.from, std::move(ack));
    return;
  }
  if (const auto* hacc = msg_cast<AbisHandoverAccess>(env.msg.get())) {
    // The MS arrived on our radio resources: adopt it and tell the MSC.
    note_ms(hacc->imsi, env.from);
    auto out = pool_message<AHandoverDetect>();
    out->imsi = hacc->imsi;
    out->call_ref = hacc->call_ref;
    send(msc(), std::move(out));
    return;
  }

  // --- uplink: Abis -> A ----------------------------------------------------
  if (relay_up<AbisLocationUpdate, ALocationUpdate>(env)) return;
  if (relay_up<AbisAuthResponse, AAuthResponse>(env)) return;
  if (relay_up<AbisCipherModeComplete, ACipherModeComplete>(env)) return;
  if (relay_up<AbisCmServiceRequest, ACmServiceRequest>(env)) return;
  if (relay_up<AbisSetup, ASetup>(env)) return;
  if (relay_up<AbisCallProceeding, ACallProceeding>(env)) return;
  if (relay_up<AbisAlerting, AAlerting>(env)) return;
  if (relay_up<AbisConnect, AConnect>(env)) return;
  if (relay_up<AbisConnectAck, AConnectAck>(env)) return;
  if (relay_up<AbisDisconnect, ADisconnect>(env)) return;
  if (relay_up<AbisRelease, ARelease>(env)) return;
  if (relay_up<AbisReleaseComplete, AReleaseComplete>(env)) return;
  if (relay_up<AbisPagingResponse, APagingResponse>(env)) return;
  if (relay_up<AbisAssignmentComplete, AAssignmentComplete>(env)) return;
  if (relay_up<AbisHandoverComplete, AHandoverComplete>(env)) return;
  if (relay_up<AbisVoiceFrame, AVoiceFrame>(env)) return;
  if (relay_up<AbisImsiDetach, AImsiDetach>(env)) return;

  // --- downlink: A -> Abis ----------------------------------------------------
  if (relay_down<ALocationUpdateAccept, AbisLocationUpdateAccept>(env)) return;
  if (relay_down<AAuthRequest, AbisAuthRequest>(env)) return;
  if (relay_down<ACipherModeCommand, AbisCipherModeCommand>(env)) return;
  if (relay_down<ACmServiceAccept, AbisCmServiceAccept>(env)) return;
  if (relay_down<ASetup, AbisSetup>(env)) return;
  if (relay_down<ACallProceeding, AbisCallProceeding>(env)) return;
  if (relay_down<AAlerting, AbisAlerting>(env)) return;
  if (relay_down<AConnect, AbisConnect>(env)) return;
  if (relay_down<AConnectAck, AbisConnectAck>(env)) return;
  if (relay_down<ADisconnect, AbisDisconnect>(env)) return;
  if (relay_down<ARelease, AbisRelease>(env)) return;
  if (relay_down<AReleaseComplete, AbisReleaseComplete>(env)) return;
  if (relay_down<AHandoverCommand, AbisHandoverCommand>(env)) return;
  if (relay_down<AVoiceFrame, AbisVoiceFrame>(env)) return;
  if (relay_reject<ALocationUpdateReject, AbisLocationUpdateReject>(env)) {
    return;
  }
  if (relay_reject<ACmServiceReject, AbisCmServiceReject>(env)) return;

  VG_WARN("bsc", name() << ": unhandled " << env.msg->name());
}

}  // namespace vgprs
