#include "gsm/vlr.hpp"

#include "common/log.hpp"

namespace vgprs {

const Vlr::VisitorRecord* Vlr::visitor(Imsi imsi) const {
  return records_.find(imsi);
}

void Vlr::reply_auth_info(NodeId to, Imsi imsi) {
  auto& rec = records_[imsi];
  auto ack = pool_message<MapSendAuthInfoAck>();
  ack->imsi = imsi;
  if (!rec.triplets.empty()) {
    ack->triplets.push_back(rec.triplets.front());
    rec.triplets.pop_front();
  }
  send(to, std::move(ack));
}

void Vlr::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  // (V)MSC asks for an authentication vector.
  if (const auto* req = msg_cast<MapSendAuthInfo>(&msg)) {
    auto& rec = records_[req->imsi];
    if (!rec.triplets.empty()) {
      reply_auth_info(env.from, req->imsi);
    } else {
      pending_auth_[req->imsi] = env.from;
      auto fwd = pool_message<MapSendAuthInfo>();
      fwd->imsi = req->imsi;
      send(hlr(), std::move(fwd));
    }
    return;
  }

  // HLR returns authentication vectors.
  if (const auto* ack = msg_cast<MapSendAuthInfoAck>(&msg)) {
    auto& rec = records_[ack->imsi];
    for (const auto& t : ack->triplets) rec.triplets.push_back(t);
    if (const NodeId* req = pending_auth_.find(ack->imsi); req != nullptr) {
      NodeId requester = *req;
      pending_auth_.erase(ack->imsi);
      reply_auth_info(requester, ack->imsi);
    }
    return;
  }

  // (V)MSC registers the subscriber in this VLR's area.
  if (const auto* ula = msg_cast<MapUpdateLocationArea>(&msg)) {
    auto& rec = records_[ula->imsi];
    rec.lai = ula->lai;
    rec.msc_name = ula->msc_name;
    pending_ula_[ula->imsi] = env.from;
    auto ul = pool_message<MapUpdateLocation>();
    ul->imsi = ula->imsi;
    ul->vlr_name = name();
    ul->msc_name = ula->msc_name;
    send(hlr(), std::move(ul));
    return;
  }

  // HLR pushes the subscription profile during location updating.
  if (const auto* isd = msg_cast<MapInsertSubsData>(&msg)) {
    auto& rec = records_[isd->imsi];
    rec.profile = isd->profile;
    rec.profile_valid = true;
    auto ack = pool_message<MapInsertSubsDataAck>();
    ack->imsi = isd->imsi;
    send(env.from, std::move(ack));
    return;
  }

  if (const auto* ul_ack = msg_cast<MapUpdateLocationAck>(&msg)) {
    const NodeId* pending = pending_ula_.find(ul_ack->imsi);
    if (pending == nullptr) return;
    NodeId requester = *pending;
    pending_ula_.erase(ul_ack->imsi);
    auto& rec = records_[ul_ack->imsi];
    auto ack = pool_message<MapUpdateLocationAreaAck>();
    ack->imsi = ul_ack->imsi;
    ack->success = ul_ack->success;
    ack->cause = ul_ack->cause;
    if (ul_ack->success) {
      rec.registered = true;
      rec.tmsi = Tmsi(next_tmsi_++);
      ack->new_tmsi = rec.tmsi;
      if (rec.profile_valid) ack->msisdn = rec.profile.msisdn;
    }
    send(requester, std::move(ack));
    return;
  }

  // Outgoing-call authorization (paper step 2.2).
  if (const auto* ocall = msg_cast<MapSendInfoForOutgoingCall>(&msg)) {
    auto ack = pool_message<MapSendInfoForOutgoingCallAck>();
    ack->imsi = ocall->imsi;
    const VisitorRecord* rec = records_.find(ocall->imsi);
    if (rec == nullptr || !rec->registered || !rec->profile_valid) {
      ack->success = false;
      ack->cause = 1;  // unidentified subscriber
    } else if (config_.country_code != 0 &&
               ocall->called.country_code() != config_.country_code &&
               !rec->profile.international_calls_allowed) {
      ack->success = false;
      ack->cause = 2;  // international calls barred
    } else {
      ack->success = true;
    }
    send(env.from, std::move(ack));
    return;
  }

  // HLR requests a roaming number for call delivery.
  if (const auto* prn = msg_cast<MapProvideRoamingNumber>(&msg)) {
    // MSRNs: <prefix> followed by a 5-digit rolling counter.
    Msrn msrn(config_.msrn_prefix * 100'000 + next_msrn_++);
    msrn_map_[msrn] = prn->imsi;
    auto ack = pool_message<MapProvideRoamingNumberAck>();
    ack->imsi = prn->imsi;
    ack->msrn = msrn;
    send(env.from, std::move(ack));
    return;
  }

  // Serving MSC resolves an MSRN from an incoming IAM.
  if (const auto* icall = msg_cast<MapSendInfoForIncomingCall>(&msg)) {
    auto ack = pool_message<MapSendInfoForIncomingCallAck>();
    ack->msrn = icall->msrn;
    if (const Imsi* imsi = msrn_map_.find(icall->msrn); imsi != nullptr) {
      ack->imsi = *imsi;
      ack->found = true;
      const VisitorRecord* rec = records_.find(*imsi);
      if (rec != nullptr && rec->profile_valid) {
        ack->msisdn = rec->profile.msisdn;
      }
      msrn_map_.erase(icall->msrn);  // MSRNs are single-use
    }
    send(env.from, std::move(ack));
    return;
  }

  if (const auto* cancel = msg_cast<MapCancelLocation>(&msg)) {
    // Propagate the cancellation to the serving (V)MSC so it can purge its
    // MS table (and, for a VMSC, detach from GPRS and unregister at the
    // gatekeeper).
    const VisitorRecord* rec = records_.find(cancel->imsi);
    if (rec != nullptr && !rec->msc_name.empty()) {
      if (Node* msc = net().node_by_name(rec->msc_name)) {
        auto fwd = pool_message<MapCancelLocation>();
        fwd->imsi = cancel->imsi;
        send(msc->id(), std::move(fwd));
      }
    }
    records_.erase(cancel->imsi);
    auto ack = pool_message<MapCancelLocationAck>();
    ack->imsi = cancel->imsi;
    send(env.from, std::move(ack));
    return;
  }

  VG_WARN("vlr", name() << ": unhandled " << msg.name());
}

}  // namespace vgprs
