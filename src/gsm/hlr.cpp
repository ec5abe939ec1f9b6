#include "gsm/hlr.hpp"

#include "common/log.hpp"
#include "gsm/auth.hpp"

namespace vgprs {

void Hlr::provision(Imsi imsi, std::uint64_t ki, SubscriberProfile profile) {
  by_msisdn_[profile.msisdn] = imsi;
  records_[imsi] = SubscriberRecord{ki, std::move(profile), "", "", ""};
}

const Hlr::SubscriberRecord* Hlr::record(Imsi imsi) const {
  return records_.find(imsi);
}

std::optional<Imsi> Hlr::imsi_of(Msisdn msisdn) const {
  const Imsi* imsi = by_msisdn_.find(msisdn);
  if (imsi == nullptr) return std::nullopt;
  return *imsi;
}

bool Hlr::interrogation_allowed(NodeId requester) {
  if (!imsi_confidentiality_) return true;
  Node* n = net().node(requester);
  if (n != nullptr && trusted_peers_.contains(n->name())) return true;
  ++refused_interrogations_;
  return false;
}

void Hlr::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* req = msg_cast<MapSendAuthInfo>(&msg)) {
    const SubscriberRecord* rec = records_.find(req->imsi);
    auto ack = pool_message<MapSendAuthInfoAck>();
    ack->imsi = req->imsi;
    if (rec != nullptr) {
      for (int i = 0; i < 3; ++i) {
        ack->triplets.push_back(
            make_triplet(rec->ki, net().rng().next_u64()));
      }
    }
    send(env.from, std::move(ack));
    return;
  }

  if (const auto* ul = msg_cast<MapUpdateLocation>(&msg)) {
    SubscriberRecord* rec = records_.find(ul->imsi);
    if (rec == nullptr) {
      auto nack = pool_message<MapUpdateLocationAck>();
      nack->imsi = ul->imsi;
      nack->success = false;
      nack->cause = 1;  // unknown subscriber
      send(env.from, std::move(nack));
      return;
    }
    // Cancel the registration at the previous VLR, if it moved.
    if (!rec->vlr_name.empty() && rec->vlr_name != ul->vlr_name) {
      if (Node* old_vlr = net().node_by_name(rec->vlr_name)) {
        auto cancel = pool_message<MapCancelLocation>();
        cancel->imsi = ul->imsi;
        send(old_vlr->id(), std::move(cancel));
      }
    }
    rec->vlr_name = ul->vlr_name;
    rec->msc_name = ul->msc_name;
    pending_updates_[ul->imsi] = PendingUpdate{env.from, ul->imsi};
    auto isd = pool_message<MapInsertSubsData>();
    isd->imsi = ul->imsi;
    isd->profile = rec->profile;
    send(env.from, std::move(isd));
    return;
  }

  if (const auto* ack = msg_cast<MapInsertSubsDataAck>(&msg)) {
    const PendingUpdate* pending = pending_updates_.find(ack->imsi);
    if (pending == nullptr) return;
    auto done = pool_message<MapUpdateLocationAck>();
    done->imsi = ack->imsi;
    done->success = true;
    send(pending->requester, std::move(done));
    pending_updates_.erase(ack->imsi);
    return;
  }

  if (msg_cast<MapCancelLocationAck>(&msg) != nullptr) {
    return;  // nothing pending on it
  }

  if (const auto* sri = msg_cast<MapSendRoutingInformation>(&msg)) {
    auto imsi = imsi_of(sri->msisdn);
    const SubscriberRecord* rec =
        imsi.has_value() ? record(*imsi) : nullptr;
    if (!interrogation_allowed(env.from)) rec = nullptr;
    if (rec == nullptr || (rec->vlr_name.empty() && rec->sgsn_name.empty())) {
      auto nack = pool_message<MapSendRoutingInformationAck>();
      nack->msisdn = sri->msisdn;
      nack->found = false;
      send(env.from, std::move(nack));
      return;
    }
    if (rec->vlr_name.empty()) {
      // Packet-only registration (3G TR 23.821 style): no roaming number
      // exists; return the IMSI so the requester can drive GPRS-side
      // delivery.  Note this hands the confidential IMSI to whoever asks —
      // the paper's Section 6 objection to the TR architecture.
      auto ack = pool_message<MapSendRoutingInformationAck>();
      ack->msisdn = sri->msisdn;
      ack->imsi = *imsi;
      ack->found = true;
      send(env.from, std::move(ack));
      return;
    }
    Node* vlr = net().node_by_name(rec->vlr_name);
    if (vlr == nullptr) {
      VG_ERROR("hlr", name() << ": VLR " << rec->vlr_name << " missing");
      return;
    }
    pending_sri_[*imsi] = PendingSri{env.from, sri->msisdn};
    auto prn = pool_message<MapProvideRoamingNumber>();
    prn->imsi = *imsi;
    prn->msisdn = sri->msisdn;
    send(vlr->id(), std::move(prn));
    return;
  }

  if (const auto* prn_ack = msg_cast<MapProvideRoamingNumberAck>(&msg)) {
    const PendingSri* pending = pending_sri_.find(prn_ack->imsi);
    if (pending == nullptr) return;
    const SubscriberRecord* rec = record(prn_ack->imsi);
    auto ack = pool_message<MapSendRoutingInformationAck>();
    ack->msisdn = pending->msisdn;
    ack->imsi = prn_ack->imsi;
    ack->msrn = prn_ack->msrn;
    ack->serving_msc = rec != nullptr ? rec->msc_name : "";
    ack->found = true;
    send(pending->requester, std::move(ack));
    pending_sri_.erase(prn_ack->imsi);
    return;
  }

  if (const auto* req = msg_cast<MapSendRoutingInfoForGprs>(&msg)) {
    auto ack = pool_message<MapSendRoutingInfoForGprsAck>();
    ack->imsi = req->imsi;
    const SubscriberRecord* rec = record(req->imsi);
    if (!interrogation_allowed(env.from)) rec = nullptr;
    if (rec != nullptr && !rec->sgsn_name.empty()) {
      ack->sgsn_name = rec->sgsn_name;
      ack->found = true;
    }
    send(env.from, std::move(ack));
    return;
  }

  if (const auto* gprs = msg_cast<MapUpdateGprsLocation>(&msg)) {
    auto ack = pool_message<MapUpdateGprsLocationAck>();
    ack->imsi = gprs->imsi;
    SubscriberRecord* rec = records_.find(gprs->imsi);
    if (rec == nullptr) {
      ack->success = false;
      ack->cause = 1;
    } else {
      rec->sgsn_name = gprs->sgsn_name;
      ack->success = true;
    }
    send(env.from, std::move(ack));
    return;
  }

  VG_WARN("hlr", name() << ": unhandled " << msg.name());
}

}  // namespace vgprs
