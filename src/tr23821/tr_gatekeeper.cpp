#include "tr23821/tr_gatekeeper.hpp"

#include "common/log.hpp"
#include "gprs/messages.hpp"

namespace vgprs {

void TrGatekeeper::admit(const RasAdmissionRequestInfo& arq,
                         IpAddress requester, const Registration& reg) {
  if (arq.answer_call) {
    confirm_admission(arq, requester, reg.transport);
    return;
  }
  // Any terminating alias might be a GPRS MS whose PDP context was
  // deactivated while idle; interrogate the HLR for its IMSI first
  // (the TR gatekeeper cannot tell from the alias alone).
  const NodeId hlr = peer(tr_.hlr_name);
  pending_by_alias_[arq.called] =
      PendingAdmission{arq, requester, reg.transport, Imsi{}};
  ++hlr_queries_;
  auto sri = pool_message<MapSendRoutingInformation>();
  sri->msisdn = arq.called;
  sri->gmsc_name = name();
  send(hlr, std::move(sri));
}

void TrGatekeeper::on_other(const Envelope& env) {
  const auto* ack = msg_cast<MapSendRoutingInformationAck>(env.msg.get());
  if (ack == nullptr) {
    Gatekeeper::on_other(env);
    return;
  }
  auto it = pending_by_alias_.find(ack->msisdn);
  if (it == pending_by_alias_.end()) return;
  PendingAdmission& pending = it->second;
  if (!ack->found || !ack->imsi.valid()) {
    // Not a mobile subscriber: a plain H.323 endpoint — admit directly.
    confirm_admission(pending.arq, pending.requester, pending.dest);
    pending_by_alias_.erase(it);
    return;
  }
  // The IMSI is now known outside the GPRS operator's domain.
  ++imsis_learned_;
  pending.imsi = ack->imsi;
  alias_by_imsi_[ack->imsi] = ack->msisdn;
  ++ggsn_activations_;
  auto act = pool_message<GgsnActivationRequest>();
  act->imsi = ack->imsi;
  send_ip(tr_.ggsn_control_ip, std::move(act));
}

void TrGatekeeper::on_ip(const IpDatagramInfo& dgram, const Message& inner) {
  if (const auto* rsp = msg_cast<GgsnActivationResponse>(&inner)) {
    auto alias_it = alias_by_imsi_.find(rsp->imsi);
    if (alias_it == alias_by_imsi_.end()) return;
    auto it = pending_by_alias_.find(alias_it->second);
    alias_by_imsi_.erase(alias_it);
    if (it == pending_by_alias_.end()) return;
    PendingAdmission pending = it->second;
    pending_by_alias_.erase(it);
    if (!rsp->success) {
      reject_admission(pending.arq, pending.requester,
                       ArjCause::kResourceUnavailable);
      return;
    }
    confirm_admission(pending.arq, pending.requester, pending.dest);
    return;
  }
  Gatekeeper::on_ip(dgram, inner);
}

}  // namespace vgprs
