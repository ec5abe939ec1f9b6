#include "h323/gatekeeper.hpp"

#include "common/log.hpp"

namespace vgprs {

std::optional<Gatekeeper::Registration> Gatekeeper::find_alias(
    Msisdn alias) const {
  const Registration* reg = table_.find(alias);
  if (reg == nullptr) return std::nullopt;
  return *reg;
}

void Gatekeeper::confirm_admission(const RasAdmissionRequestInfo& arq,
                                   IpAddress requester,
                                   TransportAddress dest) {
  ++admissions_;
  grants_[grant_key(arq.call_ref.value(), arq.answer_call)] =
      arq.bandwidth_kbps;
  bandwidth_in_use_kbps_ += arq.bandwidth_kbps;
  if (!arq.answer_call) {
    open_index_[arq.call_ref.value()] =
        static_cast<std::uint32_t>(records_.size());
    records_.push_back(CallRecord{arq.call_ref, arq.calling, arq.called,
                                  now(), SimTime{}, true});
  }
  auto acf = pool_message<RasAcf>();
  acf->call_ref = arq.call_ref;
  acf->dest_call_signal_address = dest;
  send_ip(requester, std::move(acf));
}

void Gatekeeper::reject_admission(const RasAdmissionRequestInfo& arq,
                                  IpAddress requester, ArjCause cause) {
  ++rejections_;
  auto arj = pool_message<RasArj>();
  arj->call_ref = arq.call_ref;
  arj->cause = static_cast<std::uint8_t>(cause);
  send_ip(requester, std::move(arj));
}

void Gatekeeper::handle_unknown_alias(const RasAdmissionRequestInfo& arq,
                                      IpAddress requester) {
  // Standard behaviour: the callee is not in this zone.  The caller falls
  // back to normal PSTN routing (paper, Section 6, Fig. 8 discussion).
  reject_admission(arq, requester, ArjCause::kCalledPartyNotRegistered);
}

std::size_t Gatekeeper::open_calls() const { return open_index_.size(); }

void Gatekeeper::on_ip(const IpDatagramInfo& dgram, const Message& inner) {
  if (const auto* rrq = msg_cast<RasRrq>(&inner)) {
    Registration& reg = table_[rrq->alias];
    // A new transport address means a new endpoint claiming the alias
    // (e.g. the VMSC after the subscriber re-activated a dynamic PDP
    // context, or a roamer arriving at this zone): issue a fresh endpoint
    // identifier so stale unregistrations cannot evict the newcomer.
    if (reg.endpoint_id == 0 || reg.transport != rrq->call_signal_address) {
      reg.endpoint_id = next_endpoint_id_++;
    }
    reg.transport = rrq->call_signal_address;
    auto rcf = pool_message<RasRcf>();
    rcf->alias = rrq->alias;
    rcf->endpoint_id = reg.endpoint_id;
    send_ip(dgram.src, std::move(rcf));
    return;
  }

  if (const auto* urq = msg_cast<RasUrq>(&inner)) {
    const Registration* reg = table_.find(urq->alias);
    if (reg != nullptr && reg->endpoint_id == urq->endpoint_id) {
      table_.erase(urq->alias);
    }
    auto ucf = pool_message<RasUcf>();
    ucf->alias = urq->alias;
    ucf->endpoint_id = urq->endpoint_id;
    send_ip(dgram.src, std::move(ucf));
    return;
  }

  if (const auto* arq = msg_cast<RasArq>(&inner)) {
    if (grants_.contains(grant_key(arq->call_ref.value(), arq->answer_call))) {
      // Duplicate ARQ for a leg already admitted (retransmission after a
      // lost ACF): re-confirm without counting the admission, its
      // bandwidth, or its charging record a second time.
      TransportAddress dest{};
      if (!arq->answer_call) {
        if (auto reg = find_alias(arq->called); reg.has_value()) {
          dest = reg->transport;
        }
      }
      auto acf = pool_message<RasAcf>();
      acf->call_ref = arq->call_ref;
      acf->dest_call_signal_address = dest;
      send_ip(dgram.src, std::move(acf));
      return;
    }
    if (bandwidth_limit_kbps_.has_value() &&
        bandwidth_in_use_kbps_ + arq->bandwidth_kbps >
            *bandwidth_limit_kbps_) {
      // Zone out of media bandwidth: rejects answering endpoints too —
      // the paper's step 2.5 release branch.
      reject_admission(*arq, dgram.src, ArjCause::kResourceUnavailable);
      return;
    }
    if (admission_limit_.has_value()) {
      // Zone capacity check; the answer-side ARQ of an already-admitted
      // call does not count against it twice.
      const std::size_t others =
          open_index_.size() -
          (open_index_.contains(arq->call_ref.value()) ? 1 : 0);
      if (others >= *admission_limit_) {
        reject_admission(*arq, dgram.src, ArjCause::kResourceUnavailable);
        return;
      }
    }
    if (arq->answer_call) {
      // The answering endpoint asks permission; it already holds the call.
      confirm_admission(*arq, dgram.src, TransportAddress{});
      return;
    }
    auto reg = find_alias(arq->called);
    if (!reg.has_value()) {
      handle_unknown_alias(*arq, dgram.src);
      return;
    }
    admit(*arq, dgram.src, *reg);
    return;
  }

  if (const auto* drq = msg_cast<RasDrq>(&inner)) {
    if (const std::uint32_t* ix = open_index_.find(drq->call_ref.value());
        ix != nullptr) {
      CallRecord& rec = records_[*ix];
      rec.disengaged = now();
      rec.open = false;
      open_index_.erase(drq->call_ref.value());
      // Return both legs' bandwidth grants on call completion.
      for (bool answer : {false, true}) {
        const std::uint64_t gk = grant_key(drq->call_ref.value(), answer);
        if (const std::uint16_t* grant = grants_.find(gk); grant != nullptr) {
          bandwidth_in_use_kbps_ -= *grant;
          grants_.erase(gk);
        }
      }
    }
    auto dcf = pool_message<RasDcf>();
    dcf->endpoint_id = drq->endpoint_id;
    dcf->call_ref = drq->call_ref;
    send_ip(dgram.src, std::move(dcf));
    return;
  }

  VG_WARN("gk", name() << ": unhandled " << inner.name());
}

}  // namespace vgprs
