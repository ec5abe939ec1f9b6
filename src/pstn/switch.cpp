#include "pstn/switch.hpp"

#include <atomic>

#include "common/log.hpp"

namespace vgprs {

Cic allocate_cic() {
  static std::atomic<Cic> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

void register_pstn_messages() {
  register_message<IsupIam>();
  register_message<IsupAcm>();
  register_message<IsupAnm>();
  register_message<IsupRel>();
  register_message<IsupRlc>();
  register_message<TrunkVoice>();
}

void PstnSwitch::add_route(std::string prefix, std::string next_hop,
                           TrunkClass klass) {
  routes_.push_back(Route{std::move(prefix), std::move(next_hop), klass});
}

void PstnSwitch::attach_subscriber(Msisdn number, std::string node_name) {
  subscribers_[number] = std::move(node_name);
}

std::int64_t PstnSwitch::trunks_used(TrunkClass klass) const {
  return counters_.get(std::string("iam.") + to_string(klass));
}

const PstnSwitch::Route* PstnSwitch::best_route(const Msisdn& called) const {
  // Msisdn::to_string renders "+<digits>"; strip the '+'.
  std::string digits = called.to_string().substr(1);
  const Route* best = nullptr;
  for (const auto& route : routes_) {
    if (digits.starts_with(route.prefix) &&
        (best == nullptr || route.prefix.size() > best->prefix.size())) {
      best = &route;
    }
  }
  return best;
}

void PstnSwitch::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (const auto* iam = msg_cast<IsupIam>(&msg)) {
    NodeId next;
    TrunkClass klass = TrunkClass::kSubscriberLine;
    if (auto sub = subscribers_.find(iam->called);
        sub != subscribers_.end()) {
      Node* phone = net().node_by_name(sub->second);
      if (phone != nullptr) next = phone->id();
    } else if (const Route* route = best_route(iam->called)) {
      Node* hop = net().node_by_name(route->next_hop);
      if (hop != nullptr) {
        next = hop->id();
        klass = route->klass;
      }
    }
    if (!next.valid()) {
      VG_WARN("pstn", name() << ": no route to " << iam->called.to_string());
      auto rel = pool_message<IsupRel>();
      rel->cic = iam->cic;
      rel->cause = 1;  // unallocated number
      send(env.from, std::move(rel));
      return;
    }
    counters_.bump(std::string("iam.") + to_string(klass));
    legs_[iam->cic] = Leg{env.from, next};
    send(next, env.msg);
    return;
  }

  // Everything else relays along the established legs: backward messages
  // (ACM/ANM) go upstream, REL/RLC/voice go to the peer of the sender.
  auto relay = [&](Cic cic) -> bool {
    auto it = legs_.find(cic);
    if (it == legs_.end()) return false;
    NodeId peer =
        env.from == it->second.upstream ? it->second.downstream
                                        : it->second.upstream;
    send(peer, env.msg);
    return true;
  };

  if (const auto* acm = msg_cast<IsupAcm>(&msg)) {
    relay(acm->cic);
    return;
  }
  if (const auto* anm = msg_cast<IsupAnm>(&msg)) {
    relay(anm->cic);
    return;
  }
  if (const auto* rel = msg_cast<IsupRel>(&msg)) {
    relay(rel->cic);
    return;
  }
  if (const auto* rlc = msg_cast<IsupRlc>(&msg)) {
    relay(rlc->cic);
    legs_.erase(rlc->cic);
    return;
  }
  if (const auto* voice = msg_cast<TrunkVoice>(&msg)) {
    relay(voice->cic);
    return;
  }

  VG_WARN("pstn", name() << ": unhandled " << msg.name());
}

}  // namespace vgprs
