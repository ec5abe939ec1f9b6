#include "sim/retransmit.hpp"

#include <algorithm>
#include <utility>

#include "sim/network.hpp"

namespace vgprs {

void Retransmitter::send(std::uint64_t key, NodeId to, MessagePtr request,
                         std::function<void()> give_up) {
  if (auto it = entries_.find(key); it != entries_.end()) {
    owner_.net().cancel_timer(it->second.timer);
    entries_.erase(it);
  }
  // The request goes out before its timer is armed: the order fixes the
  // events' sequence numbers, which traces and goldens depend on.
  owner_.net().send(owner_.id(), to, request);
  Entry entry;
  entry.to = to;
  entry.request = std::move(request);
  entry.give_up = std::move(give_up);
  entry.interval = kInitial;
  entry.remaining = kMaxRetries;
  entry.timer = owner_.net().set_timer(owner_.id(), entry.interval, key);
  entries_.emplace(key, std::move(entry));
}

bool Retransmitter::ack(std::uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) return false;
  owner_.net().cancel_timer(it->second.timer);
  entries_.erase(it);
  return true;
}

bool Retransmitter::on_timer(TimerId id, std::uint64_t key) {
  auto it = entries_.find(key);
  if (it == entries_.end() || it->second.timer != id) return false;
  Entry& entry = it->second;
  if (entry.remaining <= 0) {
    // Exhausted: run give_up outside the map in case it sends under this key.
    std::function<void()> give_up = std::move(entry.give_up);
    entries_.erase(it);
    ++give_ups_;
    ++owner_.net().metrics().counter("recovery/give_ups");
    if (give_up) give_up();
    return true;
  }
  --entry.remaining;
  entry.interval = std::min(entry.interval * 2, kMaxInterval);
  ++retransmits_;
  ++owner_.net().metrics().counter("recovery/retransmits");
  // The next step's timer is armed before the copy goes out (see send()).
  entry.timer = owner_.net().set_timer(owner_.id(), entry.interval, key);
  owner_.net().send(owner_.id(), entry.to, entry.request);
  return true;
}

void Retransmitter::reset() {
  for (auto& [key, entry] : entries_) {
    owner_.net().cancel_timer(entry.timer);
  }
  entries_.clear();
}

}  // namespace vgprs
