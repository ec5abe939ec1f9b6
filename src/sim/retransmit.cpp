#include "sim/retransmit.hpp"

#include <utility>

#include "sim/network.hpp"

namespace vgprs {

void Retransmitter::arm(std::uint64_t key, std::function<void()> resend,
                        std::function<void()> give_up) {
  if (auto it = entries_.find(key); it != entries_.end()) {
    owner_.net().cancel_timer(it->second.timer);
    entries_.erase(it);
  }
  Entry entry;
  entry.resend = std::move(resend);
  entry.give_up = std::move(give_up);
  entry.interval = policy_.initial;
  entry.remaining = policy_.max_retries;
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
    // Exhausted: run give_up outside the map in case it re-arms this key.
    std::function<void()> give_up = std::move(entry.give_up);
    entries_.erase(it);
    ++give_ups_;
    ++owner_.net().metrics().counter("recovery/give_ups");
    if (give_up) give_up();
    return true;
  }
  --entry.remaining;
  entry.interval = entry.interval * policy_.multiplier;
  if (entry.interval > policy_.max_interval) {
    entry.interval = policy_.max_interval;
  }
  ++retransmits_;
  ++owner_.net().metrics().counter("recovery/retransmits");
  // Resend may (in pathological states) ack or re-arm this key; schedule
  // the next copy first so the entry is consistent when it runs.
  entry.timer = owner_.net().set_timer(owner_.id(), entry.interval, key);
  std::function<void()> resend = entry.resend;
  if (resend) resend();
  return true;
}

void Retransmitter::reset() {
  for (auto& [key, entry] : entries_) {
    owner_.net().cancel_timer(entry.timer);
  }
  entries_.clear();
}

}  // namespace vgprs
