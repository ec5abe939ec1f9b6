// Retransmitter: capped-exponential-backoff recovery for request–response
// signaling exchanges (GSM MAP, GTP, RAS, Q.931 over IP).  A node sends its
// request, arms a key here with a `resend` thunk and a `give_up` thunk, and
// acks the key when the response arrives.  Unanswered requests are resent
// with doubling intervals; after `max_retries` unanswered copies the
// give-up thunk runs (close the span as timeout, reject the procedure,
// fall back — whatever the protocol calls for).
//
// An exchange owns its timer: ack, re-arm and reset cancel it, so every
// timer of ours that fires is current.  The timer's cookie is the exchange
// key and each pending exchange keeps its TimerId, so the owner forwards
// every timer here FIRST and the id alone tells ours from its own:
//
//   void on_timer(TimerId id, std::uint64_t cookie) override {
//     if (retx_.on_timer(id, cookie)) return;
//     Base::on_timer(id, cookie);
//   }
//
// Retransmissions and give-ups are counted in the owning network's
// MetricsRegistry under "recovery/retransmits" and "recovery/give_ups".
#pragma once

#include <cstdint>
#include <functional>
#include <unordered_map>

#include "sim/node.hpp"
#include "sim/time.hpp"

namespace vgprs {

class Retransmitter {
 public:
  struct Policy {
    SimDuration initial = SimDuration::seconds(1);
    std::int64_t multiplier = 2;
    SimDuration max_interval = SimDuration::seconds(8);
    int max_retries = 3;
  };

  explicit Retransmitter(Node& owner) : owner_(owner) {}

  void set_policy(Policy policy) { policy_ = policy; }
  [[nodiscard]] const Policy& policy() const { return policy_; }

  /// The caller just sent the first copy of a request.  `resend` re-emits
  /// it from current state; `give_up` runs after max_retries unanswered
  /// retransmissions.  Re-arming a pending key restarts its schedule.
  void arm(std::uint64_t key, std::function<void()> resend,
           std::function<void()> give_up);

  /// The response arrived.  Returns true if the key was pending; acking an
  /// unknown key (already answered, already given up) is a no-op — that is
  /// what makes duplicate responses harmless.
  bool ack(std::uint64_t key);

  [[nodiscard]] bool pending(std::uint64_t key) const {
    return entries_.contains(key);
  }
  [[nodiscard]] std::size_t pending_count() const { return entries_.size(); }

  /// Owners call this first from on_timer, passing the cookie as `key`;
  /// true = the timer was ours (the exchange `key` holds `id`).
  bool on_timer(TimerId id, std::uint64_t key);

  /// Drops every pending exchange without firing give_up — the owner
  /// crashed and restarted; whatever was in flight is meaningless now.
  void reset();

  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t give_ups() const { return give_ups_; }

 private:
  struct Entry {
    std::function<void()> resend;
    std::function<void()> give_up;
    SimDuration interval;
    int remaining = 0;
    TimerId timer = 0;
  };

  Node& owner_;
  Policy policy_;
  std::unordered_map<std::uint64_t, Entry> entries_;  // key -> entry
  std::uint64_t retransmits_ = 0;
  std::uint64_t give_ups_ = 0;
};

}  // namespace vgprs
