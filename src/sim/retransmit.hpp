// Retransmitter: capped-exponential-backoff recovery for request–response
// signaling exchanges (GSM MAP, GTP, RAS, Q.931 over IP).  A node hands its
// request to send(), which sends it and keeps it under a key; the node acks
// the key when the response arrives.  An unanswered request is re-sent —
// the same immutable message, to the same peer — after 1, 3 and 7 s; 8 s
// after the third copy the give-up runs (close the span as timeout, reject
// the procedure, fall back — whatever the protocol calls for).
//
// An exchange ends on its reply (ack), on its give-up, on reset(), or when
// the owner leaves the state the request served: the owner acks the key at
// that transition.  A copy is therefore always wanted, and re-sending needs
// no check of the owner's state.
//
// An exchange owns its timer: ack, re-send and reset cancel it, so every
// timer of ours that fires is current.  The timer's cookie is the exchange
// key and each pending exchange keeps its TimerId, so the owner forwards
// every timer here FIRST and the id alone tells ours from its own:
//
//   void on_timer(TimerId id, std::uint64_t cookie) override {
//     if (retx_.on_timer(id, cookie)) return;
//     Base::on_timer(id, cookie);
//   }
//
// Copies sent and give-ups are counted in the owning network's
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
  /// The backoff schedule: first copy after kInitial, each wait doubling up
  /// to kMaxInterval, give-up after kMaxRetries unanswered copies.
  static constexpr SimDuration kInitial = SimDuration::seconds(1);
  static constexpr SimDuration kMaxInterval = SimDuration::seconds(8);
  static constexpr int kMaxRetries = 3;

  explicit Retransmitter(Node& owner) : owner_(owner) {}

  /// Sends `request` to `to` and keeps both: every backoff step re-sends
  /// that message to that peer.  `give_up` (may be empty) runs after
  /// kMaxRetries unanswered copies.  Sending under a pending key replaces
  /// its exchange and restarts the schedule.
  void send(std::uint64_t key, NodeId to, MessagePtr request,
            std::function<void()> give_up = {});

  /// The response arrived, or the state the request served ended.  Returns
  /// true if the key was pending; acking an unknown key (already answered,
  /// already given up) is a no-op — that is what makes duplicate responses
  /// harmless.
  bool ack(std::uint64_t key);

  [[nodiscard]] bool pending(std::uint64_t key) const {
    return entries_.contains(key);
  }
  [[nodiscard]] std::size_t pending_count() const { return entries_.size(); }

  /// Owners call this first from on_timer, passing the cookie as `key`;
  /// true = the timer was ours (the exchange `key` holds `id`).
  bool on_timer(TimerId id, std::uint64_t key);

  /// Drops every pending exchange without firing give_up: the owner
  /// restarted, or left a state that every pending exchange served.
  void reset();

  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::uint64_t give_ups() const { return give_ups_; }

 private:
  struct Entry {
    NodeId to;
    MessagePtr request;
    std::function<void()> give_up;
    SimDuration interval;
    int remaining = 0;
    TimerId timer = 0;
  };

  Node& owner_;
  std::unordered_map<std::uint64_t, Entry> entries_;  // key -> entry
  std::uint64_t retransmits_ = 0;
  std::uint64_t give_ups_ = 0;
};

}  // namespace vgprs
