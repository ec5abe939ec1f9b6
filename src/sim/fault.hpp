// FaultInjector: a scriptable, seed-deterministic fault schedule attached
// to a Network.  Four fault families:
//
//  * link windows — a named link is dead for [down_at, up_at); every
//    traversal attempted inside the window is dropped;
//  * latency spikes — traversals of a named link inside [from, until) pay
//    `extra` on top of the link's profile;
//  * node outages — a node crashes at crash_at (messages to/from it are
//    dropped, its timers are suppressed) and restarts at restart_at, when
//    Node::on_restart() fires and volatile state resets;
//  * message faults — drop / duplicate / reorder / corrupt the N-th
//    message matching a (message name, from, to) predicate.
//
// Every injected fault is recorded in the trace (entries named
// "fault.<kind>(...)") and counted in the MetricsRegistry under
// "fault/injected/<kind>".  Determinism: the schedule is data, transitions
// ride the ordinary event queue, and the only randomness (the corrupted
// byte position when a fault does not pin one) comes from the Network's
// seeded RNG — same seed + same schedule reproduces a byte-identical
// trace.
//
// Sharded engine: the resolved schedule is immutable, so the time-window
// checks (node_down, link windows, spikes) are safe from any worker;
// everything mutable — match counters, injection tallies, the last decode
// error — is kept per shard and aggregated on read, and crash/restart/
// link transitions are queued (by Network::install_faults) as engine
// events on the shard of the affected node.  Note that message-fault
// `nth` counting is therefore per shard under a sharded run; a predicate
// should name endpoints that pin it to one shard (chaos suites run
// unsharded, where counting is global as before).
//
// The injector is itself a Node (record/bump need a Network context) but
// never sends or receives messages; with no injector installed the engine
// hot path pays exactly one null-pointer test per send and per dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/result.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"

namespace vgprs {

class Network;
class Message;

/// Which manipulation to apply to a matched message.
enum class FaultKind : std::uint8_t { kDrop, kDuplicate, kReorder, kCorrupt };

[[nodiscard]] constexpr const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kDrop: return "drop";
    case FaultKind::kDuplicate: return "duplicate";
    case FaultKind::kReorder: return "reorder";
    case FaultKind::kCorrupt: return "corrupt";
  }
  return "?";
}

/// Selects in-flight messages.  Empty strings are wildcards.
struct MessagePredicate {
  std::string message;  // exact Message::name() match
  std::string from;     // sender node name
  std::string to;       // receiver node name
  std::uint32_t nth = 1;    // 1-based index of the first affected match
  std::uint32_t count = 1;  // how many consecutive matches to affect
};

struct MessageFault {
  MessagePredicate match;
  FaultKind kind = FaultKind::kDrop;
  /// kReorder: how long the matched message is held back so that later
  /// traffic on the link overtakes it.
  SimDuration reorder_delay = SimDuration::millis(200);
  /// kCorrupt: wire byte to mutate (XOR 0xFF).  -1 picks a byte from the
  /// Network's seeded RNG.
  std::int32_t corrupt_byte = -1;
};

/// The link between nodes `a` and `b` (unordered) is dead for
/// [down_at, up_at).
struct LinkWindow {
  std::string a;
  std::string b;
  SimTime down_at;
  SimTime up_at;
};

/// Traversals of the a<->b link during [from, until) pay `extra` latency.
struct LatencySpike {
  std::string a;
  std::string b;
  SimTime from;
  SimTime until;
  SimDuration extra;
};

/// `node` is down for [crash_at, restart_at); on_restart() fires at
/// restart_at.
struct NodeOutage {
  std::string node;
  SimTime crash_at;
  SimTime restart_at;
};

struct FaultSchedule {
  std::vector<LinkWindow> link_windows;
  std::vector<LatencySpike> latency_spikes;
  std::vector<NodeOutage> node_outages;
  std::vector<MessageFault> message_faults;
};

class FaultInjector final : public Node {
 public:
  /// What Network::send must do with one message (computed by plan_send).
  struct SendPlan {
    bool drop = false;
    bool duplicate = false;
    bool corrupt = false;
    std::int32_t corrupt_byte = -1;
    SimDuration extra_delay = SimDuration::zero();
  };

  /// Injection totals, kept raw here and mirrored into the metrics
  /// registry ("fault/injected/*") as they happen.
  struct Counters {
    std::uint64_t link_drops = 0;
    std::uint64_t outage_drops = 0;
    std::uint64_t drops = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t reorders = 0;
    std::uint64_t corruptions = 0;
    std::uint64_t latency_spikes = 0;
    std::uint64_t crashes = 0;
    std::uint64_t restarts = 0;
    std::uint64_t decode_errors = 0;  // corruptions the codec rejected
  };

  explicit FaultInjector(FaultSchedule schedule);

  [[nodiscard]] const FaultSchedule& schedule() const { return schedule_; }
  /// Injection totals summed over shards (sequential runs only have one).
  [[nodiscard]] Counters counters() const;
  /// How many messages matched message_faults[i]'s predicate so far
  /// (whether or not inside the [nth, nth+count) window).
  [[nodiscard]] std::uint32_t matches_seen(std::size_t fault_index) const;
  /// How many times message_faults[i] actually fired.
  [[nodiscard]] std::uint32_t faults_applied(std::size_t fault_index) const;
  /// True while `id` is inside a scheduled outage at time `at`.  Pure read
  /// of the resolved schedule — safe from any shard.
  [[nodiscard]] bool node_down(NodeId id, SimTime at) const;
  /// The codec error produced by the most recent corruption the receiver's
  /// decode rejected (ErrorCode::kNone if none yet; under a sharded run,
  /// the highest-indexed shard with one wins).
  [[nodiscard]] const Error& last_corrupt_error() const;

  void on_message(const Envelope& env) override;
  void on_attached() override;

 private:
  friend class Network;

  /// One scheduled state change, queued by Network::install_faults as an
  /// engine event on the shard owning `target`.
  struct Transition {
    SimTime at;
    std::uint64_t cookie;
    NodeId target;
  };

  /// All crash/restart/link-window transitions in schedule order.
  [[nodiscard]] std::vector<Transition> transitions() const;
  /// Executes one transition (records, counts, fires on_restart).  Runs on
  /// the shard that owns the affected node.
  void transition(std::uint64_t cookie);

  /// Consulted by Network::send after the link lookup.  Applies link
  /// windows, node outages, latency spikes and message faults; records
  /// trace entries and counters (against `shard`) for whatever it injects.
  SendPlan plan_send(SimTime at, const Node& src, const Node& dst,
                     const Message& msg, std::uint32_t shard);
  /// Consulted by Network::dispatch before delivering to `dst`; false
  /// means the destination is mid-outage and the message is lost.
  bool allow_delivery(SimTime at, const Node& src, const Node& dst,
                      const Message& msg, std::uint32_t shard);
  /// A corruption was rejected by the receiving codec (the message is
  /// discarded, as a real checksum failure would).
  void note_corrupt_undecodable(Error error, std::uint32_t shard);

  void record(SimTime at, NodeId from, NodeId to, std::string what,
              std::string detail);
  void bump(const char* counter_name, std::uint64_t& raw);

  FaultSchedule schedule_;
  // All mutable bookkeeping is per shard: a worker only ever touches the
  // entry of the shard it is dispatching (index 0 outside sharded runs).
  std::vector<Counters> counters_;
  std::vector<std::vector<std::uint32_t>> seen_;     // [shard][fault]
  std::vector<std::vector<std::uint32_t>> applied_;  // [shard][fault]
  std::vector<Error> last_corrupt_error_;            // [shard]
  // Resolved at attach time; node ids are stable once the topology exists.
  std::vector<NodeId> outage_nodes_;
  std::vector<std::pair<NodeId, NodeId>> window_nodes_;
  std::vector<std::pair<NodeId, NodeId>> spike_nodes_;
};

}  // namespace vgprs
