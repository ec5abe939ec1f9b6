// Node: the base class for every simulated network element (MS, BTS, BSC,
// VMSC, SGSN, GGSN, gatekeeper, ...).  A node reacts to delivered messages
// and to its own timers; it talks to the world exclusively through the
// owning Network.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>

#include "sim/message.hpp"
#include "sim/time.hpp"

namespace vgprs {

class Network;

/// Index of a node within its Network.  0 is reserved as "invalid".
class NodeId {
 public:
  constexpr NodeId() = default;
  constexpr explicit NodeId(std::uint32_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }

  friend constexpr auto operator<=>(NodeId, NodeId) = default;

 private:
  std::uint32_t value_ = 0;
};

/// A message in flight / being delivered.
struct Envelope {
  SimTime at;       // delivery time
  NodeId from;
  NodeId to;
  MessagePtr msg;
};

/// Identifies one armed timer; 0 means "no timer".
using TimerId = std::uint64_t;

class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] Network& net() const { return *net_; }

  /// A message addressed to this node arrived.
  virtual void on_message(const Envelope& env) = 0;

  /// A timer set via Network::set_timer fired.  `cookie` is caller-defined.
  /// A cancelled timer never gets here.
  virtual void on_timer(TimerId id, std::uint64_t cookie) {
    (void)id;
    (void)cookie;
  }

  /// Called once after the node has been added to a network.
  virtual void on_attached() {}

  /// The node crashed and came back (FaultInjector node outage): volatile
  /// state — procedure contexts, caches — must be reset here.  Durable
  /// state (provisioned subscribers, configuration) survives.
  ///
  /// Timers follow one rule: a node keeps the TimerId of the timer its
  /// current state armed; arming a new one cancels the one it holds, and
  /// leaving the state cancels it, so on_timer needs no staleness test.
  /// A timer armed before the crash may still fire afterwards.  It does
  /// nothing as long as the restart cancels it or drops its id: no state
  /// created after the restart holds that id.
  virtual void on_restart() {}

 protected:
  /// Sends `msg` to `to` over the connecting link (asserts a link exists).
  void send(NodeId to, MessagePtr msg,
            SimDuration extra_delay = SimDuration::zero());
  /// The id is the only way to cancel the timer, so it must be kept.
  [[nodiscard]] TimerId set_timer(SimDuration delay,
                                  std::uint64_t cookie = 0);
  void cancel_timer(TimerId id);
  [[nodiscard]] SimTime now() const;
  /// The node named `name`, which the topology must hold: a missing peer
  /// is a wiring error, so it throws std::logic_error.
  [[nodiscard]] NodeId peer(std::string_view name) const;

 private:
  friend class Network;
  std::string name_;
  NodeId id_;
  Network* net_ = nullptr;
};

}  // namespace vgprs
