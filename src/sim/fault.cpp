#include "sim/fault.hpp"

#include <stdexcept>

#include "sim/network.hpp"

namespace vgprs {

namespace {

// Transition-event cookies: kind << 32 | schedule index.
constexpr std::uint64_t kCookieCrash = 0;
constexpr std::uint64_t kCookieRestart = 1;
constexpr std::uint64_t kCookieLinkDown = 2;
constexpr std::uint64_t kCookieLinkUp = 3;

constexpr std::uint64_t transition_cookie(std::uint64_t kind,
                                          std::size_t index) {
  return (kind << 32) | static_cast<std::uint64_t>(index);
}

bool same_link(const std::pair<NodeId, NodeId>& pair, NodeId a, NodeId b) {
  return (pair.first == a && pair.second == b) ||
         (pair.first == b && pair.second == a);
}

bool in_window(SimTime at, SimTime from, SimTime until) {
  return from <= at && at < until;
}

}  // namespace

FaultInjector::FaultInjector(FaultSchedule schedule)
    : Node("fault-injector"), schedule_(std::move(schedule)) {}

FaultInjector::Counters FaultInjector::counters() const {
  Counters out;
  for (const Counters& c : counters_) {
    out.link_drops += c.link_drops;
    out.outage_drops += c.outage_drops;
    out.drops += c.drops;
    out.duplicates += c.duplicates;
    out.reorders += c.reorders;
    out.corruptions += c.corruptions;
    out.latency_spikes += c.latency_spikes;
    out.crashes += c.crashes;
    out.restarts += c.restarts;
    out.decode_errors += c.decode_errors;
  }
  return out;
}

std::uint32_t FaultInjector::matches_seen(std::size_t fault_index) const {
  std::uint32_t total = 0;
  for (const auto& per_shard : seen_) {
    if (fault_index < per_shard.size()) total += per_shard[fault_index];
  }
  return total;
}

std::uint32_t FaultInjector::faults_applied(std::size_t fault_index) const {
  std::uint32_t total = 0;
  for (const auto& per_shard : applied_) {
    if (fault_index < per_shard.size()) total += per_shard[fault_index];
  }
  return total;
}

const Error& FaultInjector::last_corrupt_error() const {
  std::size_t pick = 0;
  for (std::size_t s = 0; s < last_corrupt_error_.size(); ++s) {
    if (last_corrupt_error_[s].code != ErrorCode::kNone) pick = s;
  }
  return last_corrupt_error_[pick];
}

void FaultInjector::on_attached() {
  // Resolve every scheduled name once; ids are stable after add_node, so
  // the per-send checks below compare integers, not strings.
  auto resolve = [this](const std::string& name) {
    Node* target = net().node_by_name(name);
    if (target == nullptr) {
      throw std::invalid_argument("FaultInjector: unknown node '" + name +
                                  "' in fault schedule");
    }
    return target->id();
  };

  outage_nodes_.reserve(schedule_.node_outages.size());
  for (const NodeOutage& o : schedule_.node_outages) {
    if (o.restart_at < o.crash_at) {
      throw std::invalid_argument("FaultInjector: outage of '" + o.node +
                                  "' restarts before it crashes");
    }
    outage_nodes_.push_back(resolve(o.node));
  }
  window_nodes_.reserve(schedule_.link_windows.size());
  for (const LinkWindow& w : schedule_.link_windows) {
    window_nodes_.emplace_back(resolve(w.a), resolve(w.b));
  }
  spike_nodes_.reserve(schedule_.latency_spikes.size());
  for (const LatencySpike& s : schedule_.latency_spikes) {
    spike_nodes_.emplace_back(resolve(s.a), resolve(s.b));
  }

  const std::size_t shards = net().num_shards();
  counters_.assign(shards, Counters{});
  seen_.assign(shards, std::vector<std::uint32_t>(
                           schedule_.message_faults.size(), 0));
  applied_.assign(shards, std::vector<std::uint32_t>(
                              schedule_.message_faults.size(), 0));
  last_corrupt_error_.assign(shards, Error{ErrorCode::kNone, ""});
}

std::vector<FaultInjector::Transition> FaultInjector::transitions() const {
  std::vector<Transition> out;
  out.reserve(2 * schedule_.node_outages.size() +
              2 * schedule_.link_windows.size());
  for (std::size_t i = 0; i < schedule_.node_outages.size(); ++i) {
    const NodeOutage& o = schedule_.node_outages[i];
    out.push_back(
        {o.crash_at, transition_cookie(kCookieCrash, i), outage_nodes_[i]});
    out.push_back({o.restart_at, transition_cookie(kCookieRestart, i),
                   outage_nodes_[i]});
  }
  for (std::size_t i = 0; i < schedule_.link_windows.size(); ++i) {
    const LinkWindow& w = schedule_.link_windows[i];
    out.push_back({w.down_at, transition_cookie(kCookieLinkDown, i),
                   window_nodes_[i].first});
    out.push_back({w.up_at, transition_cookie(kCookieLinkUp, i),
                   window_nodes_[i].first});
  }
  return out;
}

void FaultInjector::on_message(const Envelope& env) {
  // The injector has no links; nothing can be addressed to it.
  (void)env;
}

void FaultInjector::transition(std::uint64_t cookie) {
  const std::uint64_t kind = cookie >> 32;
  const auto index = static_cast<std::size_t>(cookie & 0xFFFFFFFFull);
  Counters& c = counters_[net().current_shard()];
  switch (kind) {
    case kCookieCrash: {
      const NodeOutage& o = schedule_.node_outages[index];
      record(now(), outage_nodes_[index], outage_nodes_[index],
             "fault.crash(" + o.node + ")",
             "node outage begins; messages and timers suppressed");
      bump("fault/injected/crash", c.crashes);
      break;
    }
    case kCookieRestart: {
      const NodeOutage& o = schedule_.node_outages[index];
      record(now(), outage_nodes_[index], outage_nodes_[index],
             "fault.restart(" + o.node + ")",
             "node restarts; volatile state reset");
      bump("fault/injected/restart", c.restarts);
      if (Node* target = net().node(outage_nodes_[index])) {
        target->on_restart();
      }
      break;
    }
    case kCookieLinkDown: {
      const LinkWindow& w = schedule_.link_windows[index];
      record(now(), window_nodes_[index].first, window_nodes_[index].second,
             "fault.link_down(" + w.a + "<->" + w.b + ")",
             "link window opens; traversals dropped");
      break;
    }
    case kCookieLinkUp: {
      const LinkWindow& w = schedule_.link_windows[index];
      record(now(), window_nodes_[index].first, window_nodes_[index].second,
             "fault.link_up(" + w.a + "<->" + w.b + ")",
             "link window closes; traversals delivered again");
      break;
    }
    default: break;
  }
}

bool FaultInjector::node_down(NodeId id, SimTime at) const {
  for (std::size_t i = 0; i < outage_nodes_.size(); ++i) {
    if (outage_nodes_[i] != id) continue;
    const NodeOutage& o = schedule_.node_outages[i];
    if (in_window(at, o.crash_at, o.restart_at)) return true;
  }
  return false;
}

FaultInjector::SendPlan FaultInjector::plan_send(SimTime at, const Node& src,
                                                 const Node& dst,
                                                 const Message& msg,
                                                 std::uint32_t shard) {
  SendPlan plan;
  Counters& c = counters_[shard];

  // A crashed endpoint neither emits nor accepts traffic.
  if (node_down(src.id(), at) || node_down(dst.id(), at)) {
    record(at, src.id(), dst.id(),
           "fault.outage_drop(" + std::string(msg.name()) + ")",
           "endpoint is mid-outage");
    bump("fault/injected/outage_drop", c.outage_drops);
    plan.drop = true;
    return plan;
  }

  for (std::size_t i = 0; i < window_nodes_.size(); ++i) {
    if (!same_link(window_nodes_[i], src.id(), dst.id())) continue;
    const LinkWindow& w = schedule_.link_windows[i];
    if (!in_window(at, w.down_at, w.up_at)) continue;
    record(at, src.id(), dst.id(),
           "fault.link_drop(" + std::string(msg.name()) + ")",
           "link " + w.a + "<->" + w.b + " is down");
    bump("fault/injected/link_drop", c.link_drops);
    plan.drop = true;
    return plan;
  }

  for (std::size_t i = 0; i < spike_nodes_.size(); ++i) {
    if (!same_link(spike_nodes_[i], src.id(), dst.id())) continue;
    const LatencySpike& s = schedule_.latency_spikes[i];
    if (!in_window(at, s.from, s.until)) continue;
    plan.extra_delay += s.extra;
    bump("fault/injected/latency_spike", c.latency_spikes);
  }

  for (std::size_t i = 0; i < schedule_.message_faults.size(); ++i) {
    const MessageFault& f = schedule_.message_faults[i];
    const MessagePredicate& p = f.match;
    if (!p.message.empty() && p.message != msg.name()) continue;
    if (!p.from.empty() && p.from != src.name()) continue;
    if (!p.to.empty() && p.to != dst.name()) continue;
    const std::uint32_t seen = ++seen_[shard][i];
    if (seen < p.nth || seen >= p.nth + p.count) continue;
    ++applied_[shard][i];
    const std::string what =
        "fault." + std::string(to_string(f.kind)) + "(" +
        std::string(msg.name()) + ")";
    switch (f.kind) {
      case FaultKind::kDrop:
        record(at, src.id(), dst.id(), what,
               "match #" + std::to_string(seen));
        bump("fault/injected/drop", c.drops);
        plan.drop = true;
        return plan;
      case FaultKind::kDuplicate:
        record(at, src.id(), dst.id(), what,
               "match #" + std::to_string(seen) + "; delivered twice");
        bump("fault/injected/duplicate", c.duplicates);
        plan.duplicate = true;
        break;
      case FaultKind::kReorder:
        record(at, src.id(), dst.id(), what,
               "match #" + std::to_string(seen) + "; held back " +
                   f.reorder_delay.to_string());
        bump("fault/injected/reorder", c.reorders);
        plan.extra_delay += f.reorder_delay;
        break;
      case FaultKind::kCorrupt:
        record(at, src.id(), dst.id(), what,
               "match #" + std::to_string(seen) + "; wire byte flipped");
        bump("fault/injected/corrupt", c.corruptions);
        plan.corrupt = true;
        plan.corrupt_byte = f.corrupt_byte;
        break;
    }
  }
  return plan;
}

bool FaultInjector::allow_delivery(SimTime at, const Node& src,
                                   const Node& dst, const Message& msg,
                                   std::uint32_t shard) {
  if (!node_down(dst.id(), at)) return true;
  // The message was in flight when the destination crashed.
  record(at, src.id(), dst.id(),
         "fault.outage_drop(" + std::string(msg.name()) + ")",
         "destination crashed while message was in flight");
  bump("fault/injected/outage_drop", counters_[shard].outage_drops);
  return false;
}

void FaultInjector::note_corrupt_undecodable(Error error, std::uint32_t shard) {
  last_corrupt_error_[shard] = std::move(error);
  bump("fault/injected/decode_error", counters_[shard].decode_errors);
}

void FaultInjector::record(SimTime at, NodeId from, NodeId to,
                           std::string what, std::string detail) {
  net().record_fault(at, from, to, std::move(what), std::move(detail));
}

void FaultInjector::bump(const char* counter_name, std::uint64_t& raw) {
  ++raw;
  ++net().metrics().counter(counter_name);
}

}  // namespace vgprs
