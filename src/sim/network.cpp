#include "sim/network.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "sim/fault.hpp"

namespace vgprs {

namespace {

// "No queued event" sentinel for Shard::next_at / window computation.
constexpr std::int64_t kNeverMicros = std::numeric_limits<std::int64_t>::max();
constexpr SimTime kNever = SimTime::from_micros(kNeverMicros);

// Hands `sink` every element of `runs` in DispatchKey order, then empties
// the runs.  Each run is one shard's buffer and already in key order (a
// shard dispatches in key order, and `sub` rises within a dispatch), so a
// k-way merge over the run heads replaces a sort of their concatenation.
template <typename T, typename Sink>
void merge_runs(const std::vector<std::vector<T>*>& runs, Sink&& sink) {
  struct Head {
    std::vector<T>* run;
    std::size_t pos;
  };
  // The std heap is a max-heap: ordering by "later" keeps the earliest
  // head on top.
  auto later = [](const Head& a, const Head& b) {
    return (*b.run)[b.pos].key < (*a.run)[a.pos].key;
  };
  std::vector<Head> heads;
  for (std::vector<T>* run : runs) {
    if (!run->empty()) heads.push_back({run, 0});
  }
  std::make_heap(heads.begin(), heads.end(), later);
  while (!heads.empty()) {
    std::pop_heap(heads.begin(), heads.end(), later);
    Head& h = heads.back();
    sink(std::move((*h.run)[h.pos]));
    if (++h.pos < h.run->size()) {
      std::push_heap(heads.begin(), heads.end(), later);
    } else {
      heads.pop_back();
    }
  }
  for (std::vector<T>* run : runs) run->clear();
}

// The ONE synchronization point per window of the sharded run loop: a
// sense-reversing barrier over a fixed party of every worker.  The last
// arriver runs `completion` (the window advance) before releasing the
// others, so the release/acquire pair on gen_ publishes the completion's
// plain writes to every worker.  Windows are short (tens of microseconds
// of work), so a bounded spin catches the common release; past that the
// waiter parks on the futex — unbounded yield-spinning on an
// oversubscribed or small-core host turns every barrier into a scheduler
// fight.
class WindowGate {
 public:
  explicit WindowGate(unsigned parties) : parties_(parties) {}

  template <typename F>
  void arrive_and_wait(F&& completion) {
    const unsigned gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_release);
      gen_.notify_all();
      return;
    }
    for (int spin = 0; spin < 256; ++spin) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      std::this_thread::yield();
    }
    unsigned cur = gen_.load(std::memory_order_acquire);
    while (cur == gen) {
      gen_.wait(cur, std::memory_order_acquire);
      cur = gen_.load(std::memory_order_acquire);
    }
  }

 private:
  const unsigned parties_;
  std::atomic<unsigned> arrived_{0};
  std::atomic<unsigned> gen_{0};
};

// Node-arena slab size; a node object is a few hundred bytes, so one slab
// holds hundreds of nodes and a 1M-MS topology needs a few thousand slabs.
constexpr std::size_t kNodeChunkBytes = 256 * 1024;

}  // namespace

thread_local Network::TlCtx Network::tl_ctx_;

Network::Network(std::uint64_t seed) : seed_(seed) {
  // Outbox rings exist only on a sharded network (set_shards allocates
  // them); the sequential engine never routes through a mailbox.
  shards_.push_back(std::make_unique<Shard>(seed));
}

Network::~Network() {
  // Nodes are placement-constructed in the arena; destroy them virtually in
  // reverse attach order, then the slabs go with the arena.
  for (auto it = nodes_.rbegin(); it != nodes_.rend(); ++it) {
    (*it)->~Node();
  }
}

void* Network::NodeArena::allocate(std::size_t size, std::size_t align) {
  auto align_up = [align](std::byte* p) {
    const auto v = reinterpret_cast<std::uintptr_t>(p);
    return reinterpret_cast<std::byte*>((v + align - 1) &
                                        ~std::uintptr_t{align - 1});
  };
  std::byte* p = cur == nullptr ? nullptr : align_up(cur);
  if (p == nullptr || p + size > end) {
    const std::size_t bytes = std::max(kNodeChunkBytes, size + align);
    chunks.push_back(std::make_unique<std::byte[]>(bytes));
    p = align_up(chunks.back().get());
    end = chunks.back().get() + bytes;
  }
  cur = p + size;
  return p;
}

NodeId Network::attach_node(Node* node) {
  assert(node != nullptr);
  if (by_name_.contains(node->name())) {
    throw std::invalid_argument("duplicate node name: " + node->name());
  }
  NodeId id(static_cast<std::uint32_t>(nodes_.size() + 1));
  node->id_ = id;
  node->net_ = this;
  by_name_.emplace(node->name(), id);
  nodes_.push_back(node);
  adjacency_.emplace_back();
  node_shard_.push_back(0);  // core shard unless set_shards says otherwise
  node->on_attached();
  return id;
}

const Network::Adjacency* Network::find_link(NodeId a, NodeId b) const {
  if (!a.valid() || a.value() > adjacency_.size()) return nullptr;
  // Adjacency vectors are kept sorted by peer id (see connect()), so a hub
  // node with tens of thousands of links resolves in O(log degree) instead
  // of a linear scan that made dense-cell setup quadratic.
  const auto& adj = adjacency_[a.value() - 1];
  auto it = std::lower_bound(
      adj.begin(), adj.end(), b,
      [](const Adjacency& x, NodeId id) { return x.peer.value() < id.value(); });
  if (it != adj.end() && it->peer == b) return &*it;
  return nullptr;
}

std::string_view Network::intern_label(std::string_view label) {
  if (label.empty()) return {};
  for (const std::string& s : label_table_) {
    if (s == label) return s;
  }
  label_table_.emplace_back(label);
  return label_table_.back();
}

void Network::connect(NodeId a, NodeId b, LinkProfile profile) {
  assert(a.valid() && b.valid() && a != b);
  assert(a.value() <= nodes_.size() && b.value() <= nodes_.size());
  profile.label = intern_label(profile.label);
  if (const Adjacency* existing = find_link(a, b)) {
    link_profiles_[existing->link] = profile;
    return;
  }
  auto index = static_cast<std::uint32_t>(link_profiles_.size());
  link_profiles_.push_back(profile);
  auto sorted_insert = [this](NodeId from, NodeId peer, std::uint32_t link) {
    auto& adj = adjacency_[from.value() - 1];
    auto pos = std::lower_bound(
        adj.begin(), adj.end(), peer,
        [](const Adjacency& x, NodeId id) { return x.peer.value() < id.value(); });
    adj.insert(pos, Adjacency{peer, link});
  };
  sorted_insert(a, b, index);
  sorted_insert(b, a, index);
}

bool Network::linked(NodeId a, NodeId b) const {
  return find_link(a, b) != nullptr;
}

const LinkProfile* Network::link_between(NodeId a, NodeId b) const {
  const Adjacency* adj = find_link(a, b);
  return adj == nullptr ? nullptr : &link_profiles_[adj->link];
}

void Network::set_link_profile(NodeId a, NodeId b, LinkProfile profile) {
  const Adjacency* adj = find_link(a, b);
  if (adj == nullptr) {
    throw std::invalid_argument("set_link_profile: no such link");
  }
  profile.label = intern_label(profile.label);
  link_profiles_[adj->link] = profile;
}

Node* Network::node(NodeId id) const {
  if (!id.valid() || id.value() > nodes_.size()) return nullptr;
  return nodes_[id.value() - 1];
}

Node* Network::node_by_name(std::string_view name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? nullptr : node(it->second);
}

void Network::register_ip(IpAddress ip, NodeId owner) {
  ip_owners_[ip] = owner;
}

void Network::unregister_ip(IpAddress ip) { ip_owners_.erase(ip); }

NodeId Network::ip_owner(IpAddress ip) const {
  auto it = ip_owners_.find(ip);
  return it == ip_owners_.end() ? NodeId{} : it->second;
}

// --- sharding ---------------------------------------------------------------

void Network::set_shards(const std::vector<std::vector<NodeId>>& groups) {
  if (fault_ != nullptr) {
    throw std::logic_error(
        "set_shards: install faults after sharding, not before");
  }
  if (shards_.size() != 1) {
    throw std::logic_error("set_shards: network is already sharded");
  }
  const Shard& sh0 = *shards_.front();
  if (!sh0.queue.empty() || !sh0.timer_slots.empty() ||
      sh0.now != SimTime::origin() || sh0.next_seq != 1) {
    throw std::logic_error("set_shards: network has already run");
  }
  if (groups.empty()) {
    throw std::invalid_argument("set_shards: no shard groups");
  }
  if (groups.size() >= (std::size_t{1} << (64 - kShardSeqBits))) {
    throw std::invalid_argument("set_shards: too many shards");
  }

  node_shard_.assign(nodes_.size(), 0);
  std::vector<bool> assigned(nodes_.size(), false);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    for (NodeId id : groups[g]) {
      if (!id.valid() || id.value() > nodes_.size()) {
        throw std::invalid_argument("set_shards: invalid node id");
      }
      const std::size_t i = id.value() - 1;
      if (assigned[i]) {
        throw std::invalid_argument("set_shards: node '" + nodes_[i]->name() +
                                    "' listed in two shard groups");
      }
      assigned[i] = true;
      node_shard_[i] = static_cast<std::uint32_t>(g);
    }
  }

  for (std::size_t g = 1; g < groups.size(); ++g) {
    // Distinct, seed-derived stream per shard (golden-ratio stride, the
    // SplitMix64 increment) so shard RNGs never collide; shard 0 keeps the
    // Network's own stream, which is what the sequential engine uses.
    auto sh = std::make_unique<Shard>(seed_ + 0x9E3779B97F4A7C15ULL *
                                                 static_cast<std::uint64_t>(g));
    sh->index = static_cast<std::uint32_t>(g);
    shards_.push_back(std::move(sh));
  }
  for (auto& sh : shards_) {
    sh->outbox = std::make_unique<OutboxRing[]>(shards_.size());
  }
}

void Network::set_workers(unsigned workers) {
  if (workers == 0) {
    workers = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_ = workers;
}

std::vector<std::vector<NodeId>> Network::plan_shards(
    std::size_t target_shards, std::span<const NodeId> core) const {
  std::vector<std::vector<NodeId>> plan(1);  // groups[0]: the implicit core
  const std::size_t n = nodes_.size();
  if (target_shards < 2 || n < 2) return plan;

  std::vector<bool> is_core(n, false);
  if (core.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < n; ++i) {
      if (adjacency_[i].size() > adjacency_[best].size()) best = i;
    }
    is_core[best] = true;
  } else {
    for (NodeId id : core) {
      if (!id.valid() || id.value() > n) {
        throw std::invalid_argument("plan_shards: invalid core node id");
      }
      is_core[id.value() - 1] = true;
    }
  }

  // Connected components of the residual graph, packed whole into shards.
  // Weight proxies the shard's event rate by link count: every adjacency is
  // a traffic source, and +1 keeps even a linkless node from packing as
  // free.
  struct Group {
    std::vector<std::uint32_t> members;  // node indices
    std::size_t weight = 0;
  };
  std::vector<Group> comps;
  std::vector<bool> seen(n, false);
  std::vector<std::uint32_t> stack;
  for (std::size_t i = 0; i < n; ++i) {
    if (seen[i] || is_core[i]) continue;
    Group c;
    stack.push_back(static_cast<std::uint32_t>(i));
    seen[i] = true;
    while (!stack.empty()) {
      const std::uint32_t v = stack.back();
      stack.pop_back();
      c.members.push_back(v);
      c.weight += adjacency_[v].size() + 1;
      for (const Adjacency& adj : adjacency_[v]) {
        const std::uint32_t p = adj.peer.value() - 1;
        if (!seen[p] && !is_core[p]) {
          seen[p] = true;
          stack.push_back(p);
        }
      }
    }
    std::sort(c.members.begin(), c.members.end());
    comps.push_back(std::move(c));
  }
  if (comps.empty()) return plan;

  // LPT bin packing: heaviest component first (ties toward the
  // earliest-created node) into the lightest bin (ties toward the lowest
  // bin) — greedy, deterministic, within 4/3 of optimal.
  std::sort(comps.begin(), comps.end(), [](const Group& a, const Group& b) {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.members.front() < b.members.front();
  });
  std::vector<Group> bins(std::min(target_shards - 1, comps.size()));
  for (const Group& p : comps) {
    std::size_t lightest = 0;
    for (std::size_t b = 1; b < bins.size(); ++b) {
      if (bins[b].weight < bins[lightest].weight) lightest = b;
    }
    bins[lightest].members.insert(bins[lightest].members.end(),
                                  p.members.begin(), p.members.end());
    bins[lightest].weight += p.weight;
  }

  // Shard order follows node-creation order (smallest member id): sequence
  // numbers pack the shard index in their high bits, so this is what keeps
  // sharded tie-breaks identical to the sequential engine's.
  for (Group& b : bins) std::sort(b.members.begin(), b.members.end());
  std::sort(bins.begin(), bins.end(), [](const Group& a, const Group& b) {
    return a.members.front() < b.members.front();
  });
  for (const Group& b : bins) {
    std::vector<NodeId> group;
    group.reserve(b.members.size());
    for (const std::uint32_t v : b.members) group.emplace_back(v + 1);
    plan.push_back(std::move(group));
  }
  return plan;
}

std::vector<ShardPerfStats> Network::shard_perf() const {
  std::vector<ShardPerfStats> out;
  out.reserve(shards_.size());
  for (const auto& sh : shards_) out.push_back(sh->perf);
  return out;
}

void Network::compute_shard_lookaheads() {
  // Sentinel: a shard with no cross-shard links (an island) promises never
  // to disturb its peers, so it never constrains the window.
  shard_la_us_.assign(shards_.size(), kNeverMicros / 4);
  for (std::size_t i = 0; i < adjacency_.size(); ++i) {
    const std::uint32_t sa = node_shard_[i];
    for (const Adjacency& adj : adjacency_[i]) {
      if (adj.peer.value() <= i + 1) continue;  // visit each link once
      const std::uint32_t sb = shard_of(adj.peer);
      if (sb == sa) continue;
      const std::int64_t us = link_profiles_[adj.link].latency.count_micros();
      if (us <= 0) {
        throw std::logic_error(
            "sharded engine: cross-shard link between '" + nodes_[i]->name() +
            "' and '" + nodes_[adj.peer.value() - 1]->name() +
            "' must have positive latency (it bounds the lookahead)");
      }
      shard_la_us_[sa] = std::min(shard_la_us_[sa], us);
      shard_la_us_[sb] = std::min(shard_la_us_[sb], us);
    }
  }
}

// --- messaging --------------------------------------------------------------

void Network::route_event(Shard& origin, bool buffered, Event ev) {
  if (shards_.size() == 1) {
    origin.queue.push(std::move(ev));
    return;
  }
  const std::uint32_t dest = shard_of(ev.to);
  if (dest == origin.index) {
    origin.queue.push(std::move(ev));
  } else if (buffered) {
    // Mid-window cross-shard send: staged in the origin's SPSC ring and made
    // visible to the destination in one release-commit at the window barrier.
    // Conservative-safe: ev.at >= origin.now + lookahead >= window end.
    OutboxRing& ring = origin.outbox[dest];
    if (!ring.has_staged()) origin.outbox_touched.push_back(dest);
    ring.push(std::move(ev));
  } else {
    // Single-threaded stimulus between runs goes straight in.
    shards_[dest]->queue.push(std::move(ev));
  }
}

void Network::send(NodeId from, NodeId to, MessagePtr msg,
                   SimDuration extra_delay) {
  assert(msg != nullptr);
  Shard& sh = cur();
  const bool buffered = in_sharded_dispatch();
  Node* src = node(from);
  Node* dst = node(to);
  if (src == nullptr || dst == nullptr) {
    throw std::logic_error("send: invalid endpoint for " +
                           std::string(msg->name()));
  }
  const LinkProfile* link = link_between(from, to);
  if (link == nullptr) {
    throw std::logic_error("send: no link " + src->name() + " <-> " +
                           dst->name() + " for " + std::string(msg->name()));
  }
  ++sh.stats.messages_sent;

  if (link->loss_probability > 0.0 &&
      sh.rng.bernoulli(link->loss_probability)) {
    ++sh.stats.messages_dropped;
    VG_DEBUG("net", "DROP " << src->name() << " -> " << dst->name() << " "
                            << msg->name());
    return;
  }

  bool fi_duplicate = false;
  bool fi_corrupt = false;
  std::int32_t fi_corrupt_byte = -1;
  if (fault_ != nullptr) [[unlikely]] {
    FaultInjector::SendPlan plan =
        fault_->plan_send(sh.now, *src, *dst, *msg, sh.index);
    if (plan.drop) {
      ++sh.stats.messages_dropped;
      return;
    }
    if (plan.corrupt && !serialize_links_) {
      // No wire image to damage; a mangled frame the link never serialized
      // degrades to a loss.
      ++sh.stats.messages_dropped;
      return;
    }
    fi_duplicate = plan.duplicate;
    fi_corrupt = plan.corrupt;
    fi_corrupt_byte = plan.corrupt_byte;
    extra_delay += plan.extra_delay;
  }

  MessagePtr delivered = std::move(msg);
  if (serialize_links_) {
    // Encode into the shard's reusable scratch buffer and decode from a
    // span view of it: after warm-up this round-trip performs no heap
    // allocation beyond what the decoded message itself needs.
    sh.scratch.clear();
    delivered->encode_to(sh.scratch);
    sh.stats.bytes_on_wire += sh.scratch.size();
    if (fi_corrupt) [[unlikely]] {
      // A fault-injected bit flip: damage a copy of the wire image and
      // deliver whatever the receiving codec makes of it.  A decode
      // rejection is the simulated checksum failure — the frame is
      // discarded, the sender's recovery machinery must cope.
      std::vector<std::uint8_t> wire = sh.scratch.data();
      std::size_t pos =
          (fi_corrupt_byte >= 0 &&
           static_cast<std::size_t>(fi_corrupt_byte) < wire.size())
              ? static_cast<std::size_t>(fi_corrupt_byte)
              : static_cast<std::size_t>(sh.rng.next_below(wire.size()));
      wire[pos] ^= 0xFF;
      auto decoded = MessageRegistry::instance().decode(wire);
      if (!decoded.ok()) {
        fault_->note_corrupt_undecodable(decoded.error(), sh.index);
        ++sh.stats.messages_dropped;
        return;
      }
      delivered = std::move(decoded).value();
    } else {
      auto decoded = MessageRegistry::instance().decode(sh.scratch.data());
      if (!decoded.ok()) {
        throw std::logic_error("codec round-trip failed for " +
                               std::string(delivered->name()) + ": " +
                               decoded.error().to_string());
      }
      delivered = std::move(decoded).value();
    }
  }

  SimDuration delay = link->latency + extra_delay;
  if (link->jitter > SimDuration::zero()) {
    delay += SimDuration::micros(static_cast<std::int64_t>(
        sh.rng.next_below(static_cast<std::uint64_t>(
            link->jitter.count_micros()))));
  }

  Event ev;
  ev.at = sh.now + delay;
  ev.sent_at = sh.now;
  ev.seq = alloc_seq(sh);
  ev.msg = delivered;
  ev.from = from;
  ev.to = to;
  route_event(sh, buffered, std::move(ev));

  if (fi_duplicate) [[unlikely]] {
    // Messages are immutable once sent, so the duplicate shares the decoded
    // instance; it arrives back-to-back with the original (same timestamp,
    // later seq), as a retransmitting link layer would deliver it.
    Event dup;
    dup.at = sh.now + delay;
    dup.sent_at = sh.now;
    dup.seq = alloc_seq(sh);
    dup.msg = std::move(delivered);
    dup.from = from;
    dup.to = to;
    route_event(sh, buffered, std::move(dup));
  }
}

TimerId Network::set_timer(NodeId target, SimDuration delay,
                           std::uint64_t cookie) {
  Shard& origin = cur();
  Shard& home =
      shards_.size() > 1 ? *shards_[shard_of(target)] : origin;
  // Nodes only arm timers on themselves, so a sharded dispatch never
  // touches another shard's timer table; stimulus code between runs may
  // (single-threaded, so that's fine).
  assert(!in_sharded_dispatch() || &home == &origin);

  std::uint32_t slot;
  if (home.timer_free_head != 0) {
    slot = home.timer_free_head - 1;
    home.timer_free_head = home.timer_slots[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(home.timer_slots.size());
    if (slot >= (1u << 24)) {
      // TimerId packs the slot into 24 bits; 16M concurrently armed timers
      // per shard means something is leaking.
      throw std::length_error("set_timer: timer slot space exhausted");
    }
    home.timer_slots.emplace_back();
  }
  TimerSlot& ts = home.timer_slots[slot];
  // Retires every TimerId this slot handed out before.  Generation 0 is
  // skipped so that no armed timer's id is 0, which means "no timer".
  if (++ts.generation == 0) ts.generation = 1;
  ts.armed = true;

  Event ev;
  ev.at = origin.now + delay;
  ev.sent_at = origin.now;
  ev.seq = alloc_seq(origin);
  ev.timer_cookie = cookie;
  ev.to = target;
  ev.timer_slot = slot;
  ev.timer_gen = ts.generation;
  home.queue.push(std::move(ev));
  return (std::uint64_t{home.index} << 56) | (std::uint64_t{slot} << 32) |
         ts.generation;
}

void Network::release_timer_slot(Shard& sh, std::uint32_t slot) {
  TimerSlot& ts = sh.timer_slots[slot];
  ts.armed = false;
  ts.next_free = sh.timer_free_head;
  sh.timer_free_head = slot + 1;
}

void Network::cancel_timer(TimerId id) {
  // 0 is "no timer": a node cancelling a timer it never armed must not
  // touch shard 0's slot table from another shard's thread.
  if (id == 0) return;
  const auto shard = static_cast<std::uint32_t>(id >> 56);
  const auto slot = static_cast<std::uint32_t>((id >> 32) & 0xFFFFFFu);
  const auto gen = static_cast<std::uint32_t>(id);
  if (shard >= shards_.size()) return;
  Shard& home = *shards_[shard];
  if (slot >= home.timer_slots.size()) return;
  const TimerSlot& ts = home.timer_slots[slot];
  // Stale ids (already fired, already cancelled, or slot since reused)
  // fail this check; nothing is recorded, so nothing can leak.
  if (!ts.armed || ts.generation != gen) return;
  release_timer_slot(home, slot);
}

// --- execution --------------------------------------------------------------

void Network::add_record(Shard& sh, bool buffered, NodeId from, NodeId to,
                         MessagePtr msg) {
  DispatchKey key = sh.cur_key;
  key.sub = sh.cur_key.sub++;
  TraceRecord r{key, from, to, std::move(msg)};
  if (buffered) {
    sh.trace_buf.push_back(std::move(r));
  } else {
    trace_.record(std::move(r));
  }
}

void Network::record_fault(SimTime at, NodeId from, NodeId to,
                           std::string what, std::string detail) {
  if (!trace_.enabled()) return;
  add_record(cur(), in_sharded_dispatch(), from, to,
             pool_message<TraceNote>(at, std::move(what), std::move(detail)));
}

void Network::dispatch(Event ev, Shard& sh, bool buffered) {
  sh.now = ev.at;
  // Trace records and (during a sharded run) span operations are ordered
  // by this key; see dispatch_key.hpp.
  sh.cur_key = DispatchKey{ev.at, ev.sent_at, ev.seq, 0};
  if (ev.msg == nullptr) {  // timer or fault-transition event
    if (ev.timer_slot == kFaultSlot) [[unlikely]] {
      ++sh.stats.timers_fired;
      fault_->transition(ev.timer_cookie);
      return;
    }
    const TimerSlot& ts = sh.timer_slots[ev.timer_slot];
    if (!ts.armed || ts.generation != ev.timer_gen) return;  // cancelled
    release_timer_slot(sh, ev.timer_slot);
    if (fault_ != nullptr && fault_->node_down(ev.to, ev.at)) [[unlikely]] {
      return;  // the target is mid-outage; its pending timers die with it
    }
    ++sh.stats.timers_fired;
    Node* target = node(ev.to);
    assert(target != nullptr);
    target->on_timer((std::uint64_t{sh.index} << 56) |
                         (std::uint64_t{ev.timer_slot} << 32) | ev.timer_gen,
                     ev.timer_cookie);
    return;
  }
  Node* src = node(ev.from);
  Node* dst = node(ev.to);
  assert(src != nullptr && dst != nullptr);
  if (fault_ != nullptr &&
      !fault_->allow_delivery(ev.at, *src, *dst, *ev.msg, sh.index))
      [[unlikely]] {
    ++sh.stats.messages_dropped;
    return;
  }
  ++sh.stats.messages_delivered;
  if (trace_.enabled()) {
    // The record is the key, the endpoint ids and a reference to the
    // delivered message: no strings.  Names and the parameter summary are
    // resolved only when the trace is read.
    add_record(sh, buffered, ev.from, ev.to, ev.msg);
  }
  if (spans_.enabled()) {
    // Hop attribution: one predictable branch when spans are off; when on,
    // the virtual correlation() extracts the id without any string work.
    // (Deferred through the shard's op buffer during a sharded run.)
    if (const std::uint64_t corr = ev.msg->correlation(); corr != 0) {
      spans_.attribute_delivery(corr);
    }
  }
  VG_DEBUG("net", src->name() << " -> " << dst->name() << " "
                              << ev.msg->summary());
  Envelope env{ev.at, ev.from, ev.to, std::move(ev.msg)};
  dst->on_message(env);
}

std::size_t Network::run_sequential(SimTime limit) {
  Shard& sh = *shards_.front();
  std::size_t processed = 0;
  while (!sh.queue.empty() && sh.queue.top().at <= limit) {
    dispatch(sh.queue.pop(), sh, false);
    ++processed;
  }
  return processed;
}

void Network::process_window(Shard& sh, SimTime t_end) {
  // Route this thread's engine entry points (now/rng/metrics/send/timers)
  // and the span tracker's mutations at the shard for the window's
  // duration; the guard survives exceptions out of node code.
  struct CtxGuard {
    ~CtxGuard() {
      SpanTracker::clear_thread_sink();
      tl_ctx_ = TlCtx{};
    }
  } guard;
  tl_ctx_ = TlCtx{this, &sh};
  SpanTracker::set_thread_sink(&spans_, &sh.span_ops, &sh.cur_key);
  std::size_t before = sh.processed;
  while (!sh.queue.empty() && sh.queue.top().at < t_end) {
    dispatch(sh.queue.pop(), sh, true);
    ++sh.processed;
  }
  if (sh.processed != before) {
    ++sh.perf.windows;
    sh.perf.events += sh.processed - before;
  }
}

void Network::drain_inboxes(Shard& sh) {
  // Pull every producer's committed-but-undrained events into the heap.
  // Commits were released before the barrier that started this window, so
  // the acquire inside drain_into observes complete Event objects.
  for (auto& other : shards_) {
    other->outbox[sh.index].drain_into(sh.queue);
  }
  sh.next_at = sh.queue.empty() ? kNever : sh.queue.top().at;
}

void Network::commit_outboxes(Shard& sh) {
  for (std::uint32_t d : sh.outbox_touched) sh.outbox[d].commit();
  sh.outbox_touched.clear();
}

void Network::merge_shard_buffers() {
  // Interleave the shards' records and span operations into the order the
  // sequential engine records and applies them in.
  std::vector<std::vector<TraceRecord>*> records;
  std::vector<std::vector<SpanTracker::Op>*> ops;
  for (auto& sh : shards_) {
    records.push_back(&sh->trace_buf);
    ops.push_back(&sh->span_ops);
  }
  merge_runs(records, [this](TraceRecord&& r) { trace_.record(std::move(r)); });
  merge_runs(ops, [this](SpanTracker::Op&& op) { spans_.apply(op); });

  for (auto& sh : shards_) {
    metrics_.fold_from(sh->metrics);
    sh->metrics.clear();
  }

  if (shard_stats_) {
    // Wall-clock profile instruments.  Gated: these are scheduling-dependent
    // and must never reach a determinism-checked snapshot.
    for (auto& sh : shards_) {
      const ShardPerfStats& p = sh->perf;
      const std::string pre = "shard/" + std::to_string(sh->index) + "/";
      metrics_.counter(pre + "windows") = static_cast<std::int64_t>(p.windows);
      metrics_.counter(pre + "events") = static_cast<std::int64_t>(p.events);
      metrics_.counter(pre + "busy_ns") = static_cast<std::int64_t>(p.busy_ns);
      metrics_.counter(pre + "drain_ns") =
          static_cast<std::int64_t>(p.drain_ns);
      metrics_.counter(pre + "barrier_ns") =
          static_cast<std::int64_t>(p.barrier_ns);
    }
  }
}

std::size_t Network::run_windowed(SimTime limit) {
  compute_shard_lookaheads();
  const auto num_shards = static_cast<unsigned>(shards_.size());
  const unsigned W = std::min(workers_, num_shards);

  for (auto& sh : shards_) {
    sh->metrics.set_enabled(metrics_.enabled());
    sh->processed = 0;
    sh->next_at = sh->queue.empty() ? kNever : sh->queue.top().at;
  }

  // Worker w owns every shard s with s % W == w, all windows long — a
  // shard's events are always executed by the same thread, in the same heap
  // order, whatever W is; only wall-clock interleaving changes.
  //
  // t_end and done are plain fields: only advance() writes them, while every
  // other worker waits at the gate, and workers read them after release.
  struct Ctl {
    SimTime t_end;
    bool done = false;
    std::exception_ptr error;
    std::mutex error_mu;
  } ctl;
  std::vector<std::int64_t> eff_next_us(num_shards);

  // The serial slice of the window protocol, run once per window by the
  // single barrier's last arriver.  Adaptive conservative window: shard s,
  // whose earliest pending event is at eff_next_s, cannot make anything
  // arrive at a peer before eff_next_s + la_s (la_s = min latency of s's
  // cross-shard links).  The window end is the greatest E with
  // E <= eff_next_s + la_s for every shard *active* below it
  // (eff_next_s < E) — found by a monotone-decreasing fixed-point iteration
  // from the cap.  Idle and island shards drop out of the min, so a
  // low-latency link between dormant shards no longer throttles everyone;
  // with no active cross-shard constraint at all, one window runs to the
  // limit.
  //
  // eff_next_s folds in committed-but-undrained ring events (an owner only
  // drains at its next window start).  Reading the rings here is safe:
  // commit records are producer-written during the window and
  // advance-read at the barrier, when every producer is quiescent.
  auto advance = [&] {
    {
      std::lock_guard<std::mutex> lock(ctl.error_mu);
      if (ctl.error) {
        ctl.done = true;
        return;
      }
    }
    for (std::uint32_t d = 0; d < num_shards; ++d) {
      std::int64_t eff = shards_[d]->next_at.count_micros();
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        if (s == d) continue;
        eff = std::min(eff, shards_[s]->outbox[d].undrained_min_us());
      }
      eff_next_us[d] = eff;
    }
    std::int64_t t_us = kNeverMicros;
    for (std::uint32_t d = 0; d < num_shards; ++d)
      t_us = std::min(t_us, eff_next_us[d]);
    if (t_us >= kNeverMicros || t_us > limit.count_micros()) {
      ctl.done = true;
      return;
    }
    // Cap one tick past the (inclusive) limit; all arithmetic saturates.
    const std::int64_t cap_us =
        limit.count_micros() >= kNeverMicros ? kNeverMicros
                                             : limit.count_micros() + 1;
    std::int64_t end_us = cap_us;
    for (;;) {
      std::int64_t next_us = cap_us;
      for (std::uint32_t s = 0; s < num_shards; ++s) {
        const std::int64_t at_us = eff_next_us[s];
        if (at_us >= end_us) continue;  // inactive below the current window
        const std::int64_t la_us = shard_la_us_[s];
        const std::int64_t promise =
            at_us > kNeverMicros - la_us ? kNeverMicros : at_us + la_us;
        next_us = std::min(next_us, promise);
      }
      if (next_us == end_us) break;
      end_us = next_us;  // strictly decreasing: converges in <= #shards steps
    }
    // The shard holding the global minimum T contributes T + la > T, so the
    // window always admits at least one event and the loop makes progress.
    ctl.t_end = SimTime::from_micros(end_us);
  };

  advance();
  if (!ctl.done) {
    WindowGate gate(W);
    auto perf_now = [] {
      return std::chrono::steady_clock::now();
    };
    auto worker = [&](unsigned w) {
      while (!ctl.done) {
        // Per-shard spans are timed individually (only when stats are on):
        // attributing one sweep-wide span to every owned shard would
        // overcount by the owned-shard count and make the report's totals
        // exceed wall time.
        for (std::uint32_t s = w; s < num_shards; s += W) {
          const auto t0 =
              shard_stats_ ? perf_now() : std::chrono::steady_clock::time_point{};
          drain_inboxes(*shards_[s]);
          if (shard_stats_) {
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                perf_now() - t0)
                                .count();
            shards_[s]->perf.drain_ns += static_cast<std::uint64_t>(ns);
          }
        }
        const SimTime t_end = ctl.t_end;
        for (std::uint32_t s = w; s < num_shards; s += W) {
          const auto t0 =
              shard_stats_ ? perf_now() : std::chrono::steady_clock::time_point{};
          try {
            process_window(*shards_[s], t_end);
          } catch (...) {
            // Keep participating in the barrier (abandoning would wedge
            // the other workers); the next advance() sees the error and
            // stops everyone.
            std::lock_guard<std::mutex> lock(ctl.error_mu);
            if (!ctl.error) ctl.error = std::current_exception();
          }
          if (shard_stats_) {
            const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                                perf_now() - t0)
                                .count();
            shards_[s]->perf.busy_ns += static_cast<std::uint64_t>(ns);
          }
        }
        for (std::uint32_t s = w; s < num_shards; s += W) {
          Shard& sh = *shards_[s];
          commit_outboxes(sh);
          sh.next_at = sh.queue.empty() ? kNever : sh.queue.top().at;
        }
        const auto t0 = perf_now();
        gate.arrive_and_wait(advance);
        if (shard_stats_) {
          const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              perf_now() - t0)
                              .count();
          for (std::uint32_t s = w; s < num_shards; s += W)
            shards_[s]->perf.barrier_ns += static_cast<std::uint64_t>(ns);
        }
      }
    };
    if (W == 1) {
      worker(0);
    } else {
      std::vector<std::thread> threads;
      threads.reserve(W - 1);
      for (unsigned w = 1; w < W; ++w) threads.emplace_back(worker, w);
      worker(0);
      for (std::thread& th : threads) th.join();
    }
  }

  // Equalize clocks so now() is single-valued for stimulus between runs
  // (the sequential engine's now_ is the last dispatched event's time).
  SimTime max_now = SimTime::origin();
  for (auto& sh : shards_) max_now = std::max(max_now, sh->now);
  for (auto& sh : shards_) sh->now = max_now;

  merge_shard_buffers();

  if (ctl.error) std::rethrow_exception(ctl.error);
  std::size_t processed = 0;
  for (auto& sh : shards_) processed += sh->processed;
  return processed;
}

std::size_t Network::run_until_idle(SimTime limit) {
  return shards_.size() == 1 ? run_sequential(limit) : run_windowed(limit);
}

std::size_t Network::run_until(SimTime deadline) {
  std::size_t processed = run_until_idle(deadline);
  for (auto& sh : shards_) {
    if (sh->now < deadline) sh->now = deadline;
  }
  return processed;
}

bool Network::idle() const {
  for (const auto& sh : shards_) {
    if (!sh->queue.empty()) return false;
  }
  if (shards_.size() > 1) {
    // A deadline-bounded run can end with events committed to an outbox
    // ring but not yet drained into the destination heap.
    for (const auto& sh : shards_) {
      for (std::size_t d = 0; d < shards_.size(); ++d) {
        if (!sh->outbox[d].empty_quiescent()) return false;
      }
    }
  }
  return true;
}

// --- fault injection --------------------------------------------------------

void Network::push_fault_event(SimTime at, std::uint64_t cookie,
                               NodeId target) {
  Shard& origin = *shards_.front();  // installation is a stimulus-time act
  Shard& home = shards_.size() > 1 ? *shards_[shard_of(target)] : origin;
  Event ev;
  ev.at = std::max(at, origin.now);
  ev.sent_at = origin.now;
  ev.seq = alloc_seq(home);
  ev.timer_cookie = cookie;
  ev.to = target;
  ev.timer_slot = kFaultSlot;
  home.queue.push(std::move(ev));
}

FaultInjector& Network::install_faults(FaultSchedule schedule) {
  if (fault_ != nullptr) {
    throw std::logic_error(
        "install_faults: a fault injector is already installed");
  }
  FaultInjector& injector = add<FaultInjector>(std::move(schedule));
  fault_ = &injector;
  // Crash/restart/link transitions ride the event queue of the shard whose
  // node they affect, so on_restart() runs on the owning worker.
  for (const FaultInjector::Transition& t : injector.transitions()) {
    push_fault_event(t.at, t.cookie, t.target);
  }
  return injector;
}

// --- observability ----------------------------------------------------------

void Network::enable_capture() {
  if (!trace_.enabled()) trace_.set_mode(TraceMode::kFull);
  capture_spans_.clear();
  spans_.set_observer(&capture_spans_);
}

void Network::disable_capture() {
  if (capture_enabled()) spans_.set_observer(nullptr);
  capture_spans_.clear();
}

void Network::write_capture_segment(std::ostream& out, std::string_view system,
                                    std::uint64_t events,
                                    const MetricsSnapshot& snapshot) {
  if (!capture_enabled()) {
    throw std::logic_error("write_capture_segment: capture is not enabled");
  }

  ByteWriter p;
  std::vector<std::uint8_t> blob;
  auto record = [&](BtraceRecord kind) {
    append_btrace_record(blob, kind, p.data());
    p.clear();
  };

  p.str(system);
  p.u32(static_cast<std::uint32_t>(shards_.size()));
  record(BtraceRecord::kRunBegin);

  // Node-name intern table, written once per segment: steady-state kTrace
  // records carry only NodeId integers.
  p.u32(static_cast<std::uint32_t>(nodes_.size()));
  for (const auto& n : nodes_) {
    p.u32(n->id().value());
    p.str(n->name());
  }
  record(BtraceRecord::kNodeTable);

  const MessageRegistry& reg = MessageRegistry::instance();
  const std::vector<std::uint16_t> types = reg.types();
  p.u32(static_cast<std::uint32_t>(types.size()));
  for (std::uint16_t t : types) {
    p.u16(t);
    p.str(reg.name_of(t));
  }
  record(BtraceRecord::kMsgTable);

  // One section per engine shard, as v1 lays a segment out.  The trace is
  // already merged, so the first section holds all of it; nothing is ever
  // dropped.
  for (const auto& sh : shards_) {
    p.u32(sh->index);
    p.u64(0);
    p.u64(0);
    record(BtraceRecord::kShardBegin);
    if (sh->index == 0) append_btrace_trace(blob, trace_);
  }

  const std::vector<std::uint8_t>& spans = capture_spans_.bytes();
  blob.insert(blob.end(), spans.begin(), spans.end());
  for (const auto& [name, v] : snapshot.counters) {
    p.str(name);
    p.u64(static_cast<std::uint64_t>(v));
    record(BtraceRecord::kMetricCounter);
  }
  for (const auto& [name, v] : snapshot.gauges) {
    p.str(name);
    p.f64(v);
    record(BtraceRecord::kMetricGauge);
  }
  for (const auto& [name, h] : snapshot.histograms) {
    p.str(name);
    p.u64(h.count);
    p.f64(h.min);
    p.f64(h.max);
    p.f64(h.mean);
    p.f64(h.p50);
    p.f64(h.p95);
    p.f64(h.p99);
    record(BtraceRecord::kMetricHist);
  }
  p.u8(1);  // the v1 layout's primary flag; always set
  p.u64(events);
  p.u64(static_cast<std::uint64_t>(now().count_micros()));
  record(BtraceRecord::kRunEnd);

  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));

  // The segment is on disk; the next one logs its own span operations.
  capture_spans_.clear();
}

NetworkStats Network::stats() const {
  NetworkStats out;
  for (const auto& sh : shards_) {
    out.messages_sent += sh->stats.messages_sent;
    out.messages_delivered += sh->stats.messages_delivered;
    out.messages_dropped += sh->stats.messages_dropped;
    out.bytes_on_wire += sh->stats.bytes_on_wire;
    out.timers_fired += sh->stats.timers_fired;
  }
  return out;
}

MetricsRegistry& Network::metrics() {
  return in_sharded_dispatch() ? cur().metrics : metrics_;
}

MetricsSnapshot Network::metrics_snapshot() {
  // The engine counters are plain u64 increments on the hot path; sync them
  // into named instruments only when somebody asks for a snapshot.
  const NetworkStats s = stats();
  metrics_.counter("net/messages_sent") =
      static_cast<std::int64_t>(s.messages_sent);
  metrics_.counter("net/messages_delivered") =
      static_cast<std::int64_t>(s.messages_delivered);
  metrics_.counter("net/messages_dropped") =
      static_cast<std::int64_t>(s.messages_dropped);
  metrics_.counter("net/bytes_on_wire") =
      static_cast<std::int64_t>(s.bytes_on_wire);
  metrics_.counter("net/timers_fired") =
      static_cast<std::int64_t>(s.timers_fired);
  metrics_.gauge("net/sim_time_ms") = now().as_millis();
  return metrics_.snapshot();
}

// --- Node helper implementations (need the full Network type) -------------

void Node::send(NodeId to, MessagePtr msg, SimDuration extra_delay) {
  net_->send(id_, to, std::move(msg), extra_delay);
}

TimerId Node::set_timer(SimDuration delay, std::uint64_t cookie) {
  return net_->set_timer(id_, delay, cookie);
}

void Node::cancel_timer(TimerId id) { net_->cancel_timer(id); }

SimTime Node::now() const { return net_->now(); }

NodeId Node::peer(std::string_view name) const {
  Node* n = net_->node_by_name(name);
  if (n == nullptr) {
    throw std::logic_error(name_ + ": no node " + std::string(name));
  }
  return n->id();
}

}  // namespace vgprs
