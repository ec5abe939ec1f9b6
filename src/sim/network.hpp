// Network: the discrete-event simulator core.  Owns the nodes, the links
// (with latency / jitter / loss), the event queue, the trace recorder and
// the deterministic RNG.  All simulated communication flows through
// Network::send so every delivery is traced and, by default, round-tripped
// through the wire codecs.
//
// Hot-path design (see DESIGN.md "Simulator internals"):
//  * the event queue is a move-friendly 4-ary heap over small event
//    records — no Event copy on pop;
//  * timers are cancelled by generation check against a slot table, so a
//    cancel after the timer fired (or a double cancel) is a cheap no-op
//    instead of an entry in an ever-growing set;
//  * the wire round-trip encodes into a reusable scratch ByteWriter and
//    decodes from a span view of it — zero steady-state allocations;
//  * topology is per-node adjacency lists, so link lookup is O(degree)
//    with no hashing;
//  * link labels are interned into a per-Network table, so LinkProfile is
//    trivially copyable and profile churn never allocates.
//
// Sharded execution (see DESIGN.md "Sharded engine"): set_shards()
// partitions the topology along its seams; each shard owns a private event
// heap, timer table, RNG, scratch buffer and observability buffers, and
// set_workers(N) runs the shards on N threads under adaptive conservative
// time windows bounded by the active shards' cross-shard link latencies.
// Execution is deterministic and thread-count-invariant: a fixed seed
// yields byte-identical traces, metrics and spans for 1, 2 or N workers.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/rng.hpp"
#include "sim/btrace.hpp"
#include "sim/dispatch_key.hpp"
#include "sim/event_heap.hpp"
#include "sim/metrics.hpp"
#include "sim/node.hpp"
#include "sim/span.hpp"
#include "sim/trace.hpp"

namespace vgprs {

class FaultInjector;
struct FaultSchedule;

/// Propagation + transmission characteristics of one link.  Latencies are
/// one-way; jitter adds uniform [0, jitter) to each traversal; loss drops
/// the message entirely (the sender's procedure timer must recover).
/// The label views into the owning Network's intern table (connect() and
/// set_link_profile() intern whatever label they are handed), so copying a
/// profile never copies a string.
struct LinkProfile {
  SimDuration latency = SimDuration::millis(1);
  SimDuration jitter = SimDuration::zero();
  double loss_probability = 0.0;
  std::string_view label;  // e.g. "Um", "Abis", "A", "Gb", "Gn", "intl-trunk"
};

/// Cumulative counters for one run (summed across shards).
struct NetworkStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t bytes_on_wire = 0;
  std::uint64_t timers_fired = 0;
};

/// Per-shard execution profile of the windowed engine, accumulated across
/// runs.  `windows`/`events` are deterministic (derived from the window
/// protocol, which is worker-count-invariant); the *_ns wall-clock timers
/// are only collected when enable_shard_stats(true) was called and are
/// inherently scheduling-dependent.  barrier_ns is measured per worker and
/// attributed to every shard that worker owns.  `fused_windows` and
/// `idle_ns` always read 0: every worker meets every window's rendezvous,
/// so no window is skipped and no worker parks.  The fields stay because
/// the benchmark harness (perfbench) still reads them.
struct ShardPerfStats {
  std::uint64_t windows = 0;        // windows in which >= 1 event dispatched
  std::uint64_t events = 0;         // events dispatched
  std::uint64_t fused_windows = 0;  // always 0 (see above)
  std::uint64_t busy_ns = 0;        // dispatching events
  std::uint64_t drain_ns = 0;       // inbox drain + outbox commit
  std::uint64_t barrier_ns = 0;     // waiting at the window rendezvous
  std::uint64_t idle_ns = 0;        // always 0 (see above)
};

class Network {
 public:
  explicit Network(std::uint64_t seed = 1);
  ~Network();

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology -----------------------------------------------------------

  /// Constructs a node in the network's node arena (contiguous slabs — a
  /// million-node cell population is chunked storage, not a million heap
  /// objects) and attaches it.  Nodes live until the Network is destroyed.
  template <typename T, typename... Args>
  T& add(Args&&... args) {
    static_assert(std::is_base_of_v<Node, T>);
    void* mem = node_arena_.allocate(sizeof(T), alignof(T));
    T* node = ::new (mem) T(std::forward<Args>(args)...);
    try {
      attach_node(node);
    } catch (...) {
      node->~T();  // arena block is reclaimed with the network
      throw;
    }
    return *node;
  }

  /// Creates a bidirectional link between two nodes (replaces the profile
  /// if the pair is already linked).
  void connect(NodeId a, NodeId b, LinkProfile profile);
  void connect(const Node& a, const Node& b, LinkProfile profile) {
    connect(a.id(), b.id(), profile);
  }

  [[nodiscard]] bool linked(NodeId a, NodeId b) const;
  [[nodiscard]] const LinkProfile* link_between(NodeId a, NodeId b) const;
  /// Replaces the profile of an existing link (for sweeps).
  void set_link_profile(NodeId a, NodeId b, LinkProfile profile);

  [[nodiscard]] Node* node(NodeId id) const;
  [[nodiscard]] Node* node_by_name(std::string_view name) const;

  template <typename T>
  [[nodiscard]] T* find(std::string_view name) const {
    return dynamic_cast<T*>(node_by_name(name));
  }

  /// Registers an IP address as reachable at `node` (models the flat IP
  /// cloud of the external H.323 network / Gi interface).
  void register_ip(IpAddress ip, NodeId node);
  void unregister_ip(IpAddress ip);
  [[nodiscard]] NodeId ip_owner(IpAddress ip) const;

  // --- sharding -----------------------------------------------------------

  /// Partitions the topology into `groups.size()` shards: every node listed
  /// in groups[i] belongs to shard i, every unlisted node to shard 0 (the
  /// "core" shard).  Must be called on a pristine network — topology built,
  /// nothing run, no timers armed, no fault injector installed (install
  /// faults *after* sharding so transitions land on the right shards).
  /// Throws std::logic_error / std::invalid_argument on violations.
  ///
  /// With more than one shard, run_until_idle()/run_until() switch to the
  /// conservative windowed engine; each shard's lookahead is the minimum
  /// latency of its own cross-shard links, and windows extend adaptively to
  /// the earliest time any *active* shard could violate (see advance() in
  /// run_windowed).  Every cross-shard link must have positive latency —
  /// validated at run time, since sweeps may retune profiles between runs.
  void set_shards(const std::vector<std::vector<NodeId>>& groups);

  /// Topology-aware partition planner.  Removes the `core` nodes (defaults
  /// to the single highest-degree node — ties break toward the lowest id),
  /// finds the connected components of what remains (the BSC/BTS/MS
  /// subtrees, the packet core, the H.323 cloud...), and packs them into at
  /// most `target_shards - 1` groups of roughly equal estimated event rate
  /// (node degree is the rate proxy: every link is a traffic source);
  /// components are never split.  Groups are ordered by their smallest
  /// node id, which keeps shard-packed sequence numbers aligned with
  /// node-creation order — the property that makes sharded traces
  /// reproduce the sequential engine's tie-breaks.
  /// Purely a function of the topology: deterministic, never draws RNG.
  /// Returns a plan for set_shards(); groups[0] is empty (the core is the
  /// implicit shard 0).
  [[nodiscard]] std::vector<std::vector<NodeId>> plan_shards(
      std::size_t target_shards, std::span<const NodeId> core = {}) const;

  /// Worker threads for the sharded engine (0 = hardware concurrency,
  /// at least 1).  Capped at the shard count; 1 runs the identical windowed
  /// algorithm inline, which is what makes thread-count invariance hold by
  /// construction.  Ignored while only one shard exists.
  void set_workers(unsigned workers);
  [[nodiscard]] unsigned workers() const { return workers_; }

  /// Turns on wall-clock shard profiling (busy/drain/barrier timers in
  /// shard_perf(), and "shard/<i>/..." instruments folded into the metrics
  /// registry at every sharded-run merge).  Off by default: the timers cost
  /// clock reads per window, and wall-clock values are not worker-count
  /// invariant, so they must never leak into determinism-checked snapshots.
  void enable_shard_stats(bool on) { shard_stats_ = on; }
  [[nodiscard]] bool shard_stats_enabled() const { return shard_stats_; }
  /// Per-shard window-protocol profile (see ShardPerfStats).
  [[nodiscard]] std::vector<ShardPerfStats> shard_perf() const;

  [[nodiscard]] std::size_t num_shards() const { return shards_.size(); }
  [[nodiscard]] std::uint32_t shard_of(NodeId id) const {
    assert(id.valid() && id.value() <= node_shard_.size());
    return node_shard_[id.value() - 1];
  }

  // --- messaging ----------------------------------------------------------

  /// Sends `msg` from `from` to `to` over their link.  Asserts the link
  /// exists.  The message is serialized and re-decoded unless
  /// set_serialize_links(false) was called.  `extra_delay` models local
  /// processing at the sender (e.g. vocoder transcoding) on top of the
  /// link's propagation characteristics.
  void send(NodeId from, NodeId to, MessagePtr msg,
            SimDuration extra_delay = SimDuration::zero());

  /// If true (default) every link traversal round-trips through the wire
  /// codec.  A codec failure throws: it is a bug, not a simulated fault.
  /// (Exception: a FaultInjector corruption that the codec rejects models a
  /// checksum failure — the frame is silently discarded, not a bug.)
  void set_serialize_links(bool on) { serialize_links_ = on; }

  // --- fault injection ----------------------------------------------------

  /// Installs a FaultInjector driven by `schedule` (see sim/fault.hpp).
  /// Call after the topology is built (and after set_shards(), if any) —
  /// the schedule's node names are resolved immediately and its crash/
  /// restart/link transitions are queued as engine events on the shard of
  /// the affected node.  At most one injector per network.  With none
  /// installed the hot path pays one null-pointer test per send/dispatch.
  FaultInjector& install_faults(FaultSchedule schedule);
  [[nodiscard]] FaultInjector* faults() const { return fault_; }

  /// Arms a timer that fires on_timer(id, cookie) at `target`.  The id is
  /// never 0.
  TimerId set_timer(NodeId target, SimDuration delay, std::uint64_t cookie);
  /// A cancelled timer is never delivered, though its event still pops at
  /// its time.  Cancelling 0 ("no timer") or a stale id is a no-op.
  void cancel_timer(TimerId id);

  // --- execution ----------------------------------------------------------

  [[nodiscard]] SimTime now() const { return cur().now; }

  /// Runs events until the queue drains or `limit` is reached.  Returns the
  /// number of events processed.
  std::size_t run_until_idle(SimTime limit = SimTime::from_micros(
                                 std::int64_t{1} << 50));
  /// Runs events with timestamps <= deadline (advances now() to deadline).
  std::size_t run_until(SimTime deadline);
  std::size_t run_for(SimDuration d) { return run_until(now() + d); }

  [[nodiscard]] bool idle() const;

  // --- observability ------------------------------------------------------

  [[nodiscard]] TraceRecorder& trace() { return trace_; }
  [[nodiscard]] const TraceRecorder& trace() const { return trace_; }
  [[nodiscard]] NetworkStats stats() const;
  [[nodiscard]] Rng& rng() { return cur().rng; }

  /// Procedure spans (disabled by default; see SpanTracker).  Node
  /// instrumentation opens/closes these; dispatch() attributes hop counts.
  /// During a sharded run the tracker defers mutations through per-shard
  /// op buffers; they are replayed in deterministic order at the merge.
  [[nodiscard]] SpanTracker& spans() { return spans_; }
  [[nodiscard]] const SpanTracker& spans() const { return spans_; }

  /// Named instruments (see MetricsRegistry).  The NetworkStats scalars
  /// stay raw increments on the hot path; metrics_snapshot() folds them
  /// into the registry under "net/..." names before digesting.  During a
  /// sharded run this returns the dispatching shard's private registry
  /// (folded into the global one at the merge); outside it, the global.
  [[nodiscard]] MetricsRegistry& metrics();
  [[nodiscard]] const MetricsRegistry& metrics() const { return metrics_; }
  [[nodiscard]] MetricsSnapshot metrics_snapshot();

  // --- binary capture (vgprs.btrace.v1; see sim/btrace.hpp) ---------------

  /// Turns on capture: the trace records (kFull, if it was off) plus a log
  /// of span operations in global order.  The trace's records are what a
  /// segment serializes; the span log is the capture's own.
  void enable_capture();
  void disable_capture();
  [[nodiscard]] bool capture_enabled() const {
    return spans_.observer() == &capture_spans_;
  }

  /// Serializes one run segment: node/message tables, the trace's records
  /// as they stand (each message's wire image is encoded here), the span
  /// operations logged since enable_capture() or the last segment, final
  /// metric deltas from `snapshot`, and a run summary.  Then clears the
  /// span log; clear the trace between segments written from one network.
  /// Write the one-per-file header first (write_btrace_file_info).
  void write_capture_segment(std::ostream& out, std::string_view system,
                             std::uint64_t events,
                             const MetricsSnapshot& snapshot);

  /// FaultInjector bookkeeping hook: appends a fault annotation (a
  /// TraceNote) to the trace stream (buffered per shard during a sharded
  /// run).
  void record_fault(SimTime at, NodeId from, NodeId to, std::string what,
                    std::string detail);
  /// Index of the shard whose dispatch is executing on this thread
  /// (0 outside a sharded run) — per-shard fault counters key off this.
  [[nodiscard]] std::uint32_t current_shard() const { return cur().index; }

 private:
  /// Sentinel timer_slot value marking a fault-schedule transition event
  /// (crash/restart/link-down/link-up); these ride the event queue like
  /// timers but are owned by the engine, not a timer slot.
  static constexpr std::uint32_t kFaultSlot = 0xFFFFFFFFu;

  /// One queued occurrence: a delivery (msg != nullptr), a timer firing, or
  /// a fault transition (timer_slot == kFaultSlot).  Kept small and
  /// move-only-cheap; the heap moves these on every sift.
  struct Event {
    SimTime at;
    SimTime sent_at;        // shard-local now of the originating dispatch
    std::uint64_t seq = 0;  // (origin shard << kShardSeqBits) | shard seq
    MessagePtr msg;         // null => timer / fault event
    std::uint64_t timer_cookie = 0;
    NodeId from;                  // deliveries only
    NodeId to;                    // delivery target / timer target
    std::uint32_t timer_slot = 0;
    std::uint32_t timer_gen = 0;
  };
  /// The engine's total execution order; see dispatch_key.hpp for why this
  /// exactly reproduces the sequential engine's (at, global seq) order.
  struct EventBefore {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at < b.at;
      if (a.sent_at != b.sent_at) return a.sent_at < b.sent_at;
      return a.seq < b.seq;
    }
  };

  static constexpr std::int64_t kNeverUs =
      std::numeric_limits<std::int64_t>::max();

  /// Wait-free SPSC mailbox for one (source shard, destination shard) pair.
  /// The producer (the worker owning the source shard) appends events to a
  /// chain of fixed-size chunks during its window and publishes them with
  /// ONE release-store per window — a bulk commit carrying the batch's
  /// minimum timestamp.  The consumer (the worker owning the destination
  /// shard) drains every committed event into its heap at the start of
  /// every window, so at an advance only the latest commit can still be
  /// undrained: the ring keeps that one record, and the advance reads the
  /// undrained minimum off it with no consumer->producer traffic on the hot
  /// path.  Producer and consumer halves live on separate cache lines; the
  /// whole ring is line-aligned so adjacent (src,dst) pairs never share a
  /// line.
  struct alignas(64) OutboxRing {
    static constexpr std::size_t kChunkEvents = 64;
    struct Chunk {
      std::array<Event, kChunkEvents> ev;
      std::atomic<Chunk*> next{nullptr};
    };

    // --- producer half ---
    Chunk* tail_chunk = nullptr;
    std::uint64_t appended = 0;          // events staged (incl. uncommitted)
    std::int64_t staged_min_us = kNeverUs;
    std::uint64_t committed_local = 0;   // producer's copy of `committed`
    std::int64_t last_commit_min_us = kNeverUs;  // min Event::at, latest batch
    std::atomic<Chunk*> first{nullptr};
    std::atomic<std::uint64_t> committed{0};

    // Exhausted chunks recycle through a tiny Treiber stack instead of the
    // heap, so steady state is allocation-free.  ABA-safe without tagging:
    // only the consumer pushes and only the producer pops, so a head the
    // popper saw can never be re-pushed behind its back.
    alignas(64) std::atomic<Chunk*> free_chunks{nullptr};

    // --- consumer half ---
    alignas(64) Chunk* head_chunk = nullptr;
    std::size_t head_off = 0;
    // Cumulative events drained; read by the advance only at the barrier.
    std::uint64_t drained = 0;

    OutboxRing() = default;
    OutboxRing(const OutboxRing&) = delete;
    OutboxRing& operator=(const OutboxRing&) = delete;
    ~OutboxRing() {
      auto free_chain = [](Chunk* c) {
        while (c != nullptr) {
          Chunk* n = c->next.load(std::memory_order_relaxed);
          delete c;
          c = n;
        }
      };
      free_chain(head_chunk != nullptr ? head_chunk
                                       : first.load(std::memory_order_relaxed));
      free_chain(free_chunks.load(std::memory_order_relaxed));
    }

    Chunk* alloc_chunk() {
      Chunk* c = free_chunks.load(std::memory_order_acquire);
      while (c != nullptr &&
             !free_chunks.compare_exchange_weak(
                 c, c->next.load(std::memory_order_relaxed),
                 std::memory_order_acquire, std::memory_order_acquire)) {
      }
      if (c != nullptr) {
        c->next.store(nullptr, std::memory_order_relaxed);
        return c;
      }
      return new Chunk;
    }

    void recycle_chunk(Chunk* c) {
      Chunk* h = free_chunks.load(std::memory_order_relaxed);
      do {
        c->next.store(h, std::memory_order_relaxed);
      } while (!free_chunks.compare_exchange_weak(
          h, c, std::memory_order_release, std::memory_order_relaxed));
    }

    void push(Event ev) {
      const auto off = static_cast<std::size_t>(appended % kChunkEvents);
      if (off == 0) {
        Chunk* c = alloc_chunk();
        // The plain next/first stores are published by the release-store of
        // `committed` in commit(); the consumer never chases a chunk link
        // beyond what a committed count it acquired covers.
        if (tail_chunk == nullptr) {
          first.store(c, std::memory_order_relaxed);
        } else {
          tail_chunk->next.store(c, std::memory_order_relaxed);
        }
        tail_chunk = c;
      }
      staged_min_us = std::min(staged_min_us, ev.at.count_micros());
      tail_chunk->ev[off] = std::move(ev);
      ++appended;
    }

    [[nodiscard]] bool has_staged() const { return appended != committed_local; }

    /// Bulk commit of the window's staged batch.  Every earlier commit was
    /// drained at the start of this window, so this one replaces it.
    void commit() {
      if (appended == committed_local) return;
      last_commit_min_us = staged_min_us;
      staged_min_us = kNeverUs;
      committed_local = appended;
      committed.store(appended, std::memory_order_release);
    }

    /// Earliest timestamp across committed-but-undrained events.  Exact at
    /// barrier quiescence: the consumer always drains to a commit boundary,
    /// so the latest commit is either wholly drained or wholly pending.
    [[nodiscard]] std::int64_t undrained_min_us() const {
      return committed_local > drained ? last_commit_min_us : kNeverUs;
    }

    /// Consumer side: moves every committed event into `heap` (one
    /// push_bulk per contiguous chunk run) and frees exhausted chunks.
    void drain_into(QuadHeap<Event, EventBefore>& heap) {
      const std::uint64_t n = committed.load(std::memory_order_acquire);
      std::uint64_t got = drained;
      if (got == n) return;
      while (got < n) {
        if (head_chunk == nullptr) {
          head_chunk = first.load(std::memory_order_relaxed);
          head_off = 0;
        }
        if (head_off == kChunkEvents) {
          Chunk* next = head_chunk->next.load(std::memory_order_relaxed);
          recycle_chunk(head_chunk);
          head_chunk = next;
          head_off = 0;
        }
        const auto run = static_cast<std::size_t>(std::min<std::uint64_t>(
            n - got, kChunkEvents - head_off));
        Event* base = head_chunk->ev.data() + head_off;
        heap.push_bulk(base, base + run);
        head_off += run;
        got += run;
      }
      drained = got;
    }

    /// Only meaningful outside a run (both sides quiescent).
    [[nodiscard]] bool empty_quiescent() const {
      return committed.load(std::memory_order_relaxed) == drained;
    }
  };

  /// Timer identity for O(1) cancellation without tombstones: a TimerId
  /// packs (shard, slot index, generation).  Arming bumps the slot's
  /// generation; firing and cancelling disarm it.  A stale cancel (after
  /// fire, or a second cancel, possibly after the slot was reused) fails
  /// the generation/armed check and is a no-op.
  struct TimerSlot {
    std::uint32_t generation = 0;
    std::uint32_t next_free = 0;  // free-list link (index + 1); 0 = end
    bool armed = false;
  };

  /// Node-name lookup without materializing a std::string per call.
  struct StringHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };

  struct Adjacency {
    NodeId peer;
    std::uint32_t link = 0;  // index into link_profiles_
  };

  /// Everything one worker thread touches while executing its shard: event
  /// heap, timer table, sequence counter, clock, RNG, wire scratch, raw
  /// stats, a private metrics registry, trace/span buffers keyed for the
  /// deterministic merge, and one SPSC outbox ring per destination shard.
  /// A single-shard Network (the default) runs entirely on shards_[0] with
  /// no buffering — the classic sequential engine.
  ///
  /// Layout: the whole struct is line-aligned and the dispatch-hot group
  /// (heap + clock + seq) is separated from the raw stats and from the
  /// window-protocol publication fields by alignas(64) boundaries, so the
  /// advance reading next_at never contends with the owner bumping stats,
  /// and two shards never share a line (each Shard is its own allocation).
  struct alignas(64) Shard {
    alignas(64) QuadHeap<Event, EventBefore> queue;
    std::vector<TimerSlot> timer_slots;
    std::uint32_t timer_free_head = 0;  // index + 1; 0 = none
    std::uint64_t next_seq = 1;
    std::uint32_t index = 0;
    SimTime now;
    DispatchKey cur_key;   // key of the event being dispatched
    ByteWriter scratch;    // reusable wire buffer for serialize_links_
    Rng rng;
    alignas(64) NetworkStats stats;  // raw hot-path increments, own line
    MetricsRegistry metrics;
    std::vector<TraceRecord> trace_buf;
    std::vector<SpanTracker::Op> span_ops;
    std::unique_ptr<OutboxRing[]> outbox;  // index = destination shard
    std::vector<std::uint32_t> outbox_touched;  // dests staged this window
    ShardPerfStats perf;
    // Published for the window advance (written by the owning worker before
    // it arrives at the rendezvous, read only under the gate's ordering).
    alignas(64) SimTime next_at;  // earliest heap event after the window
    std::size_t processed = 0;    // events dispatched in the current run

    explicit Shard(std::uint64_t seed) : rng(seed) {}
  };

  /// Worker-thread execution context; owner-tagged so nested Networks
  /// (ParallelSweep cells built inside a sharded run would be the only
  /// way) fall back to their own shard 0.
  struct TlCtx {
    const Network* net = nullptr;
    Shard* shard = nullptr;
  };
  static thread_local TlCtx tl_ctx_;

  [[nodiscard]] Shard& cur() const {
    return tl_ctx_.net == this ? *tl_ctx_.shard : *shards_.front();
  }
  [[nodiscard]] bool in_sharded_dispatch() const {
    return tl_ctx_.net == this;
  }

  /// Registers a constructed node (assigns id, indexes the name, runs
  /// on_attached).  Storage is owned by node_arena_.
  NodeId attach_node(Node* node);

  void dispatch(Event ev, Shard& sh, bool buffered);
  [[nodiscard]] const Adjacency* find_link(NodeId a, NodeId b) const;
  [[nodiscard]] std::string_view intern_label(std::string_view label);
  void release_timer_slot(Shard& sh, std::uint32_t slot);
  [[nodiscard]] std::uint64_t alloc_seq(Shard& origin) {
    return (std::uint64_t{origin.index} << kShardSeqBits) | origin.next_seq++;
  }
  /// Queues a fault-schedule transition on the shard of the affected node
  /// (install_faults calls this in schedule order).
  void push_fault_event(SimTime at, std::uint64_t cookie, NodeId target);
  /// Routes a ready Event to its destination shard: the origin's own heap,
  /// the origin's outbox (mid-window cross-shard send), or the destination
  /// heap directly (single-threaded stimulus between runs).
  void route_event(Shard& origin, bool buffered, Event ev);
  /// Records `msg` from `from` to `to` under the next DispatchKey of the
  /// current dispatch: straight into the trace, or into the dispatching
  /// shard's buffer during a sharded run.
  void add_record(Shard& sh, bool buffered, NodeId from, NodeId to,
                  MessagePtr msg);
  /// Recomputes shard_la_us_ with one pass over the links: per shard, the
  /// minimum latency over its cross-shard links (a huge sentinel when it
  /// has none — an island shard never constrains the window).  Throws if
  /// any cross-shard link has non-positive latency.
  void compute_shard_lookaheads();
  std::size_t run_sequential(SimTime limit);
  std::size_t run_windowed(SimTime limit);
  /// Executes every event with at < t_end on `sh` (worker context).
  void process_window(Shard& sh, SimTime t_end);
  /// Moves committed inbound ring events into sh's heap (window start);
  /// recomputes sh.next_at.
  void drain_inboxes(Shard& sh);
  /// Release-publishes this window's staged outbox events (window end).
  static void commit_outboxes(Shard& sh);
  /// Merges per-shard trace/span/metrics buffers into the global
  /// recorder/tracker/registry in DispatchKey order.
  void merge_shard_buffers();

  /// Bump storage for node objects: 256 KiB slabs, nodes placement-new'd in
  /// attach order, destroyed (virtually, in reverse order) by ~Network.
  /// Splitting node storage from the dispatch index keeps the index a flat
  /// pointer array and the objects themselves densely packed.
  struct NodeArena {
    void* allocate(std::size_t size, std::size_t align);
    std::vector<std::unique_ptr<std::byte[]>> chunks;
    std::byte* cur = nullptr;
    std::byte* end = nullptr;
  };

  NodeArena node_arena_;
  std::vector<Node*> nodes_;  // index = id - 1; storage in node_arena_
  std::unordered_map<std::string, NodeId, StringHash, std::equal_to<>>
      by_name_;
  std::deque<LinkProfile> link_profiles_;     // stable storage
  std::deque<std::string> label_table_;       // interned link labels
  std::vector<std::vector<Adjacency>> adjacency_;  // index = id - 1
  std::unordered_map<IpAddress, NodeId> ip_owners_;

  std::vector<std::unique_ptr<Shard>> shards_;  // stable addresses
  std::vector<std::uint32_t> node_shard_;       // index = id - 1
  std::vector<std::int64_t> shard_la_us_;       // per-shard lookahead, µs
  unsigned workers_ = 1;
  bool shard_stats_ = false;
  std::uint64_t seed_;

  bool serialize_links_ = true;
  FaultInjector* fault_ = nullptr;  // owned via nodes_; null = no faults
  TraceRecorder trace_{nodes_};
  SpanTracker spans_;
  MetricsRegistry metrics_;
  SpanCaptureLog capture_spans_;
};

}  // namespace vgprs
