// Allocation regression tests for the pooled steady state.
//
// The tentpole claim is that sharded dispatch is allocation-free once warm:
// message objects and shared_ptr control blocks come from the per-thread
// message pool, events recycle inside each shard's heap storage, and
// cross-shard hand-off reuses outbox/inbox capacity.  Two layers of pinning:
//
//  * a global operator-new interposer counts heap allocations during a
//    warmed-up 2-shard ping-pong — the count per 10k delivered events must
//    stay inside a small slack (thread start-up, late container growth);
//  * on the real vGPRS sharded call mix, the message-pool statistics
//    (chunks, reserved bytes, oversize fallbacks) must be flat across
//    call waves once the first wave has warmed the pool;
//  * on a warmed vGPRS MS->MS call cycle, recording the trace must cost
//    no heap allocation per delivery: a record is a key, two node ids and
//    a reference to the delivered message;
//  * on the same untraced call cycle, heap allocations per call stay at
//    or below the measured count, so a relay that copies what it forwards
//    fails;
//  * a producer/consumer pair of threads drives the pool's cross-thread
//    return path directly: no block may be handed out twice, and the chunk
//    count must be flat once warm.
//
// All gates are skipped when the pool runs in sanitizer passthrough mode
// (message_pool_enabled() == false): then every message *is* a fresh heap
// allocation, by design, so the sanitizer can see it.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <deque>
#include <thread>
#include <vector>

#include "alloc_interposer.hpp"
#include "sim/arena.hpp"
#include "sim/export.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

struct Echo final : public Node {
  using Node::Node;
  NodeId peer;
  std::int64_t remaining = 0;
  void on_message(const Envelope&) override {
    if (remaining-- > 0) send(peer, pool_message<UmPagingRequest>());
  }
};

TEST(AllocRegression, ShardedPingPongSteadyStateIsAllocationFree) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  register_all_messages();
  Network net(1);
  net.trace().set_mode(TraceMode::kDisabled);
  auto& a = net.add<Echo>("a");
  auto& b = net.add<Echo>("b");
  net.connect(a, b, LinkProfile{});
  a.peer = b.id();
  b.peer = a.id();
  net.set_shards({{a.id()}, {b.id()}});
  net.set_workers(2);

  // Warm-up: grows the shard heaps, outboxes, pool chunks and worker
  // threads to steady-state capacity.
  a.remaining = b.remaining = 2000;
  net.send(a.id(), b.id(), pool_message<UmPagingRequest>());
  net.run_until_idle();

  // Timed region: 10k further deliveries through the same warm machinery.
  const std::uint64_t before_delivered = net.stats().messages_delivered;
  a.remaining = b.remaining = 5000;
  test::start_counting_allocs();
  net.send(a.id(), b.id(), pool_message<UmPagingRequest>());
  net.run_until_idle();
  const std::uint64_t allocs = test::stop_counting_allocs();

  const std::uint64_t delivered =
      net.stats().messages_delivered - before_delivered;
  ASSERT_GT(delivered, 10000u);
  // Zero allocations per delivered event, with a fixed slack for one-off
  // costs inside the run (worker thread start-up, a straggling container
  // doubling).  Anything proportional to the event count blows well past
  // this.
  EXPECT_LE(allocs, 64u)
      << allocs << " heap allocations across " << delivered
      << " steady-state deliveries";
}

TEST(AllocRegression, CallMixPoolStatsAreFlatAcrossWaves) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  VgprsParams params;
  params.num_ms = 64;
  params.num_cells = 4;
  params.bsc_channels = 256;
  params.seed = 11;
  params.sharded = true;
  params.workers = 2;
  auto s = build_vgprs(params);
  s->net.trace().set_mode(TraceMode::kDisabled);
  for (auto* ms : s->ms) ms->power_on();
  s->settle();
  ASSERT_EQ(s->vmsc->ready_count(), params.num_ms);

  auto wave = [&] {
    for (std::size_t p = 0; p < s->ms.size() / 2; ++p) {
      s->ms[2 * p]->dial(s->ms[2 * p + 1]->config().msisdn);
    }
    s->settle();
    for (std::size_t p = 0; p < s->ms.size() / 2; ++p) {
      s->ms[2 * p]->hangup();
    }
    s->settle();
  };

  wave();  // warm the pool to the mix's working set
  const MessagePoolStats warm = message_pool_stats();
  EXPECT_GT(warm.pooled_allocs, 0u) << "call mix bypassed the message pool";
  for (int i = 0; i < 3; ++i) wave();
  const MessagePoolStats after = message_pool_stats();

  // Steady state recycles: no new chunks, no new reserved bytes, and no
  // drift toward the oversize fallback path.
  EXPECT_EQ(after.chunks, warm.chunks);
  EXPECT_EQ(after.bytes_reserved, warm.bytes_reserved);
  EXPECT_EQ(after.oversize_allocs, warm.oversize_allocs);
  EXPECT_GT(after.pooled_allocs, warm.pooled_allocs);
}

/// Heap allocations per MS->MS call cycle on a warmed 2-MS vGPRS network
/// with the trace in `mode`.  Each cycle clears the trace afterwards, as
/// a long-running caller does.
double allocs_per_call(TraceMode mode) {
  VgprsParams params;
  params.num_ms = 2;
  auto s = build_vgprs(params);
  s->net.trace().set_mode(mode);
  for (auto* ms : s->ms) ms->power_on();
  s->settle();
  int connected = 0;
  s->ms[0]->on_connected = [&](CallRef) { ++connected; };
  auto cycle = [&] {
    s->ms[0]->dial(s->ms[1]->config().msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    s->net.trace().clear();
  };
  constexpr int kWarm = 5;
  constexpr int kCalls = 20;
  for (int i = 0; i < kWarm; ++i) cycle();
  test::start_counting_allocs();
  for (int i = 0; i < kCalls; ++i) cycle();
  const std::uint64_t allocs = test::stop_counting_allocs();
  EXPECT_EQ(connected, kWarm + kCalls) << "a call cycle did not connect";
  return static_cast<double>(allocs) / kCalls;
}

TEST(AllocRegression, TracedCallCycleAllocatesLikeUntraced) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  const double untraced = allocs_per_call(TraceMode::kDisabled);
  const double traced = allocs_per_call(TraceMode::kFull);
  // A call cycle is ~180 deliveries, so anything recorded per delivery
  // blows well past the slack.
  EXPECT_LE(traced, untraced + 4.0)
      << traced << " heap allocations per traced call vs " << untraced
      << " untraced";
}

TEST(AllocRegression, UntracedCallCycleAllocationBound) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  // Relays (IP router, GGSN uplink, handoff target MSC, PSTN switch)
  // forward the delivered message itself, and tunnels (Gb, GTP, IP) carry
  // their inner message as a pooled MessagePtr: a copied relay or a
  // tunnelled byte vector would take heap blocks on every hop.  The bound
  // is the measured count (1,166 allocations over 20 calls).
  const double untraced = allocs_per_call(TraceMode::kDisabled);
  EXPECT_LE(untraced, 58.3)
      << untraced << " heap allocations per untraced call";
}

TEST(AllocRegression, CrossThreadFreesReturnToTheCarvingPool) {
  if (!message_pool_enabled()) {
    GTEST_SKIP() << "message pool in sanitizer passthrough mode";
  }
  // The producer cycles through every size class, fills each block with its
  // sequence number, frees every fourth block itself and hands the rest to
  // the consumer through a bounded ring.  The consumer frees on its own
  // thread, so each of those frees takes the return path to the producer's
  // pool.  It holds the last few blocks before freeing them and re-checks
  // their stamps then, so a block handed out twice shows as an overwrite.
  // An overwritten block is counted and left to its other holder to free.
  constexpr std::size_t kSizes[] = {24, 40, 64, 96, 120, 176, 256, 320, 504};
  constexpr std::uint64_t kBlocks = 200'000;
  constexpr std::uint64_t kWarm = kBlocks / 4;
  constexpr std::size_t kSlots = 64;
  constexpr std::size_t kHeld = 8;

  struct Block {
    std::uint64_t* words = nullptr;
    std::size_t count = 0;
    std::uint64_t seq = 0;
  };
  auto stamp = [](const Block& b) {
    for (std::size_t w = 0; w < b.count; ++w) b.words[w] = b.seq;
  };
  auto intact = [](const Block& b) {
    for (std::size_t w = 0; w < b.count; ++w) {
      if (b.words[w] != b.seq) return false;
    }
    return true;
  };

  std::array<Block, kSlots> ring;
  std::atomic<std::uint64_t> pushed{0};
  std::atomic<std::uint64_t> popped{0};
  std::atomic<std::uint64_t> overwritten{0};
  std::uint64_t warm_chunks = 0;

  auto release = [&](const Block& b) {
    if (intact(b)) {
      pool_free(b.words);
    } else {
      overwritten.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread consumer([&] {
    std::deque<Block> held;
    for (std::uint64_t next = 0;; ++next) {
      while (pushed.load(std::memory_order_acquire) == next) {
        std::this_thread::yield();
      }
      const Block b = ring[next % kSlots];
      popped.store(next + 1, std::memory_order_release);
      if (b.words == nullptr) break;  // end of stream
      if (!intact(b)) overwritten.fetch_add(1, std::memory_order_relaxed);
      held.push_back(b);
      if (held.size() > kHeld) {
        release(held.front());
        held.pop_front();
      }
    }
    for (const Block& b : held) release(b);
  });

  std::uint64_t handed = 0;
  auto hand_over = [&](const Block& b) {
    while (handed - popped.load(std::memory_order_acquire) == kSlots) {
      std::this_thread::yield();
    }
    ring[handed % kSlots] = b;
    pushed.store(++handed, std::memory_order_release);
  };
  for (std::uint64_t i = 0; i < kBlocks; ++i) {
    if (i == kWarm) warm_chunks = message_pool_stats().chunks;
    const std::size_t bytes = kSizes[i % std::size(kSizes)];
    Block b{static_cast<std::uint64_t*>(pool_alloc(bytes)),
            bytes / sizeof(std::uint64_t), i + 1};
    stamp(b);
    if (i % 4 == 0) {
      release(b);
    } else {
      hand_over(b);
    }
  }
  hand_over(Block{});
  consumer.join();

  EXPECT_EQ(overwritten.load(), 0u) << "a live block was handed out twice";
  EXPECT_EQ(message_pool_stats().chunks, warm_chunks)
      << "cross-thread frees did not reach the carving pool";
}

}  // namespace
}  // namespace vgprs
