// Message arena: size-class, thread-cached pooling for the simulator's
// per-event heap traffic (decoded Message instances, shared_ptr control
// blocks, and anything else small the hot path churns).
//
// Why not a plain bump arena reset at window barriers: messages outlive
// windows — a retransmitter keeps the last request, a VMSC parks a pending
// Setup, tests hold MessagePtr past run_until_idle().  So the pool is a
// recycling allocator instead: freed blocks go onto a per-thread free list
// and the backing chunks are process-lifetime, which makes steady-state
// dispatch allocation-free without any lifetime cliff.
//
//  * Allocation rounds the request up to a size class and pops the calling
//    thread's free list; a local miss first takes back, with one atomic
//    exchange, every block of that class other threads have returned
//    (below), then carves from the thread's current 64 KiB chunk (bump); a
//    chunk miss allocates a fresh chunk from the system — the only path
//    that ever reaches the global heap in steady state.
//  * Every block carries a 16-byte header naming its size class and the
//    pool that carved it, and always goes back to that pool.  Freed on the
//    owning thread it joins the local free list; freed on any other thread
//    (a message decoded on the sending shard is destroyed on the receiving
//    one) it is pushed onto the owner's per-class lock-free stack.  So a
//    one-sided cross-thread flow cannot strand blocks on the consumer while
//    the producer carves: the producer's next miss reclaims them.  Blocks
//    above the largest class pass through to the global heap, tagged
//    oversize.
//  * Thread caches are never destroyed: when a worker thread exits (the
//    sharded engine spawns workers per run) its pool is parked in a global
//    orphanage and adopted by the next worker, so repeated runs recycle
//    the same chunks instead of leaking per-thread state.  Frees of a
//    parked pool's blocks wait on its stacks for the adopter.
//  * Under ASan/TSan/MSan the pool degrades to tagged global new/delete:
//    recycling would mask use-after-free and the sanitizers' own
//    interception is the point of those builds.
//
// MessagePoolStats exposes the slow-path counters (chunks, oversize
// fallbacks).  In steady state both must be flat — tests/test_alloc pins
// exactly that, next to an operator-new interposer for the strict version.
#pragma once

#include <cstddef>
#include <cstdint>

namespace vgprs {

struct MessagePoolStats {
  std::uint64_t chunks = 0;           // 64 KiB chunks obtained from the heap
  std::uint64_t bytes_reserved = 0;   // total bytes in those chunks
  std::uint64_t oversize_allocs = 0;  // requests above the largest class
  std::uint64_t pooled_allocs = 0;    // requests served by class lists/bumps
};

/// Allocates `n` bytes from the calling thread's message pool (16-aligned).
[[nodiscard]] void* pool_alloc(std::size_t n);
/// Returns a pool_alloc'd block; callable from any thread.
void pool_free(void* p) noexcept;

/// Process-wide slow-path counters (sum over all thread caches, monotone).
[[nodiscard]] MessagePoolStats message_pool_stats() noexcept;
/// False when a sanitizer build routes everything to the global heap.
[[nodiscard]] bool message_pool_enabled() noexcept;

/// Minimal std allocator over the pool, for std::allocate_shared (pooled
/// control blocks / combined object+control allocations).
template <typename T>
struct PoolAllocator {
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) noexcept {}  // NOLINT(*-explicit-*)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(pool_alloc(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept { pool_free(p); }

  friend bool operator==(const PoolAllocator&, const PoolAllocator&) {
    return true;
  }
};

}  // namespace vgprs
