#include "sim/arena.hpp"

#include <atomic>
#include <cassert>
#include <mutex>
#include <new>
#include <vector>

// Sanitizer builds bypass the recycling pool entirely (see arena.hpp).
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    defined(__SANITIZE_MEMORY__)
#define VGPRS_POOL_PASSTHROUGH 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define VGPRS_POOL_PASSTHROUGH 1
#endif
#endif

namespace vgprs {

namespace {

// Size classes (user-visible bytes).  A decoded signaling message is
// typically 40-200 bytes; a shared_ptr control block 24-32; the 512 top
// class still covers the fattest composite messages.  16-byte header in
// front of every block keeps the user pointer 16-aligned and names the
// class and the owning pool so cross-thread frees route correctly.
constexpr std::size_t kClasses[] = {32, 48, 64, 96, 128, 192, 256, 384, 512};
constexpr std::size_t kNumClasses = sizeof(kClasses) / sizeof(kClasses[0]);
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kChunkBytes = 64 * 1024;
constexpr std::uint32_t kOversizeClass = 0xFFFFFFFFu;

struct Pool;

struct BlockHeader {
  std::uint32_t size_class;  // index into kClasses, or kOversizeClass
  std::uint32_t magic;       // cheap double-free / stray-pointer guard
  Pool* owner;               // pool that carved the block; null if oversize
};
static_assert(sizeof(BlockHeader) <= kHeaderBytes);
constexpr std::uint32_t kMagicLive = 0xA11C'0DEDu;

// Slow-path counters; bumped only on chunk refill / oversize, so the atomics
// never show up in a profile.
std::atomic<std::uint64_t> g_chunks{0};
std::atomic<std::uint64_t> g_bytes{0};
std::atomic<std::uint64_t> g_oversize{0};
std::atomic<std::uint64_t> g_pooled{0};

#ifndef VGPRS_POOL_PASSTHROUGH

std::uint32_t class_of(std::size_t n) {
  for (std::size_t c = 0; c < kNumClasses; ++c) {
    if (n <= kClasses[c]) return static_cast<std::uint32_t>(c);
  }
  return kOversizeClass;
}

// A free block's link overlays the header's class and magic words, so a
// double free reads a magic other than kMagicLive; the owner word stays
// intact for the block's whole life.
struct FreeBlock {
  FreeBlock* next;
};

/// One thread's cache: free lists per class plus the current bump chunk.
/// Pool objects are never destroyed — blocks they carved may be in flight on
/// other threads — they are parked and re-adopted instead.
struct Pool {
  FreeBlock* free_list[kNumClasses] = {};
  std::byte* bump = nullptr;
  std::byte* bump_end = nullptr;
  std::uint64_t pooled_allocs = 0;
  // Blocks this pool carved that other threads freed: per class, a
  // lock-free stack any thread pushes and the owner takes whole.  Push-only
  // plus take-all has no ABA hazard.  On its own cache lines, away from the
  // owner's hot fields above.
  alignas(64) std::atomic<FreeBlock*> remote[kNumClasses] = {};

  void* carve(std::uint32_t cls) {
    const std::size_t need = kHeaderBytes + kClasses[cls];
    if (static_cast<std::size_t>(bump_end - bump) < need) {
      // Chunks are process-lifetime, like the pools that carve them.
      bump = static_cast<std::byte*>(::operator new(kChunkBytes));
      bump_end = bump + kChunkBytes;
      g_chunks.fetch_add(1, std::memory_order_relaxed);
      g_bytes.fetch_add(kChunkBytes, std::memory_order_relaxed);
    }
    auto* h = reinterpret_cast<BlockHeader*>(bump);
    h->owner = this;
    bump += need;
    return h;
  }

  void push_remote(std::uint32_t cls, FreeBlock* fb) noexcept {
    FreeBlock* head = remote[cls].load(std::memory_order_relaxed);
    do {
      fb->next = head;
    } while (!remote[cls].compare_exchange_weak(
        head, fb, std::memory_order_release, std::memory_order_relaxed));
  }
};

/// Parked caches of exited threads, adopted by the next thread that needs
/// one.  Intentionally leaked (raw new) so no destruction-order hazard with
/// thread-local destructors at process exit.
struct Orphanage {
  std::mutex mu;
  std::vector<Pool*> pools;
};
Orphanage& orphanage() {
  static Orphanage* o = new Orphanage;
  return *o;
}

struct TlCache {
  Pool* pool = nullptr;

  ~TlCache() {
    if (pool == nullptr) return;
    g_pooled.fetch_add(pool->pooled_allocs, std::memory_order_relaxed);
    pool->pooled_allocs = 0;
    Orphanage& o = orphanage();
    std::lock_guard<std::mutex> lock(o.mu);
    o.pools.push_back(pool);
    pool = nullptr;  // a late free on this thread now takes the remote path
  }

  Pool& get() {
    if (pool == nullptr) [[unlikely]] {
      Orphanage& o = orphanage();
      std::lock_guard<std::mutex> lock(o.mu);
      if (!o.pools.empty()) {
        pool = o.pools.back();
        o.pools.pop_back();
      } else {
        pool = new Pool;
      }
    }
    return *pool;
  }
};
thread_local TlCache tl_cache;

#endif  // !VGPRS_POOL_PASSTHROUGH

void* oversize_alloc(std::size_t n) {
  auto* raw = static_cast<std::byte*>(::operator new(kHeaderBytes + n));
  auto* h = reinterpret_cast<BlockHeader*>(raw);
  h->size_class = kOversizeClass;
  h->magic = kMagicLive;
  h->owner = nullptr;
  g_oversize.fetch_add(1, std::memory_order_relaxed);
  return raw + kHeaderBytes;
}

}  // namespace

void* pool_alloc(std::size_t n) {
#ifdef VGPRS_POOL_PASSTHROUGH
  return oversize_alloc(n);
#else
  const std::uint32_t cls = class_of(n);
  if (cls == kOversizeClass) [[unlikely]] {
    return oversize_alloc(n);
  }
  Pool& pool = tl_cache.get();
  FreeBlock*& head = pool.free_list[cls];
  if (head == nullptr) {
    // Local miss: take back everything other threads returned, then carve.
    head = pool.remote[cls].exchange(nullptr, std::memory_order_acquire);
  }
  void* block;
  if (head != nullptr) {
    block = head;
    head = head->next;
  } else {
    block = pool.carve(cls);
  }
  ++pool.pooled_allocs;
  auto* h = static_cast<BlockHeader*>(block);
  h->size_class = cls;
  h->magic = kMagicLive;
  return static_cast<std::byte*>(block) + kHeaderBytes;
#endif
}

void pool_free(void* p) noexcept {
  if (p == nullptr) return;
  auto* block = static_cast<std::byte*>(p) - kHeaderBytes;
  auto* h = reinterpret_cast<BlockHeader*>(block);
  assert(h->magic == kMagicLive && "pool_free: bad or double-freed block");
  if (h->size_class == kOversizeClass) {
    ::operator delete(block);
    return;
  }
#ifdef VGPRS_POOL_PASSTHROUGH
  ::operator delete(block);
#else
  auto* fb = reinterpret_cast<FreeBlock*>(block);
  const std::uint32_t cls = h->size_class;
  Pool* owner = h->owner;
  if (owner == tl_cache.pool) [[likely]] {
    fb->next = owner->free_list[cls];
    owner->free_list[cls] = fb;
  } else {
    owner->push_remote(cls, fb);
  }
#endif
}

MessagePoolStats message_pool_stats() noexcept {
  MessagePoolStats s;
  s.chunks = g_chunks.load(std::memory_order_relaxed);
  s.bytes_reserved = g_bytes.load(std::memory_order_relaxed);
  s.oversize_allocs = g_oversize.load(std::memory_order_relaxed);
  s.pooled_allocs = g_pooled.load(std::memory_order_relaxed);
#ifndef VGPRS_POOL_PASSTHROUGH
  if (tl_cache.pool != nullptr) {
    s.pooled_allocs += tl_cache.pool->pooled_allocs;
  }
#endif
  return s;
}

bool message_pool_enabled() noexcept {
#ifdef VGPRS_POOL_PASSTHROUGH
  return false;
#else
  return true;
#endif
}

}  // namespace vgprs
