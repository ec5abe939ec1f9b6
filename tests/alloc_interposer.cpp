#include "alloc_interposer.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void count_alloc() {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

}  // namespace

namespace vgprs::test {

void start_counting_allocs() {
  g_allocs.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_release);
}

std::uint64_t stop_counting_allocs() {
  g_counting.store(false, std::memory_order_release);
  return g_allocs.load(std::memory_order_relaxed);
}

}  // namespace vgprs::test

// Replaceable global allocation functions (C++20 [new.delete]): same
// malloc-backed behaviour as the defaults, plus the steady-state counter.
void* operator new(std::size_t n) {
  count_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  count_alloc();
  const std::size_t align = static_cast<std::size_t>(al);
  const std::size_t size = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size != 0 ? size : align)) {
    return p;
  }
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return ::operator new(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
