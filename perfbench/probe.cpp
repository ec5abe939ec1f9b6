#include "probe.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <map>
#include <new>
#include <sstream>

namespace {

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};

void note_alloc() {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
}

double steal_seconds() {
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return 0.0;
  // user nice system idle iowait irq softirq steal
  unsigned long long v[8] = {};
  for (unsigned long long& x : v) {
    if (!(in >> x)) return 0.0;
  }
  const long hz = sysconf(_SC_CLK_TCK);
  return hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz) : 0.0;
}

}  // namespace

// Replacement global allocation functions: plain malloc/free, plus a relaxed
// counter that is only touched while counting is on.
void* operator new(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n != 0 ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  note_alloc();
  const auto align = static_cast<std::size_t>(al);
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

namespace perfbench {

double wall_now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Usage Usage::now() {
  Usage u;
  u.wall_s = wall_now();
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  u.cpu_s = static_cast<double>(ts.tv_sec) +
            static_cast<double>(ts.tv_nsec) * 1e-9;
  u.steal_s = steal_seconds();
  return u;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image.  getrusage's ru_maxrss would also
  // carry over the peak of the parent that forked and exec'd us.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
}

void count_heap_allocs(bool on) {
  g_count_allocs.store(on, std::memory_order_relaxed);
}

std::uint64_t heap_allocs() { return g_allocs.load(std::memory_order_relaxed); }

int SpanLog::open(const char* name, std::int64_t op) {
  if (!enabled_) return -1;
  Record r;
  r.name = name;
  r.start_s = wall_now();
  r.parent = stack_.empty() ? -1 : stack_.back();
  r.op = op >= 0 || stack_.empty() ? op : recs_[stack_.back()].op;
  recs_.push_back(std::move(r));
  stack_.push_back(static_cast<int>(recs_.size()) - 1);
  return stack_.back();
}

void SpanLog::close(int index) {
  if (index < 0) return;
  recs_[index].end_s = wall_now();
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == index) break;
  }
}

void SpanLog::write_json(std::ostream& out) const {
  std::vector<double> child(recs_.size(), 0.0);
  for (const Record& r : recs_) {
    if (r.parent >= 0) child[r.parent] += r.end_s - r.start_s;
  }
  struct Agg {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  std::map<std::string, Agg> by_name;
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    Agg& a = by_name[recs_[i].name];
    const double d = recs_[i].end_s - recs_[i].start_s;
    ++a.count;
    a.total_s += d;
    a.self_s += d - child[i];
  }
  out << "{\"summary\": {";
  const char* sep = "";
  for (const auto& [name, a] : by_name) {
    out << sep << "\"" << name << "\": {\"count\": " << a.count
        << ", \"total_s\": " << a.total_s << ", \"self_s\": " << a.self_s
        << "}";
    sep = ", ";
  }
  out << "}, \"spans\": [\n";
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    const Record& r = recs_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i << ", \"name\": \""
        << r.name << "\", \"start_s\": " << r.start_s
        << ", \"end_s\": " << r.end_s << ", \"parent\": " << r.parent
        << ", \"op\": " << r.op << "}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
