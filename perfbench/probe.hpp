// Process-level probes for the benchmark: wall/CPU/steal clocks, peak RSS,
// a heap-allocation counter, and the benchmark's own span log.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Wall clock, this process's CPU time and the host's steal time at one
/// instant.  Differences of two readings describe one phase; steal comes
/// from the aggregate "cpu" line of /proc/stat (0 where that is missing).
struct Usage {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double steal_s = 0.0;

  static Usage now();
  Usage operator-(const Usage& o) const {
    return {wall_s - o.wall_s, cpu_s - o.cpu_s, steal_s - o.steal_s};
  }
  Usage& operator+=(const Usage& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    steal_s += o.steal_s;
    return *this;
  }
};

/// Seconds on the steady clock since the first call.
double wall_now();

/// Peak resident set of this process, in MiB.
double peak_rss_mb();

/// Global operator new calls made while counting was on (the counter is
/// defined next to this binary's replacement operator new).
void count_heap_allocs(bool on);
std::uint64_t heap_allocs();

/// The benchmark's own spans around each call it makes into a layer: the
/// builders, the user-action loops and every run_until_idle.  Kept in
/// memory while enabled and written once at exit.
class SpanLog {
 public:
  struct Record {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;       // index of the enclosing span, -1 at top level
    std::int64_t op = -1;  // wave number, -1 when not inside a wave
  };

  void set_enabled(bool on) { enabled_ = on; }
  /// Opens a span under the innermost open one; returns its index (-1 when
  /// disabled).
  int open(const char* name, std::int64_t op = -1);
  void close(int index);

  /// Per span name: count, total seconds and self seconds (duration minus
  /// the part covered by child spans).
  void write_json(std::ostream& out) const;

 private:
  bool enabled_ = false;
  std::vector<Record> recs_;
  std::vector<int> stack_;
};

/// RAII span on a SpanLog (null log = no-op).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::int64_t op = -1)
      : log_(log), id_(log != nullptr ? log->open(name, op) : -1) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  int id_;
};

}  // namespace perfbench
