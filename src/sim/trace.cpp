#include "sim/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace vgprs {

void TraceRecorder::set_mode(TraceMode mode) {
  mode_ = mode;
  records_.clear();
  records_.shrink_to_fit();
}

TraceEntry TraceRecorder::entry(const TraceRecord& r) const {
  const auto* note = msg_cast<TraceNote>(r.msg.get());
  return TraceEntry{note != nullptr ? note->at : r.key.at,
                    (*nodes_)[r.from.value() - 1]->name(),
                    (*nodes_)[r.to.value() - 1]->name(), r.msg->name(),
                    r.msg.get()};
}

std::vector<TraceEntry> TraceRecorder::entries() const {
  std::vector<TraceEntry> out;
  out.reserve(records_.size());
  for_each([&](const TraceEntry& e) { out.push_back(e); });
  return out;
}

bool TraceRecorder::matches(const TraceEntry& e, const FlowStep& s) {
  if (!s.from.empty() && e.from != s.from) return false;
  if (!s.to.empty() && e.to != s.to) return false;
  if (!s.message.empty() && e.message != s.message) return false;
  return true;
}

std::size_t TraceRecorder::count(std::string_view message) const {
  std::size_t n = 0;
  for (const TraceRecord& r : records_) {
    if (r.msg->name() == message) ++n;
  }
  return n;
}

std::size_t TraceRecorder::count(const FlowStep& step) const {
  std::size_t n = 0;
  for_each([&](const TraceEntry& e) {
    if (matches(e, step)) ++n;
  });
  return n;
}

bool TraceRecorder::contains_flow(const std::vector<FlowStep>& steps,
                                  std::size_t* failed_step) const {
  std::size_t next = 0;
  for_each([&](const TraceEntry& e) {
    if (next < steps.size() && matches(e, steps[next])) ++next;
  });
  if (failed_step != nullptr) *failed_step = next;
  return next == steps.size();
}

std::optional<SimTime> TraceRecorder::first_time(
    std::string_view message) const {
  std::optional<SimTime> found;
  for_each([&](const TraceEntry& e) {
    if (!found && e.message == message) found = e.at;
  });
  return found;
}

std::optional<SimTime> TraceRecorder::last_time(
    std::string_view message) const {
  std::optional<SimTime> found;
  for_each([&](const TraceEntry& e) {
    if (e.message == message) found = e.at;
  });
  return found;
}

std::string TraceRecorder::to_string(std::size_t max_entries) const {
  std::ostringstream os;
  const std::size_t n = std::min(records_.size(), max_entries);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceEntry e = entry(records_[i]);
    const std::string summary = e.summary();
    char line[256];
    std::snprintf(line, sizeof line, "%10.3f ms  %-14.*s -> %-14.*s  %s",
                  e.at.as_millis(), static_cast<int>(e.from.size()),
                  e.from.data(), static_cast<int>(e.to.size()), e.to.data(),
                  summary.c_str());
    os << line << '\n';
  }
  if (n < records_.size()) {
    os << "  ... (" << (records_.size() - n) << " more)\n";
  }
  return os.str();
}

}  // namespace vgprs
