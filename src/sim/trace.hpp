// TraceRecorder: the one record stream of message deliveries.  Tests assert
// that a procedure's message flow matches the paper's figures step by step,
// benches print the flows the way the paper draws them, and the exports
// and the btrace capture (sim/btrace.hpp) serialize the same records.
//
// Recording a delivery costs one small TraceRecord: the DispatchKey, the
// two NodeIds and a reference to the delivered message, which stays alive
// until clear().  No string is built at dispatch; a query resolves the
// node and message names as string_views and formats the parameter
// summary only when TraceEntry::summary() is called.  Two modes:
//   kFull     — every delivery kept, in order (default; what flow tests use)
//   kDisabled — enabled() is false, so the hot path records nothing
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/dispatch_key.hpp"
#include "sim/message.hpp"
#include "sim/node.hpp"
#include "sim/time.hpp"

namespace vgprs {

/// A fault annotation in the record stream: a non-wire message whose
/// name() is the fault ("fault.drop(GPRS_Attach_Request)") and whose
/// summary() is its detail.  It carries its own time, because a fault
/// found while sending is stamped with the send time, not the key's.
class TraceNote final : public Message {
 public:
  static constexpr std::uint16_t kWireType = 0;  // never registered

  TraceNote(SimTime when, std::string fault, std::string text)
      : at(when), what(std::move(fault)), detail(std::move(text)) {}

  [[nodiscard]] std::uint16_t wire_type() const override { return kWireType; }
  [[nodiscard]] std::string_view name() const override { return what; }
  [[nodiscard]] std::string summary() const override { return detail; }
  // Never sent: the btrace writer stores a note as a kFault record.
  void encode_payload(ByteWriter&) const override {}
  Status decode_payload(ByteReader&) override {
    return Error{ErrorCode::kDecodeBadValue, "TraceNote has no wire form"};
  }

  SimTime at;
  std::string what;
  std::string detail;
};

/// The recorded form of one delivery or fault annotation.
struct TraceRecord {
  DispatchKey key;
  NodeId from;
  NodeId to;
  MessagePtr msg;
};

/// A delivery as the queries and exports read it.  The views stay valid
/// while their owners live: the Network and its trace until clear(), or
/// a DecodedRun.
struct TraceEntry {
  SimTime at;
  std::string_view from;
  std::string_view to;
  std::string_view message;      // message name
  const Message* msg = nullptr;  // the delivered message (or TraceNote)

  /// Parameter dump, formatted on each call.
  [[nodiscard]] std::string summary() const { return msg->summary(); }
};

/// One expected hop of a message flow: `from --message--> to`.
/// Empty strings act as wildcards.
struct FlowStep {
  std::string from;
  std::string message;
  std::string to;
};

enum class TraceMode : std::uint8_t { kFull, kDisabled };

class TraceRecorder {
 public:
  /// `nodes` (index = NodeId - 1) names the records' endpoints.
  explicit TraceRecorder(const std::vector<Node*>& nodes) : nodes_(&nodes) {}

  /// Switches recording mode; drops anything already recorded.
  void set_mode(TraceMode mode);
  [[nodiscard]] TraceMode mode() const { return mode_; }
  /// True when the Network records deliveries.
  [[nodiscard]] bool enabled() const { return mode_ != TraceMode::kDisabled; }

  /// Appends `r`; the Network records only while enabled(), and a sharded
  /// run merges its per-shard buffers in here in DispatchKey order.
  void record(TraceRecord r) { records_.push_back(std::move(r)); }
  /// Drops every record and releases the messages they hold.
  void clear() { records_.clear(); }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }
  [[nodiscard]] TraceEntry entry(const TraceRecord& r) const;
  /// Every entry, in delivery order.
  [[nodiscard]] std::vector<TraceEntry> entries() const;

  /// Visits entries in delivery order.
  template <typename F>
  void for_each(F&& f) const {
    for (const TraceRecord& r : records_) f(entry(r));
  }

  /// Number of deliveries of the named message (any endpoints).
  [[nodiscard]] std::size_t count(std::string_view message) const;

  /// Number of deliveries matching the (possibly wildcarded) step.
  [[nodiscard]] std::size_t count(const FlowStep& step) const;

  /// True if `steps` occur in order as a subsequence of the trace
  /// (other messages may be interleaved — the figures show the principal
  /// messages, not every ack).  On failure returns the index of the first
  /// unmatched step via `failed_step`.
  [[nodiscard]] bool contains_flow(const std::vector<FlowStep>& steps,
                                   std::size_t* failed_step = nullptr) const;

  /// Time of the first delivery of `message`, if any.
  [[nodiscard]] std::optional<SimTime> first_time(
      std::string_view message) const;
  [[nodiscard]] std::optional<SimTime> last_time(
      std::string_view message) const;

  /// Renders the trace as an aligned message-sequence listing.
  [[nodiscard]] std::string to_string(std::size_t max_entries = 200) const;

 private:
  static bool matches(const TraceEntry& e, const FlowStep& s);
  const std::vector<Node*>* nodes_;
  std::vector<TraceRecord> records_;
  TraceMode mode_ = TraceMode::kFull;
};

}  // namespace vgprs
