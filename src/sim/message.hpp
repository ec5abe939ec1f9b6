// Message base class + wire-format registry.
//
// Every signaling message in the system derives from Message, declares a
// unique 16-bit wire type, and implements encode/decode of its payload.
// When a message crosses a simulated link the Network serializes it and the
// receiving end decodes a fresh instance via the registry — exactly what a
// real protocol stack does, so codec bugs surface as broken procedures.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/result.hpp"
#include "sim/arena.hpp"

namespace vgprs {

class Message;
using MessagePtr = std::shared_ptr<const Message>;

class Message {
 public:
  virtual ~Message() = default;

  // All message instances — registry factories, direct new — come from
  // the thread-cached message pool (sim/arena.hpp), so steady-state
  // dispatch recycles blocks instead of hitting the global heap.  The
  // placement forms restore the globals these class-scope overloads hide.
  static void* operator new(std::size_t n) { return pool_alloc(n); }
  static void operator delete(void* p) noexcept { pool_free(p); }
  static void operator delete(void* p, std::size_t) noexcept { pool_free(p); }
  static void* operator new(std::size_t, void* where) noexcept {
    return where;
  }
  static void operator delete(void*, void*) noexcept {}

  [[nodiscard]] virtual std::uint16_t wire_type() const = 0;
  [[nodiscard]] virtual std::string_view name() const = 0;

  virtual void encode_payload(ByteWriter& w) const = 0;
  virtual Status decode_payload(ByteReader& r) = 0;

  /// One-line human-readable parameter dump for traces.
  [[nodiscard]] virtual std::string summary() const {
    return std::string(name());
  }

  /// Correlation id for span stitching: a nonzero u64 naming the subscriber
  /// or call this message belongs to, derived from the payload's identity
  /// fields (imsi > call_ref > msrn > dialed/alias numbers — see
  /// ProtoMessage).  0 means the instance carries no usable id (no such
  /// field, or the field is unset).
  [[nodiscard]] virtual std::uint64_t correlation() const { return 0; }

  /// Type-level property: can this message type ever carry a correlation
  /// id?  Distinct from correlation() != 0 — a default-constructed UmSetup
  /// correlates() even though its imsi is still zero.  vgprs_lint uses this
  /// to reject flow messages that can never be stitched into a span.
  [[nodiscard]] virtual bool correlates() const { return false; }

  /// Full wire encoding: u16 wire type + payload.
  [[nodiscard]] std::vector<std::uint8_t> encode() const;

  /// Appends the full wire encoding to `w` — the allocation-free variant
  /// the Network's send path uses with a reusable scratch writer.
  void encode_to(ByteWriter& w) const;
};

/// Downcast for handler dispatch: `m` as a T when its wire type is T's,
/// null otherwise (and for a null `m`).  This is exactly what
/// dynamic_cast<const T*> answers, for a fraction of the cost: T must be
/// final, so a message is a T only when its dynamic type is T, and the
/// registry lint rejects two types that claim one wire type.  Builds without
/// NDEBUG check every answer against dynamic_cast.
template <typename T>
[[nodiscard]] const T* msg_cast(const Message* m) {
  static_assert(std::is_final_v<T>, "msg_cast matches exact types only");
  const T* out = m != nullptr && m->wire_type() == T::kWireType
                     ? static_cast<const T*>(m)
                     : nullptr;
  assert(out == dynamic_cast<const T*>(m));
  return out;
}

/// Global wire-type -> factory registry.  Protocol modules register their
/// message types once (idempotent) via register_message<T>().
class MessageRegistry {
 public:
  /// Makes a default-constructed instance: a pooled shared message (see
  /// pool_message), so a decoded message's object and control block come
  /// from the message pool in one block, as a sent one's do.
  using Factory = std::function<std::shared_ptr<Message>()>;

  /// Two distinct message types claimed the same wire type.  Recorded (not
  /// thrown) so vgprs_lint can report every clash in one pass.
  struct Collision {
    std::uint16_t wire_type;
    std::string existing;
    std::string incoming;
  };

  static MessageRegistry& instance();

  void add(std::uint16_t wire_type, std::string_view name, Factory factory);
  [[nodiscard]] bool known(std::uint16_t wire_type) const;
  [[nodiscard]] std::string_view name_of(std::uint16_t wire_type) const;
  /// All registered wire types (sorted), for exhaustive codec sweeps.
  [[nodiscard]] std::vector<std::uint16_t> types() const;
  /// Creates a default-constructed instance of a registered type.
  [[nodiscard]] std::shared_ptr<Message> create(std::uint16_t wire_type) const;
  /// Wire-type clashes observed by add() (same type, different name).
  [[nodiscard]] const std::vector<Collision>& collisions() const {
    return collisions_;
  }

  /// Decodes a full wire buffer (type header + payload).  The buffer must be
  /// exactly one message; trailing bytes are an error.  `depth` counts the
  /// messages the buffer is nested in (0 for a frame off a link).
  [[nodiscard]] Result<MessagePtr> decode(
      std::span<const std::uint8_t> buffer, unsigned depth = 0) const;

 private:
  struct Entry {
    std::string name;
    Factory factory;
  };
  std::unordered_map<std::uint16_t, Entry> entries_;
  std::vector<Collision> collisions_;
};

// --- nested messages -------------------------------------------------------
//
// A tunnel (Gb frame, GTP PDU, IP datagram) carries one whole message as a
// MessagePtr field.  Its wire form is a u16 length, then the inner message's
// full wire image; a null inner is the empty image.  The read decodes the
// image through the registry, so an inner that does not decode -- unknown
// type, short, trailing bytes, or nested deeper than kMaxNesting -- marks
// the field out of domain and the outer message fails to decode with it.

/// Deepest nesting a decode accepts.  Real traffic nests two levels (Gb or
/// GTP -> IP -> signalling); one level of headroom keeps the whole Fig. 3
/// stack (Gb -> GTP -> IP -> RAS) decodable, and the bound keeps a crafted
/// image from recursing without limit.
inline constexpr unsigned kMaxNesting = 3;

void write(ByteWriter& w, const MessagePtr& inner);
void read(ByteReader& r, MessagePtr& inner);

/// Length of `m`'s full wire image (0 for null), for trace text.
[[nodiscard]] std::size_t wire_size(const MessagePtr& m);

/// Builds a mutable shared message with its control block and object in one
/// pooled allocation.  Handlers fill in fields, then pass the pointer to
/// send() (which converts to MessagePtr); the registry builds every decoded
/// message the same way.  std::make_shared would bypass Message::operator
/// new — the combined block comes from std::allocate_shared over the pool
/// instead.
template <typename T, typename... Args>
std::shared_ptr<T> pool_message(Args&&... args) {
  return std::allocate_shared<T>(PoolAllocator<T>{},
                                 std::forward<Args>(args)...);
}

template <typename T>
void register_message() {
  MessageRegistry::instance().add(T::kWireType, T::kName,
                                  [] { return pool_message<T>(); });
}

/// Builds a shared message, optionally applying an initializer to set fields:
///   auto msg = make_message<UmSetup>([&](UmSetup& m) { m.digits = d; });
template <typename T>
std::shared_ptr<const T> make_message() {
  return pool_message<T>();
}

template <typename T, typename Fn>
std::shared_ptr<const T> make_message(Fn&& init) {
  auto msg = pool_message<T>();
  init(*msg);
  return msg;
}

}  // namespace vgprs
