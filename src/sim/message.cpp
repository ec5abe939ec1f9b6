#include "sim/message.hpp"
#include <algorithm>

namespace vgprs {

std::vector<std::uint8_t> Message::encode() const {
  ByteWriter w;
  encode_to(w);
  return w.take();
}

void Message::encode_to(ByteWriter& w) const {
  w.u16(wire_type());
  encode_payload(w);
}

MessageRegistry& MessageRegistry::instance() {
  static MessageRegistry registry;
  return registry;
}

void MessageRegistry::add(std::uint16_t wire_type, std::string_view name,
                          Factory factory) {
  // Idempotent: protocol modules may register from several translation
  // units.  A *different* name on the same wire type is a programming error,
  // recorded for vgprs_lint rather than thrown so every clash is reported.
  auto it = entries_.find(wire_type);
  if (it != entries_.end()) {
    if (it->second.name != name) {
      collisions_.push_back(
          Collision{wire_type, it->second.name, std::string(name)});
    }
    return;
  }
  entries_.emplace(wire_type, Entry{std::string(name), std::move(factory)});
}

bool MessageRegistry::known(std::uint16_t wire_type) const {
  return entries_.contains(wire_type);
}

std::string_view MessageRegistry::name_of(std::uint16_t wire_type) const {
  auto it = entries_.find(wire_type);
  return it == entries_.end() ? std::string_view{"<unknown>"}
                              : std::string_view{it->second.name};
}

std::vector<std::uint16_t> MessageRegistry::types() const {
  std::vector<std::uint16_t> out;
  out.reserve(entries_.size());
  for (const auto& [type, entry] : entries_) {
    (void)entry;
    out.push_back(type);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::shared_ptr<Message> MessageRegistry::create(
    std::uint16_t wire_type) const {
  auto it = entries_.find(wire_type);
  return it == entries_.end() ? nullptr : it->second.factory();
}

Result<MessagePtr> MessageRegistry::decode(
    std::span<const std::uint8_t> buffer, unsigned depth) const {
  ByteReader r(buffer, depth);
  std::uint16_t type = r.u16();
  if (r.failed()) {
    return Error{ErrorCode::kDecodeTruncated, "missing wire type"};
  }
  auto it = entries_.find(type);
  if (it == entries_.end()) {
    return Error{ErrorCode::kDecodeUnknownType,
                 "wire type " + std::to_string(type)};
  }
  std::shared_ptr<Message> msg = it->second.factory();
  if (Status st = msg->decode_payload(r); !st.ok()) {
    return Error{st.error().code,
                 it->second.name + ": " + st.error().message};
  }
  if (r.failed()) {
    return Error{ErrorCode::kDecodeTruncated, it->second.name};
  }
  if (r.remaining() != 0) {
    return Error{ErrorCode::kDecodeBadValue,
                 it->second.name + ": trailing bytes"};
  }
  return MessagePtr(std::move(msg));
}

void write(ByteWriter& w, const MessagePtr& inner) {
  const std::size_t at = w.size();
  w.u16(0);
  if (inner == nullptr) return;
  inner->encode_to(w);
  w.patch_u16(at, static_cast<std::uint16_t>(w.size() - at - 2));
}

void read(ByteReader& r, MessagePtr& inner) {
  inner = nullptr;
  const std::span<const std::uint8_t> image = r.bytes();
  if (image.empty()) return;
  if (r.depth() >= kMaxNesting) {
    r.mark_bad_value();
    return;
  }
  auto decoded = MessageRegistry::instance().decode(image, r.depth() + 1);
  if (!decoded.ok()) {
    r.mark_bad_value();
    return;
  }
  inner = std::move(decoded).value();
}

std::size_t wire_size(const MessagePtr& m) {
  if (m == nullptr) return 0;
  ByteWriter w;
  m->encode_to(w);
  return w.size();
}

}  // namespace vgprs
