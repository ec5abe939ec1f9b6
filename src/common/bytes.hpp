// Bounds-checked big-endian byte stream reader/writer used by every
// protocol codec, and the wire form of every field type a message carries.
// Messages are serialized when they cross simulated links, so a codec bug
// corrupts live flows rather than only failing unit tests.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/ids.hpp"
#include "common/result.hpp"

namespace vgprs {

class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v >> 32));
    u32(static_cast<std::uint32_t>(v));
  }
  /// IEEE-754 double, bit-exact (the binary trace's metric records must
  /// round-trip values the JSON exporters then format identically).
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  /// Length-prefixed (u16) UTF-8 string.
  void str(std::string_view s) {
    u16(static_cast<std::uint16_t>(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  /// Overwrites the u16 at `pos`: a length prefix written before the
  /// contents it counts.
  void patch_u16(std::size_t pos, std::uint16_t v) {
    buf_[pos] = static_cast<std::uint8_t>(v >> 8);
    buf_[pos + 1] = static_cast<std::uint8_t>(v);
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

  /// Drops the contents but keeps the capacity, so a long-lived writer
  /// (e.g. the Network's per-send scratch buffer) stops allocating once it
  /// has seen the largest message.
  void clear() { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  /// `depth` counts the messages this buffer is nested in (0 for a frame
  /// off a link); the nested-message field bounds it.
  explicit ByteReader(std::span<const std::uint8_t> data, unsigned depth = 0)
      : data_(data), depth_(depth) {}

  [[nodiscard]] unsigned depth() const { return depth_; }
  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  /// True when the whole buffer was consumed without error.
  [[nodiscard]] bool exhausted() const { return !failed_ && remaining() == 0; }

  std::uint8_t u8() {
    if (!require(1)) return 0;
    return data_[pos_++];
  }
  std::uint16_t u16() {
    if (!require(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(
        (std::uint16_t{data_[pos_]} << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t hi = u16();
    std::uint32_t lo = u16();
    return (hi << 16) | lo;
  }
  std::uint64_t u64() {
    std::uint64_t hi = u32();
    std::uint64_t lo = u32();
    return (hi << 32) | lo;
  }
  double f64() { return std::bit_cast<double>(u64()); }
  /// Length-prefixed (u16) byte blob, as a view into the buffer.
  std::span<const std::uint8_t> bytes() {
    std::uint16_t n = u16();
    if (!require(n)) return {};
    std::span<const std::uint8_t> out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::string str() {
    std::uint16_t n = u16();
    if (!require(n)) return {};
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  /// Marks the current field as out-of-domain (a non-canonical value).
  void mark_bad_value() { bad_value_ = true; }

  [[nodiscard]] Status status() const {
    if (failed_) return Status(ErrorCode::kDecodeTruncated, "short buffer");
    if (bad_value_) {
      return Status(ErrorCode::kDecodeBadValue, "field value out of domain");
    }
    return Status::ok_status();
  }

 private:
  bool require(std::size_t n) {
    if (failed_ || remaining() < n) {
      failed_ = true;
      return false;
    }
    return true;
  }

  std::span<const std::uint8_t> data_;
  unsigned depth_ = 0;
  std::size_t pos_ = 0;
  bool failed_ = false;
  bool bad_value_ = false;
};

// --- field wire forms ----------------------------------------------------
//
// Each field type's wire form is defined once, as one write/read overload
// pair.  A payload lists its fields once, in wire order:
//
//   static auto fields(auto& self) { return std::tie(self.imsi, self.cause); }
//
// and write()/read() walk that list, so a payload cannot encode differently
// from how it decodes.  A read leaves failures in the reader's status().

inline void write(ByteWriter& w, std::uint8_t v) { w.u8(v); }
inline void read(ByteReader& r, std::uint8_t& v) { v = r.u8(); }
inline void write(ByteWriter& w, std::uint16_t v) { w.u16(v); }
inline void read(ByteReader& r, std::uint16_t& v) { v = r.u16(); }
inline void write(ByteWriter& w, std::uint32_t v) { w.u32(v); }
inline void read(ByteReader& r, std::uint32_t& v) { v = r.u32(); }
inline void write(ByteWriter& w, std::uint64_t v) { w.u64(v); }
inline void read(ByteReader& r, std::uint64_t& v) { v = r.u64(); }
/// Signed 64-bit values (latency probes) travel as their u64 bit pattern.
inline void write(ByteWriter& w, std::int64_t v) {
  w.u64(static_cast<std::uint64_t>(v));
}
inline void read(ByteReader& r, std::int64_t& v) {
  v = static_cast<std::int64_t>(r.u64());
}

inline void write(ByteWriter& w, bool v) { w.u8(v ? 1 : 0); }
/// Booleans have exactly two legal wire values; anything else is a
/// non-canonical encoding and must be refused, not normalized (otherwise
/// decode -> re-encode changes bytes and relays corrupt the stream).
inline void read(ByteReader& r, bool& v) {
  std::uint8_t b = r.u8();
  if (b > 1) r.mark_bad_value();
  v = b != 0;
}

/// Scoped enums travel as their one-byte underlying value.
template <typename E>
  requires std::is_enum_v<E>
void write(ByteWriter& w, E v) {
  static_assert(std::is_same_v<std::underlying_type_t<E>, std::uint8_t>);
  w.u8(static_cast<std::uint8_t>(v));
}
template <typename E>
  requires std::is_enum_v<E>
void read(ByteReader& r, E& v) {
  v = static_cast<E>(r.u8());
}

inline void write(ByteWriter& w, const std::string& v) { w.str(v); }
inline void read(ByteReader& r, std::string& v) { v = r.str(); }

inline void write(ByteWriter& w, const Imsi& v) {
  w.u64(v.value());
  w.u8(v.digits());
}
/// An identity's digit count is at most kMaxIdentityDigits, the most
/// parse() accepts; a larger count is out of domain, as for bool.
inline std::uint8_t read_digit_count(ByteReader& r) {
  std::uint8_t digits = r.u8();
  if (digits > kMaxIdentityDigits) r.mark_bad_value();
  return digits;
}
inline void read(ByteReader& r, Imsi& v) {
  std::uint64_t value = r.u64();
  v = Imsi(value, read_digit_count(r));
}
inline void write(ByteWriter& w, const Msisdn& v) {
  w.u64(v.value());
  w.u8(v.digits());
}
inline void read(ByteReader& r, Msisdn& v) {
  std::uint64_t value = r.u64();
  v = Msisdn(value, read_digit_count(r));
}
inline void write(ByteWriter& w, const Tmsi& v) { w.u32(v.value()); }
inline void read(ByteReader& r, Tmsi& v) { v = Tmsi(r.u32()); }
inline void write(ByteWriter& w, const Msrn& v) { w.u64(v.value()); }
inline void read(ByteReader& r, Msrn& v) { v = Msrn(r.u64()); }
inline void write(ByteWriter& w, const IpAddress& v) { w.u32(v.value()); }
inline void read(ByteReader& r, IpAddress& v) { v = IpAddress(r.u32()); }
inline void write(ByteWriter& w, const TransportAddress& v) {
  write(w, v.ip());
  w.u16(v.port());
}
inline void read(ByteReader& r, TransportAddress& v) {
  IpAddress ip;
  read(r, ip);
  v = TransportAddress(ip, r.u16());
}
inline void write(ByteWriter& w, const LocationAreaId& v) { w.u32(v.code()); }
inline void read(ByteReader& r, LocationAreaId& v) {
  v = LocationAreaId(r.u32());
}
inline void write(ByteWriter& w, const CellId& v) { w.u32(v.code()); }
inline void read(ByteReader& r, CellId& v) { v = CellId(r.u32()); }
inline void write(ByteWriter& w, const TunnelId& v) { w.u32(v.value()); }
inline void read(ByteReader& r, TunnelId& v) { v = TunnelId(r.u32()); }
inline void write(ByteWriter& w, const Nsapi& v) { w.u8(v.value()); }
inline void read(ByteReader& r, Nsapi& v) { v = Nsapi(r.u8()); }
inline void write(ByteWriter& w, const CallRef& v) { w.u32(v.value()); }
inline void read(ByteReader& r, CallRef& v) { v = CallRef(r.u32()); }

/// A struct that lists its fields: `T::fields(v)` ties them in wire order.
template <typename T>
concept FieldList = requires(T& v) { T::fields(v); };

template <FieldList T>
void write(ByteWriter& w, const T& v) {
  std::apply([&w](const auto&... f) { (write(w, f), ...); }, T::fields(v));
}
template <FieldList T>
void read(ByteReader& r, T& v) {
  std::apply([&r](auto&... f) { (read(r, f), ...); }, T::fields(v));
}

/// A sequence of field lists: a u8 count, then the elements.
template <FieldList T>
void write(ByteWriter& w, const std::vector<T>& v) {
  w.u8(static_cast<std::uint8_t>(v.size()));
  for (const T& e : v) write(w, e);
}
template <FieldList T>
void read(ByteReader& r, std::vector<T>& v) {
  std::uint8_t n = r.u8();
  v.clear();
  for (std::uint8_t i = 0; i < n; ++i) read(r, v.emplace_back());
}

/// Hex dump helper for traces and debugging.
std::string hex_dump(std::span<const std::uint8_t> data,
                     std::size_t max_bytes = 64);

}  // namespace vgprs
