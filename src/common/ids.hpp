// Strongly typed identifiers used throughout the GSM/GPRS/H.323 stack.
//
// Every identifier the paper's procedures carry (IMSI, TMSI, MSISDN, IP
// addresses, location areas, tunnel endpoints, ...) gets its own type so
// that a call-routing function cannot silently accept an IMSI where an
// MSISDN is required.  All types are small value types with total ordering
// and hashing so they can key the various location/context tables.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace vgprs {

/// The most digits an IMSI or an MSISDN has (E.212, E.164).
inline constexpr std::uint8_t kMaxIdentityDigits = 15;

/// International Mobile Subscriber Identity: up to 15 decimal digits
/// (MCC + MNC + MSIN).  Stored as a packed integer; the digit count is
/// preserved so formatting round-trips.
class Imsi {
 public:
  constexpr Imsi() = default;
  constexpr Imsi(std::uint64_t value, std::uint8_t digits = 15)
      : value_(value), digits_(digits) {}

  /// Parses a decimal digit string ("466920123456789").  Returns nullopt on
  /// empty input, non-digits, or more than 15 digits.
  static std::optional<Imsi> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr std::uint8_t digits() const { return digits_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }

  /// Mobile Country Code: the first three digits.
  [[nodiscard]] std::uint16_t mcc() const;

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Imsi&, const Imsi&) = default;

 private:
  std::uint64_t value_ = 0;
  std::uint8_t digits_ = 0;
};

/// Temporary Mobile Subscriber Identity: an opaque 32-bit alias assigned by
/// the VLR to avoid sending the IMSI over the air.
class Tmsi {
 public:
  constexpr Tmsi() = default;
  constexpr explicit Tmsi(std::uint32_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Tmsi&, const Tmsi&) = default;

 private:
  std::uint32_t value_ = 0;
};

/// Mobile Station ISDN number (the E.164 phone number dialled to reach the
/// subscriber).  Also used for the H.323 alias address in RAS registration.
class Msisdn {
 public:
  constexpr Msisdn() = default;
  constexpr Msisdn(std::uint64_t value, std::uint8_t digits)
      : value_(value), digits_(digits) {}

  static std::optional<Msisdn> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr std::uint8_t digits() const { return digits_; }
  [[nodiscard]] constexpr bool valid() const { return digits_ != 0; }

  /// E.164 country code: leading 1-3 digits.  We use a simplified scheme in
  /// which the first two digits are the country code (e.g. "44" UK,
  /// "85" Hong Kong in our scenarios).
  [[nodiscard]] std::uint16_t country_code() const;

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Msisdn&, const Msisdn&) = default;

 private:
  std::uint64_t value_ = 0;
  std::uint8_t digits_ = 0;
};

/// Mobile Station Roaming Number: a temporary E.164 number the VLR hands to
/// the HLR so the GMSC can route an incoming call to the serving MSC
/// (the second leg of the tromboning scenario, Fig. 7).
class Msrn {
 public:
  constexpr Msrn() = default;
  constexpr explicit Msrn(std::uint64_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint64_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Msrn&, const Msrn&) = default;

 private:
  std::uint64_t value_ = 0;
};

/// IPv4 address, host byte order internally.
class IpAddress {
 public:
  constexpr IpAddress() = default;
  constexpr explicit IpAddress(std::uint32_t value) : value_(value) {}
  constexpr IpAddress(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                      std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  static std::optional<IpAddress> parse(std::string_view dotted);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const IpAddress&, const IpAddress&) =
      default;

 private:
  std::uint32_t value_ = 0;
};

/// Transport address (IP + port) as used by H.225.0 RAS and call signaling.
class TransportAddress {
 public:
  constexpr TransportAddress() = default;
  constexpr TransportAddress(IpAddress ip, std::uint16_t port)
      : ip_(ip), port_(port) {}

  [[nodiscard]] constexpr IpAddress ip() const { return ip_; }
  [[nodiscard]] constexpr std::uint16_t port() const { return port_; }
  [[nodiscard]] constexpr bool valid() const { return ip_.valid(); }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const TransportAddress&,
                                    const TransportAddress&) = default;

 private:
  IpAddress ip_;
  std::uint16_t port_ = 0;
};

/// GSM Location Area Identity (MCC+MNC+LAC collapsed to a single code per
/// simulated PLMN).
class LocationAreaId {
 public:
  constexpr LocationAreaId() = default;
  constexpr explicit LocationAreaId(std::uint32_t code) : code_(code) {}

  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }
  [[nodiscard]] constexpr bool valid() const { return code_ != 0; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const LocationAreaId&,
                                    const LocationAreaId&) = default;

 private:
  std::uint32_t code_ = 0;
};

/// Cell identity within a location area.
class CellId {
 public:
  constexpr CellId() = default;
  constexpr explicit CellId(std::uint32_t code) : code_(code) {}

  [[nodiscard]] constexpr std::uint32_t code() const { return code_; }
  [[nodiscard]] constexpr bool valid() const { return code_ != 0; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const CellId&, const CellId&) = default;

 private:
  std::uint32_t code_ = 0;
};

/// GPRS Tunnel Endpoint Identifier (GTP).
class TunnelId {
 public:
  constexpr TunnelId() = default;
  constexpr explicit TunnelId(std::uint32_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const TunnelId&, const TunnelId&) =
      default;

 private:
  std::uint32_t value_ = 0;
};

/// Network Service Access Point Identifier distinguishing PDP contexts of
/// one subscriber (vGPRS uses two per MS: signaling and voice).
class Nsapi {
 public:
  constexpr Nsapi() = default;
  constexpr explicit Nsapi(std::uint8_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint8_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ >= 5; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Nsapi&, const Nsapi&) = default;

 private:
  std::uint8_t value_ = 0;  // valid NSAPIs are 5..15
};

/// H.225 call reference value (Q.931 call identifier).
class CallRef {
 public:
  constexpr CallRef() = default;
  constexpr explicit CallRef(std::uint32_t value) : value_(value) {}

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr bool valid() const { return value_ != 0; }
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const CallRef&, const CallRef&) = default;

 private:
  std::uint32_t value_ = 0;
};

}  // namespace vgprs

template <>
struct std::hash<vgprs::Imsi> {
  std::size_t operator()(const vgprs::Imsi& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::Tmsi> {
  std::size_t operator()(const vgprs::Tmsi& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::Msisdn> {
  std::size_t operator()(const vgprs::Msisdn& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::Msrn> {
  std::size_t operator()(const vgprs::Msrn& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::IpAddress> {
  std::size_t operator()(const vgprs::IpAddress& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::TunnelId> {
  std::size_t operator()(const vgprs::TunnelId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::CallRef> {
  std::size_t operator()(const vgprs::CallRef& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.value());
  }
};
template <>
struct std::hash<vgprs::LocationAreaId> {
  std::size_t operator()(const vgprs::LocationAreaId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.code());
  }
};
template <>
struct std::hash<vgprs::CellId> {
  std::size_t operator()(const vgprs::CellId& id) const noexcept {
    return std::hash<std::uint32_t>{}(id.code());
  }
};
