// ProtoMessage: declarative definition of wire messages.
//
// A protocol family defines plain payload structs that list their fields
// once, in wire order, and describe themselves for traces.  ProtoMessage
// aliases bind a payload to a unique wire type and the on-the-wire name
// used in traces:
//
//   struct LocationUpdateInfo {
//     Imsi imsi;
//     Tmsi tmsi;
//     LocationAreaId lai;
//     CellId cell;
//     static auto fields(auto& self) {
//       return std::tie(self.imsi, self.tmsi, self.lai, self.cell);
//     }
//     std::string describe() const;
//   };
//   using UmLocationUpdateRequest =
//       ProtoMessage<LocationUpdateInfo, 0x0103, "Um_Location_Update_Request">;
//
// Encoding and decoding both walk the field list, through each field
// type's one write/read pair (common/bytes.hpp), so a payload cannot encode
// differently from how it decodes.
//
// The payload is a public base so its fields read as direct members of the
// message.  Distinct aliases of the same payload are distinct C++ types,
// which keeps e.g. Um_Alerting and A_Alerting separate in flows and traces.
#pragma once

#include <algorithm>
#include <string>
#include <string_view>
#include <tuple>

#include "sim/message.hpp"

namespace vgprs {

/// Compile-time string usable as a non-type template parameter.
template <std::size_t N>
struct FixedString {
  char data[N]{};

  consteval FixedString(const char (&str)[N]) {  // NOLINT(google-explicit-constructor)
    std::copy_n(str, N, data);
  }

  [[nodiscard]] constexpr std::string_view view() const {
    return std::string_view(data, N - 1);
  }
};

/// Payload for messages that carry no parameters.
struct EmptyPayload {
  static auto fields(auto&) { return std::tie(); }
  [[nodiscard]] std::string describe() const { return {}; }
};

namespace detail {

// Correlation-id field detection: payloads opt in structurally, by carrying
// one of the well-known identity fields.  Precedence (imsi strongest) keeps
// the derived id stable across a procedure even when later messages add
// weaker identifiers.
template <typename P> concept HasImsi = requires(const P& p) { p.imsi.value(); };
template <typename P> concept HasCallRef = requires(const P& p) { p.call_ref.value(); };
template <typename P> concept HasMsrn = requires(const P& p) { p.msrn.value(); };
template <typename P> concept HasMsisdn = requires(const P& p) { p.msisdn.value(); };
template <typename P> concept HasCalled = requires(const P& p) { p.called.value(); };
template <typename P> concept HasCalling = requires(const P& p) { p.calling.value(); };
template <typename P> concept HasAlias = requires(const P& p) { p.alias.value(); };

template <typename P>
inline constexpr bool kHasCorrelationField =
    HasImsi<P> || HasCallRef<P> || HasMsrn<P> || HasMsisdn<P> ||
    HasCalled<P> || HasCalling<P> || HasAlias<P>;

/// First nonzero identity field in precedence order, else 0.
template <typename P>
std::uint64_t correlation_of(const P& p) {
  if constexpr (HasImsi<P>) {
    if (auto v = static_cast<std::uint64_t>(p.imsi.value())) return v;
  }
  if constexpr (HasCallRef<P>) {
    if (auto v = static_cast<std::uint64_t>(p.call_ref.value())) return v;
  }
  if constexpr (HasMsrn<P>) {
    if (auto v = static_cast<std::uint64_t>(p.msrn.value())) return v;
  }
  if constexpr (HasMsisdn<P>) {
    if (auto v = static_cast<std::uint64_t>(p.msisdn.value())) return v;
  }
  if constexpr (HasCalled<P>) {
    if (auto v = static_cast<std::uint64_t>(p.called.value())) return v;
  }
  if constexpr (HasCalling<P>) {
    if (auto v = static_cast<std::uint64_t>(p.calling.value())) return v;
  }
  if constexpr (HasAlias<P>) {
    if (auto v = static_cast<std::uint64_t>(p.alias.value())) return v;
  }
  return 0;
}

}  // namespace detail

template <FieldList Payload, std::uint16_t WireType, FixedString Name>
class ProtoMessage final : public Message, public Payload {
 public:
  static constexpr std::uint16_t kWireType = WireType;
  static constexpr std::string_view kName = Name.view();
  using payload_type = Payload;

  ProtoMessage() = default;
  explicit ProtoMessage(Payload payload) : Payload(std::move(payload)) {}

  [[nodiscard]] std::uint16_t wire_type() const override { return kWireType; }
  [[nodiscard]] std::string_view name() const override { return kName; }

  void encode_payload(ByteWriter& w) const override {
    write(w, static_cast<const Payload&>(*this));
  }
  Status decode_payload(ByteReader& r) override {
    read(r, static_cast<Payload&>(*this));
    return r.status();
  }

  [[nodiscard]] std::string summary() const override {
    std::string desc = Payload::describe();
    std::string out(kName);
    if (!desc.empty()) {
      out += " ";
      out += desc;
    }
    return out;
  }

  [[nodiscard]] std::uint64_t correlation() const override {
    if constexpr (detail::kHasCorrelationField<Payload>) {
      return detail::correlation_of(static_cast<const Payload&>(*this));
    } else {
      return 0;
    }
  }

  [[nodiscard]] bool correlates() const override {
    return detail::kHasCorrelationField<Payload>;
  }
};

}  // namespace vgprs
