#include "common/ids.hpp"

#include <array>
#include <charconv>
#include <cstdio>

namespace vgprs {
namespace {

std::optional<std::uint64_t> parse_digits(std::string_view text,
                                          std::uint8_t max_digits) {
  if (text.empty() || text.size() > max_digits) return std::nullopt;
  std::uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

std::string format_digits(std::uint64_t value, std::uint8_t digits) {
  std::string out(digits, '0');
  for (int i = digits - 1; i >= 0 && value != 0; --i) {
    out[static_cast<std::size_t>(i)] = static_cast<char>('0' + value % 10);
    value /= 10;
  }
  return out;
}

}  // namespace

std::optional<Imsi> Imsi::parse(std::string_view text) {
  auto value = parse_digits(text, kMaxIdentityDigits);
  if (!value || *value == 0) return std::nullopt;
  return Imsi(*value, static_cast<std::uint8_t>(text.size()));
}

std::uint16_t Imsi::mcc() const {
  std::uint64_t v = value_;
  for (int i = 0; i < digits_ - 3; ++i) v /= 10;
  return static_cast<std::uint16_t>(v);
}

std::string Imsi::to_string() const { return format_digits(value_, digits_); }

std::string Tmsi::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "0x%08X", value_);
  return buf;
}

std::optional<Msisdn> Msisdn::parse(std::string_view text) {
  auto value = parse_digits(text, kMaxIdentityDigits);
  if (!value || *value == 0) return std::nullopt;
  return Msisdn(*value, static_cast<std::uint8_t>(text.size()));
}

std::uint16_t Msisdn::country_code() const {
  std::uint64_t v = value_;
  for (int i = 0; i < digits_ - 2; ++i) v /= 10;
  return static_cast<std::uint16_t>(v);
}

std::string Msisdn::to_string() const {
  return "+" + format_digits(value_, digits_);
}

std::string Msrn::to_string() const {
  return "MSRN:" + format_digits(value_, 12);
}

std::optional<IpAddress> IpAddress::parse(std::string_view dotted) {
  std::array<std::uint32_t, 4> octets{};
  std::size_t pos = 0;
  for (int i = 0; i < 4; ++i) {
    std::size_t end = (i < 3) ? dotted.find('.', pos) : dotted.size();
    if (end == std::string_view::npos) return std::nullopt;
    auto part = dotted.substr(pos, end - pos);
    auto value = parse_digits(part, 3);
    if (!value && part != "0") return std::nullopt;
    std::uint64_t v = value.value_or(0);
    if (v > 255 || part.empty()) return std::nullopt;
    octets[static_cast<std::size_t>(i)] = static_cast<std::uint32_t>(v);
    pos = end + 1;
  }
  return IpAddress((octets[0] << 24) | (octets[1] << 16) | (octets[2] << 8) |
                   octets[3]);
}

std::string IpAddress::to_string() const {
  char buf[20];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (value_ >> 24) & 0xFF,
                (value_ >> 16) & 0xFF, (value_ >> 8) & 0xFF, value_ & 0xFF);
  return buf;
}

std::string TransportAddress::to_string() const {
  return ip_.to_string() + ":" + std::to_string(port_);
}

std::string LocationAreaId::to_string() const {
  return "LAI:" + std::to_string(code_);
}

std::string CellId::to_string() const {
  return "Cell:" + std::to_string(code_);
}

std::string TunnelId::to_string() const {
  char buf[16];
  std::snprintf(buf, sizeof buf, "TEID:%08X", value_);
  return buf;
}

std::string Nsapi::to_string() const {
  return "NSAPI:" + std::to_string(value_);
}

std::string CallRef::to_string() const {
  return "CR:" + std::to_string(value_);
}

}  // namespace vgprs
