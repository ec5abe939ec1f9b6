// Core GSM data types shared by the MAP layer, the location registers and
// the (V)MSC: authentication triplets, subscriber profiles and QoS.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.hpp"
#include "common/ids.hpp"

namespace vgprs {

/// GSM authentication triplet produced by the AuC function of the HLR from
/// the subscriber key Ki and a random challenge (A3/A8 algorithms).
struct AuthTriplet {
  std::uint64_t rand = 0;  // RAND challenge
  std::uint32_t sres = 0;  // expected signed response (A3)
  std::uint64_t kc = 0;    // ciphering key (A8)

  static auto fields(auto& self) {
    return std::tie(self.rand, self.sres, self.kc);
  }

  friend bool operator==(const AuthTriplet&, const AuthTriplet&) = default;
};

/// Subscription data the HLR pushes to the VLR via MAP_Insert_Subs_Data.
struct SubscriberProfile {
  Msisdn msisdn;
  bool international_calls_allowed = true;
  bool gprs_allowed = true;
  bool voip_allowed = true;        // vGPRS service subscription
  IpAddress static_pdp_address;    // only set for static-PDP subscribers

  static auto fields(auto& self) {
    return std::tie(self.msisdn, self.international_calls_allowed,
                    self.gprs_allowed, self.voip_allowed,
                    self.static_pdp_address);
  }

  friend bool operator==(const SubscriberProfile&,
                         const SubscriberProfile&) = default;
};

/// GPRS QoS profile (simplified from GSM 03.60): the paper distinguishes a
/// low-priority signaling context from a real-time voice context.
enum class QosClass : std::uint8_t {
  kBackground = 0,   // low priority — vGPRS H.323 signaling context
  kInteractive = 1,
  kStreaming = 2,
  kConversational = 3,  // real-time — vGPRS voice context
};

[[nodiscard]] constexpr const char* to_string(QosClass q) {
  switch (q) {
    case QosClass::kBackground: return "background";
    case QosClass::kInteractive: return "interactive";
    case QosClass::kStreaming: return "streaming";
    case QosClass::kConversational: return "conversational";
  }
  return "?";
}

struct QosProfile {
  QosClass traffic_class = QosClass::kBackground;
  std::uint16_t mean_throughput_kbps = 8;
  std::uint8_t priority = 3;  // 1 = highest

  static auto fields(auto& self) {
    return std::tie(self.traffic_class, self.mean_throughput_kbps,
                    self.priority);
  }

  friend bool operator==(const QosProfile&, const QosProfile&) = default;
};

/// Call clearing causes (subset of Q.850).
enum class ClearCause : std::uint8_t {
  kNormal = 16,
  kUserBusy = 17,
  kNoAnswer = 19,
  kCallRejected = 21,
  kNoChannel = 34,
  kNetworkFailure = 38,
  kUnallocatedNumber = 1,
};

}  // namespace vgprs
