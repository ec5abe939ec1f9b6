// H.225.0 message catalog: RAS (registration, admission, status — the
// gatekeeper protocol) and Q.931-based call signaling (H.225.0 call
// control).  Wire ranges: RAS 0x07xx, Q.931 0x08xx.
#pragma once

#include "common/ids.hpp"
#include "sim/proto.hpp"

namespace vgprs {

// --- RAS payloads -------------------------------------------------------------

struct RasRegistrationRequestInfo {
  TransportAddress call_signal_address;
  Msisdn alias;  // E.164 alias: the subscriber's MSISDN

  static auto fields(auto& self) {
    return std::tie(self.call_signal_address, self.alias);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + alias.to_string() + " @ " +
           call_signal_address.to_string() + "}";
  }
};

struct RasRegistrationConfirmInfo {
  Msisdn alias;
  std::uint32_t endpoint_id = 0;

  static auto fields(auto& self) {
    return std::tie(self.alias, self.endpoint_id);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + alias.to_string() + " ep=" + std::to_string(endpoint_id) +
           "}";
  }
};

struct RasRejectInfo {
  Msisdn alias;
  CallRef call_ref;
  std::uint8_t cause = 0;

  static auto fields(auto& self) {
    return std::tie(self.alias, self.call_ref, self.cause);
  }
  [[nodiscard]] std::string describe() const {
    return "{cause=" + std::to_string(cause) + "}";
  }
};

struct RasAdmissionRequestInfo {
  std::uint32_t endpoint_id = 0;
  CallRef call_ref;
  Msisdn calling;
  Msisdn called;
  bool answer_call = false;  // true when the *answering* endpoint asks
  std::uint16_t bandwidth_kbps = 64;  // requested media bandwidth

  static auto fields(auto& self) {
    return std::tie(self.endpoint_id, self.call_ref, self.calling, self.called,
                    self.answer_call, self.bandwidth_kbps);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + " -> " + called.to_string() +
           (answer_call ? " answer" : "") + "}";
  }
};

struct RasAdmissionConfirmInfo {
  CallRef call_ref;
  TransportAddress dest_call_signal_address;
  std::uint16_t bandwidth_kbps = 64;

  static auto fields(auto& self) {
    return std::tie(self.call_ref, self.dest_call_signal_address,
                    self.bandwidth_kbps);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + " dest=" +
           dest_call_signal_address.to_string() + "}";
  }
};

struct RasDisengageInfo {
  std::uint32_t endpoint_id = 0;
  CallRef call_ref;

  static auto fields(auto& self) {
    return std::tie(self.endpoint_id, self.call_ref);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + "}";
  }
};

// --- Q.931 / H.225.0 call signaling payloads --------------------------------------

struct Q931SetupInfo {
  CallRef call_ref;
  Msisdn calling;
  Msisdn called;
  TransportAddress src_signal_address;  // answer path for Q.931 responses
  TransportAddress media_address;       // caller's RTP sink

  static auto fields(auto& self) {
    return std::tie(self.call_ref, self.calling, self.called,
                    self.src_signal_address, self.media_address);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + " " + calling.to_string() + " -> " +
           called.to_string() + "}";
  }
};

struct Q931CallRefInfo {
  CallRef call_ref;

  static auto fields(auto& self) { return std::tie(self.call_ref); }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + "}";
  }
};

struct Q931ConnectInfo {
  CallRef call_ref;
  TransportAddress media_address;  // callee's RTP sink

  static auto fields(auto& self) {
    return std::tie(self.call_ref, self.media_address);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + "}";
  }
};

struct Q931ReleaseInfo {
  CallRef call_ref;
  std::uint8_t cause = 16;

  static auto fields(auto& self) { return std::tie(self.call_ref, self.cause); }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() +
           " cause=" + std::to_string(cause) + "}";
  }
};

// --- aliases -------------------------------------------------------------------------

using RasRrq =
    ProtoMessage<RasRegistrationRequestInfo, 0x0701, "RAS_RRQ">;
using RasRcf =
    ProtoMessage<RasRegistrationConfirmInfo, 0x0702, "RAS_RCF">;
using RasRrj = ProtoMessage<RasRejectInfo, 0x0703, "RAS_RRJ">;
using RasUrq =
    ProtoMessage<RasRegistrationConfirmInfo, 0x0704, "RAS_URQ">;
using RasUcf =
    ProtoMessage<RasRegistrationConfirmInfo, 0x0705, "RAS_UCF">;
using RasArq = ProtoMessage<RasAdmissionRequestInfo, 0x0706, "RAS_ARQ">;
using RasAcf = ProtoMessage<RasAdmissionConfirmInfo, 0x0707, "RAS_ACF">;
using RasArj = ProtoMessage<RasRejectInfo, 0x0708, "RAS_ARJ">;
using RasDrq = ProtoMessage<RasDisengageInfo, 0x0709, "RAS_DRQ">;
using RasDcf = ProtoMessage<RasDisengageInfo, 0x070A, "RAS_DCF">;

using Q931Setup = ProtoMessage<Q931SetupInfo, 0x0801, "Q931_Setup">;
using Q931CallProceeding =
    ProtoMessage<Q931CallRefInfo, 0x0802, "Q931_Call_Proceeding">;
using Q931Alerting = ProtoMessage<Q931CallRefInfo, 0x0803, "Q931_Alerting">;
using Q931Connect = ProtoMessage<Q931ConnectInfo, 0x0804, "Q931_Connect">;
using Q931ReleaseComplete =
    ProtoMessage<Q931ReleaseInfo, 0x0805, "Q931_Release_Complete">;

/// RAS ARJ causes.
enum class ArjCause : std::uint8_t {
  kCalledPartyNotRegistered = 2,
  kResourceUnavailable = 3,
  kCallerNotRegistered = 4,
};

void register_h323_messages();

}  // namespace vgprs
