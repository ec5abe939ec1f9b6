// Payload structs shared by the Um / Abis / A interface message catalogs
// (the same information element travels MS -> BTS -> BSC -> (V)MSC with a
// different protocol wrapper on each hop) and by the MAP message catalog.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "gsm/types.hpp"

namespace vgprs {

/// Why an MS requests a dedicated channel.
enum class ChannelCause : std::uint8_t {
  kLocationUpdate = 0,
  kOriginatingCall = 1,
  kPageResponse = 2,
};

struct ChannelRequestInfo {
  Imsi imsi;
  ChannelCause cause = ChannelCause::kLocationUpdate;

  static auto fields(auto& self) { return std::tie(self.imsi, self.cause); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct ChannelAssignmentInfo {
  Imsi imsi;
  std::uint16_t channel = 0;

  static auto fields(auto& self) { return std::tie(self.imsi, self.channel); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " ch=" + std::to_string(channel) + "}";
  }
};

struct LocationUpdateInfo {
  Imsi imsi;
  Tmsi tmsi;
  LocationAreaId lai;
  CellId cell;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.tmsi, self.lai, self.cell);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + lai.to_string() + "}";
  }
};

struct LocationUpdateAcceptInfo {
  Imsi imsi;
  LocationAreaId lai;
  Tmsi new_tmsi;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.lai, self.new_tmsi);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " tmsi=" + new_tmsi.to_string() + "}";
  }
};

struct AuthChallengeInfo {
  Imsi imsi;
  std::uint64_t rand = 0;

  static auto fields(auto& self) { return std::tie(self.imsi, self.rand); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct AuthResponseInfo {
  Imsi imsi;
  std::uint32_t sres = 0;

  static auto fields(auto& self) { return std::tie(self.imsi, self.sres); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct CipherModeInfo {
  Imsi imsi;
  std::uint8_t algorithm = 1;  // A5/1

  static auto fields(auto& self) { return std::tie(self.imsi, self.algorithm); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " A5/" + std::to_string(algorithm) + "}";
  }
};

struct SubscriberRefInfo {
  Imsi imsi;

  static auto fields(auto& self) { return std::tie(self.imsi); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

/// CM service request: MS asks the network for call-control service.
struct CmServiceInfo {
  Imsi imsi;
  Tmsi tmsi;
  std::uint8_t service = 1;  // 1 = MO call establishment

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.tmsi, self.service);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct CallSetupInfo {
  Imsi imsi;  // the MS this leg concerns
  CallRef call_ref;
  Msisdn calling;
  Msisdn called;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.calling, self.called);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + " " + calling.to_string() + " -> " +
           called.to_string() + "}";
  }
};

struct CallRefInfo {
  Imsi imsi;
  CallRef call_ref;

  static auto fields(auto& self) { return std::tie(self.imsi, self.call_ref); }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + "}";
  }
};

struct CallDisconnectInfo {
  Imsi imsi;
  CallRef call_ref;
  ClearCause cause = ClearCause::kNormal;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.cause);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() +
           " cause=" + std::to_string(static_cast<int>(cause)) + "}";
  }
};

struct PagingInfo {
  Imsi imsi;
  Tmsi tmsi;

  static auto fields(auto& self) { return std::tie(self.imsi, self.tmsi); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct PagingResponseInfo {
  Imsi imsi;
  Tmsi tmsi;
  CellId cell;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.tmsi, self.cell);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + cell.to_string() + "}";
  }
};

/// Traffic-channel assignment (TCH) for the voice leg.
struct AssignmentInfo {
  Imsi imsi;
  CallRef call_ref;
  std::uint16_t channel = 0;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.channel);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + " tch=" + std::to_string(channel) +
           "}";
  }
};

struct HandoverRequiredInfo {
  Imsi imsi;
  CallRef call_ref;
  CellId target_cell;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.target_cell);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " -> " + target_cell.to_string() + "}";
  }
};

struct HandoverChannelInfo {
  Imsi imsi;
  CallRef call_ref;
  CellId target_cell;
  std::uint16_t channel = 0;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.target_cell, self.channel);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " -> " + target_cell.to_string() +
           " ch=" + std::to_string(channel) + "}";
  }
};

struct HandoverRefInfo {
  Imsi imsi;
  CallRef call_ref;

  static auto fields(auto& self) { return std::tie(self.imsi, self.call_ref); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + call_ref.to_string() + "}";
  }
};

struct RejectInfo {
  Imsi imsi;
  std::uint8_t cause = 0;

  static auto fields(auto& self) { return std::tie(self.imsi, self.cause); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " cause=" + std::to_string(cause) + "}";
  }
};

/// One circuit-switched voice frame on the TCH / TRAU path (GSM FR: 33
/// bytes every 20 ms).  `origin_us` lets the receiving end compute
/// mouth-to-ear latency for the Fig. 3 voice-path benchmark.
struct VoiceFrameInfo {
  Imsi imsi;
  CallRef call_ref;
  bool uplink = true;  // MS -> network when true
  std::uint32_t seq = 0;
  std::int64_t origin_us = 0;
  std::uint16_t codec_bytes = 33;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.uplink, self.seq,
                    self.origin_us, self.codec_bytes);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + call_ref.to_string() + " #" + std::to_string(seq) + "}";
  }
};

// ---------------------------------------------------------------------------
// MAP payloads
// ---------------------------------------------------------------------------

struct MapAuthInfoAckInfo {
  Imsi imsi;
  std::vector<AuthTriplet> triplets;

  static auto fields(auto& self) { return std::tie(self.imsi, self.triplets); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " x" + std::to_string(triplets.size()) +
           "}";
  }
};

struct MapUpdateLocationAreaInfo {
  Imsi imsi;
  LocationAreaId lai;
  std::string msc_name;  // serving (V)MSC address

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.lai, self.msc_name);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + lai.to_string() + "}";
  }
};

struct MapResultInfo {
  Imsi imsi;
  bool success = true;
  std::uint8_t cause = 0;
  Tmsi new_tmsi;
  Msisdn msisdn;  // subscriber's number (VMSC uses it as the H.323 alias)

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.success, self.cause, self.new_tmsi,
                    self.msisdn);
  }
  [[nodiscard]] std::string describe() const {
    return std::string("{") + imsi.to_string() + (success ? " ok" : " fail") +
           "}";
  }
};

struct MapUpdateLocationInfo {
  Imsi imsi;
  std::string vlr_name;
  std::string msc_name;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.vlr_name, self.msc_name);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " vlr=" + vlr_name + "}";
  }
};

struct MapInsertSubsDataInfo {
  Imsi imsi;
  SubscriberProfile profile;

  static auto fields(auto& self) { return std::tie(self.imsi, self.profile); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + profile.msisdn.to_string() + "}";
  }
};

struct MapOutgoingCallInfo {
  Imsi imsi;
  Msisdn called;

  static auto fields(auto& self) { return std::tie(self.imsi, self.called); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " -> " + called.to_string() + "}";
  }
};

struct MapSriInfo {
  Msisdn msisdn;
  std::string gmsc_name;

  static auto fields(auto& self) {
    return std::tie(self.msisdn, self.gmsc_name);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + msisdn.to_string() + "}";
  }
};

struct MapSriAckInfo {
  Msisdn msisdn;
  Imsi imsi;
  Msrn msrn;
  std::string serving_msc;
  bool found = false;

  static auto fields(auto& self) {
    return std::tie(self.msisdn, self.imsi, self.msrn, self.serving_msc,
                    self.found);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + msisdn.to_string() + (found ? " @" + serving_msc : " ?") +
           "}";
  }
};

struct MapPrnInfo {
  Imsi imsi;
  Msisdn msisdn;

  static auto fields(auto& self) { return std::tie(self.imsi, self.msisdn); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct MapPrnAckInfo {
  Imsi imsi;
  Msrn msrn;

  static auto fields(auto& self) { return std::tie(self.imsi, self.msrn); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + msrn.to_string() + "}";
  }
};

struct MapIncomingCallInfo {
  Msrn msrn;

  static auto fields(auto& self) { return std::tie(self.msrn); }
  [[nodiscard]] std::string describe() const {
    return "{" + msrn.to_string() + "}";
  }
};

struct MapIncomingCallAckInfo {
  Msrn msrn;
  Imsi imsi;
  Msisdn msisdn;
  bool found = false;

  static auto fields(auto& self) {
    return std::tie(self.msrn, self.imsi, self.msisdn, self.found);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + msrn.to_string() + " -> " + imsi.to_string() + "}";
  }
};

struct MapGprsRoutingAckInfo {
  Imsi imsi;
  std::string sgsn_name;
  bool found = false;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.sgsn_name, self.found);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + (found ? " @" + sgsn_name : " ?") + "}";
  }
};

struct MapPrepareHandoverInfo {
  Imsi imsi;
  CallRef call_ref;
  CellId target_cell;
  std::string anchor_msc;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.target_cell,
                    self.anchor_msc);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " -> " + target_cell.to_string() + "}";
  }
};

struct MapPrepareHandoverAckInfo {
  Imsi imsi;
  CallRef call_ref;
  std::uint16_t channel = 0;
  bool success = true;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.call_ref, self.channel, self.success);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " ch=" + std::to_string(channel) + "}";
  }
};

struct MapGprsLocationInfo {
  Imsi imsi;
  std::string sgsn_name;

  static auto fields(auto& self) { return std::tie(self.imsi, self.sgsn_name); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " sgsn=" + sgsn_name + "}";
  }
};

}  // namespace vgprs
