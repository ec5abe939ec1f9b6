// ISUP subset (Q.763) used between PSTN switches, GMSCs, serving MSCs and
// the H.323 gateway: IAM / ACM / ANM / REL / RLC plus a trunk voice frame.
// Wire range 0x09xx.
#pragma once

#include "common/ids.hpp"
#include "sim/proto.hpp"

namespace vgprs {

/// Circuit Identification Code: identifies one call leg on one trunk group.
/// We allocate them globally unique per simulation for simplicity.
using Cic = std::uint32_t;

struct IsupIamInfo {
  Cic cic = 0;
  Msisdn calling;
  Msisdn called;  // dialled digits: an MSISDN or an MSRN rendered as digits

  static auto fields(auto& self) {
    return std::tie(self.cic, self.calling, self.called);
  }
  [[nodiscard]] std::string describe() const {
    return "{cic=" + std::to_string(cic) + " " + calling.to_string() +
           " -> " + called.to_string() + "}";
  }
};

struct IsupCicInfo {
  Cic cic = 0;

  static auto fields(auto& self) { return std::tie(self.cic); }
  [[nodiscard]] std::string describe() const {
    return "{cic=" + std::to_string(cic) + "}";
  }
};

struct IsupRelInfo {
  Cic cic = 0;
  std::uint8_t cause = 16;  // normal clearing

  static auto fields(auto& self) { return std::tie(self.cic, self.cause); }
  [[nodiscard]] std::string describe() const {
    return "{cic=" + std::to_string(cic) +
           " cause=" + std::to_string(cause) + "}";
  }
};

struct TrunkVoiceInfo {
  Cic cic = 0;
  std::uint32_t seq = 0;
  std::int64_t origin_us = 0;

  static auto fields(auto& self) {
    return std::tie(self.cic, self.seq, self.origin_us);
  }
  [[nodiscard]] std::string describe() const {
    return "{cic=" + std::to_string(cic) + " #" + std::to_string(seq) + "}";
  }
};

using IsupIam = ProtoMessage<IsupIamInfo, 0x0901, "ISUP_IAM">;
using IsupAcm = ProtoMessage<IsupCicInfo, 0x0902, "ISUP_ACM">;
using IsupAnm = ProtoMessage<IsupCicInfo, 0x0903, "ISUP_ANM">;
using IsupRel = ProtoMessage<IsupRelInfo, 0x0904, "ISUP_REL">;
using IsupRlc = ProtoMessage<IsupCicInfo, 0x0905, "ISUP_RLC">;
using TrunkVoice = ProtoMessage<TrunkVoiceInfo, 0x0910, "Trunk_Voice">;

void register_pstn_messages();

/// Allocates simulation-unique CICs.
Cic allocate_cic();

}  // namespace vgprs
