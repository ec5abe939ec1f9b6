// GPRS message catalog: GMM (attach/detach), SM (PDP context management),
// Gb framing, and the GTP-C / GTP-U tunneling protocol between SGSN and
// GGSN (GSM 09.60).  Wire ranges: GMM/SM/Gb 0x05xx, GTP 0x06xx.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "gsm/types.hpp"
#include "sim/proto.hpp"

namespace vgprs {

// --- GMM / SM payloads -------------------------------------------------------

struct GprsAttachInfo {
  Imsi imsi;

  static auto fields(auto& self) { return std::tie(self.imsi); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct GprsAttachAcceptInfo {
  Imsi imsi;
  std::uint32_t ptmsi = 0;

  static auto fields(auto& self) { return std::tie(self.imsi, self.ptmsi); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + "}";
  }
};

struct GprsRejectInfo {
  Imsi imsi;
  std::uint8_t cause = 0;

  static auto fields(auto& self) { return std::tie(self.imsi, self.cause); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " cause=" + std::to_string(cause) + "}";
  }
};

struct ActivatePdpRequestInfo {
  Imsi imsi;
  Nsapi nsapi;
  QosProfile qos;
  IpAddress requested_address;  // 0.0.0.0 = dynamic allocation
  std::string apn = "voip";

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.qos, self.requested_address,
                    self.apn);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + nsapi.to_string() + " " +
           std::string(to_string(qos.traffic_class)) + "}";
  }
};

struct ActivatePdpAcceptInfo {
  Imsi imsi;
  Nsapi nsapi;
  IpAddress address;
  QosProfile qos;  // negotiated

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.address, self.qos);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + nsapi.to_string() + " ip=" +
           address.to_string() + "}";
  }
};

struct PdpRefInfo {
  Imsi imsi;
  Nsapi nsapi;

  static auto fields(auto& self) { return std::tie(self.imsi, self.nsapi); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + nsapi.to_string() + "}";
  }
};

struct PdpRejectInfo {
  Imsi imsi;
  Nsapi nsapi;
  std::uint8_t cause = 0;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.cause);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " cause=" + std::to_string(cause) + "}";
  }
};

/// Network-initiated PDP context activation request (SGSN -> MS), required
/// by the 3G TR 23.821 baseline for terminating calls.
struct RequestPdpActivationInfo {
  Imsi imsi;
  Nsapi nsapi;
  IpAddress address;  // the static PDP address the network wants activated

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.address);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " ip=" + address.to_string() + "}";
  }
};

/// Gb-interface frame carrying one encapsulated IP datagram between the
/// BSS-side user (VMSC, or a GPRS MS through the PCU) and the SGSN.
struct GbUnitDataInfo {
  Imsi imsi;  // stands in for the TLLI
  MessagePtr inner;

  static auto fields(auto& self) { return std::tie(self.imsi, self.inner); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + std::to_string(wire_size(inner)) +
           "B}";
  }
};

// --- GTP payloads -------------------------------------------------------------

struct GtpCreatePdpRequestInfo {
  Imsi imsi;
  Nsapi nsapi;
  std::string sgsn_name;
  TunnelId sgsn_teid;           // downlink tunnel endpoint at the SGSN
  IpAddress requested_address;  // 0.0.0.0 = dynamic
  QosProfile qos;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.sgsn_name, self.sgsn_teid,
                    self.requested_address, self.qos);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + nsapi.to_string() + "}";
  }
};

struct GtpCreatePdpResponseInfo {
  Imsi imsi;
  Nsapi nsapi;
  IpAddress address;
  TunnelId ggsn_teid;  // uplink tunnel endpoint at the GGSN
  QosProfile qos;
  bool success = true;
  std::uint8_t cause = 0;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.address, self.ggsn_teid,
                    self.qos, self.success, self.cause);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " ip=" + address.to_string() + " " +
           ggsn_teid.to_string() + "}";
  }
};

struct GtpDeletePdpInfo {
  Imsi imsi;
  Nsapi nsapi;
  TunnelId teid;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.nsapi, self.teid);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " " + nsapi.to_string() + "}";
  }
};

/// GTP-U tunneled protocol data unit: an IP datagram inside the GPRS
/// backbone between SGSN and GGSN.
struct GtpPduInfo {
  TunnelId teid;
  MessagePtr inner;

  static auto fields(auto& self) { return std::tie(self.teid, self.inner); }
  [[nodiscard]] std::string describe() const {
    return "{" + teid.to_string() + " " + std::to_string(wire_size(inner)) +
           "B}";
  }
};

/// GGSN -> SGSN: downlink data pending for a subscriber without an active
/// context (triggers network-initiated activation).
struct GtpPduNotificationInfo {
  Imsi imsi;
  IpAddress address;

  static auto fields(auto& self) { return std::tie(self.imsi, self.address); }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " ip=" + address.to_string() + "}";
  }
};

/// External request to the GGSN (used by the TR 23.821 gatekeeper) to set
/// up a routing path toward an idle subscriber.
struct GgsnActivationInfo {
  Imsi imsi;
  IpAddress address;
  bool success = true;

  static auto fields(auto& self) {
    return std::tie(self.imsi, self.address, self.success);
  }
  [[nodiscard]] std::string describe() const {
    return "{" + imsi.to_string() + " ip=" + address.to_string() + "}";
  }
};

// --- message aliases -------------------------------------------------------------

using GprsAttachRequest =
    ProtoMessage<GprsAttachInfo, 0x0501, "GPRS_Attach_Request">;
using GprsAttachAccept =
    ProtoMessage<GprsAttachAcceptInfo, 0x0502, "GPRS_Attach_Accept">;
using GprsAttachReject =
    ProtoMessage<GprsRejectInfo, 0x0503, "GPRS_Attach_Reject">;
using GprsDetachRequest =
    ProtoMessage<GprsAttachInfo, 0x0504, "GPRS_Detach_Request">;
using GprsDetachAccept =
    ProtoMessage<GprsAttachInfo, 0x0505, "GPRS_Detach_Accept">;
using ActivatePdpContextRequest =
    ProtoMessage<ActivatePdpRequestInfo, 0x0506,
                 "Activate_PDP_Context_Request">;
using ActivatePdpContextAccept =
    ProtoMessage<ActivatePdpAcceptInfo, 0x0507, "Activate_PDP_Context_Accept">;
using ActivatePdpContextReject =
    ProtoMessage<PdpRejectInfo, 0x0508, "Activate_PDP_Context_Reject">;
using DeactivatePdpContextRequest =
    ProtoMessage<PdpRefInfo, 0x0509, "Deactivate_PDP_Context_Request">;
using DeactivatePdpContextAccept =
    ProtoMessage<PdpRefInfo, 0x050A, "Deactivate_PDP_Context_Accept">;
using RequestPdpContextActivation =
    ProtoMessage<RequestPdpActivationInfo, 0x050B,
                 "Request_PDP_Context_Activation">;
using GbUnitData = ProtoMessage<GbUnitDataInfo, 0x0511, "Gb_UnitData">;

using GtpCreatePdpContextRequest =
    ProtoMessage<GtpCreatePdpRequestInfo, 0x0601,
                 "GTP_Create_PDP_Context_Request">;
using GtpCreatePdpContextResponse =
    ProtoMessage<GtpCreatePdpResponseInfo, 0x0602,
                 "GTP_Create_PDP_Context_Response">;
using GtpDeletePdpContextRequest =
    ProtoMessage<GtpDeletePdpInfo, 0x0603, "GTP_Delete_PDP_Context_Request">;
using GtpDeletePdpContextResponse =
    ProtoMessage<GtpDeletePdpInfo, 0x0604, "GTP_Delete_PDP_Context_Response">;
using GtpPdu = ProtoMessage<GtpPduInfo, 0x0605, "GTP_T_PDU">;
using GtpPduNotificationRequest =
    ProtoMessage<GtpPduNotificationInfo, 0x0606,
                 "GTP_PDU_Notification_Request">;
using GtpPduNotificationResponse =
    ProtoMessage<GtpPduNotificationInfo, 0x0607,
                 "GTP_PDU_Notification_Response">;
using GgsnActivationRequest =
    ProtoMessage<GgsnActivationInfo, 0x0620, "GGSN_Activation_Request">;
using GgsnActivationResponse =
    ProtoMessage<GgsnActivationInfo, 0x0621, "GGSN_Activation_Response">;

void register_gprs_messages();

}  // namespace vgprs
