// RTP packet message for the IP leg of the voice path (VMSC vocoder/PCU ->
// GTP tunnel -> GGSN -> H.323 terminal, Fig. 2(b) path (6)(4)).
#pragma once

#include "common/ids.hpp"
#include "sim/proto.hpp"

namespace vgprs {

struct RtpPacketInfo {
  std::uint32_t ssrc = 0;
  std::uint32_t seq = 0;
  std::uint32_t timestamp = 0;   // in 8 kHz samples, RTP convention
  std::int64_t origin_us = 0;    // simulation-side latency probe
  std::uint16_t payload_bytes = 33;

  static auto fields(auto& self) {
    return std::tie(self.ssrc, self.seq, self.timestamp, self.origin_us,
                    self.payload_bytes);
  }
  [[nodiscard]] std::string describe() const {
    return "{ssrc=" + std::to_string(ssrc) + " #" + std::to_string(seq) +
           "}";
  }
};

using RtpPacket = ProtoMessage<RtpPacketInfo, 0x0A01, "RTP_Packet">;

void register_voice_messages();

}  // namespace vgprs
