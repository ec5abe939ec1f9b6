// GprsDataMs: a plain packet-data GPRS mobile — the Fig. 2(b) *data* path
// (1)(2)(3)(4): MS -> BSS/PCU -> SGSN -> GGSN -> PSDN.  No voice, no
// H.323; it attaches, activates a PDP context and exchanges IP datagrams
// with external hosts.  Its presence alongside vGPRS voice traffic shows
// both services sharing the same GPRS core unchanged.
#pragma once

#include <functional>
#include <string>

#include "gprs/ip.hpp"
#include "gprs/messages.hpp"
#include "sim/network.hpp"
#include "sim/stats.hpp"

namespace vgprs {

/// Simple application payload rode by the data MS (echo request/response).
struct DataPingInfo {
  std::uint32_t seq = 0;
  std::int64_t origin_us = 0;
  bool response = false;
  std::uint16_t payload_bytes = 512;

  static auto fields(auto& self) {
    return std::tie(self.seq, self.origin_us, self.response,
                    self.payload_bytes);
  }
  [[nodiscard]] std::string describe() const {
    return std::string("{#") + std::to_string(seq) +
           (response ? " echo" : "") + "}";
  }
};

using DataPing = ProtoMessage<DataPingInfo, 0x0630, "Data_Ping">;

class GprsDataMs final : public Node {
 public:
  struct Config {
    Imsi imsi;
    std::string sgsn_name;
    QosProfile qos{QosClass::kInteractive, 64, 2};
  };

  enum class State { kDetached, kAttaching, kActivating, kOnline };

  GprsDataMs(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  void power_on();
  /// Sends `count` echo requests to `server`, spaced by `interval`.
  void start_pings(IpAddress server, std::uint32_t count,
                   SimDuration interval = SimDuration::millis(100));

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] IpAddress address() const { return address_; }
  [[nodiscard]] std::uint32_t echoes_received() const { return echoes_; }
  [[nodiscard]] const Histogram& rtt() const { return rtt_; }

  std::function<void()> on_online;

  void on_message(const Envelope& env) override;
  void on_timer(TimerId id, std::uint64_t cookie) override;

 private:
  [[nodiscard]] NodeId sgsn() const { return peer(config_.sgsn_name); }
  void send_ping();

  Config config_;
  State state_ = State::kDetached;
  IpAddress address_;
  IpAddress server_;
  std::uint32_t pings_remaining_ = 0;
  std::uint32_t ping_seq_ = 0;
  std::uint32_t echoes_ = 0;
  SimDuration ping_interval_ = SimDuration::millis(100);
  TimerId ping_timer_ = 0;  // the next ping while kOnline
  Histogram rtt_;
};

/// External packet-data host: echoes every Data_Ping back to its source.
class EchoServer final : public Node {
 public:
  EchoServer(std::string name, IpAddress ip, std::string router_name)
      : Node(std::move(name)), ip_(ip), router_name_(std::move(router_name)) {}

  [[nodiscard]] IpAddress ip() const { return ip_; }
  [[nodiscard]] std::uint64_t requests_served() const { return served_; }

  void on_attached() override { net().register_ip(ip_, id()); }
  void on_message(const Envelope& env) override;

 private:
  IpAddress ip_;
  std::string router_name_;
  std::uint64_t served_ = 0;
};

void register_data_messages();

}  // namespace vgprs
