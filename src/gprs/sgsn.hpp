// Serving GPRS Support Node: GPRS attach/detach (with HLR location
// updating over Gr), session management (PDP context activation /
// deactivation toward the GGSN over GTP-C), and user-plane relaying
// between the Gb interface and the GTP-U tunnels.
#pragma once

#include <cstdint>
#include <string>

#include "gprs/messages.hpp"
#include "gsm/messages.hpp"
#include "sim/network.hpp"
#include "sim/retransmit.hpp"
#include "sim/subscriber_pool.hpp"

namespace vgprs {

class Sgsn final : public Node {
 public:
  struct Config {
    std::string ggsn_name;
    std::string hlr_name;
  };

  struct PdpContext {
    Imsi imsi;
    Nsapi nsapi;
    IpAddress address;
    TunnelId sgsn_teid;  // downlink endpoint here
    TunnelId ggsn_teid;  // uplink endpoint at the GGSN
    QosProfile qos;
    NodeId holder;  // the node using the context (VMSC or H.323-capable MS)
    bool active = false;
    bool deleting = false;  // GTP delete in flight; duplicates are absorbed
  };

  Sgsn(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  [[nodiscard]] std::size_t attached_count() const {
    return attachments_.size();
  }
  [[nodiscard]] std::size_t pdp_context_count() const {
    return contexts_.size();
  }
  [[nodiscard]] const PdpContext* context(Imsi imsi, Nsapi nsapi) const;

  void on_message(const Envelope& env) override;
  void on_timer(TimerId id, std::uint64_t cookie) override {
    retx_.on_timer(id, cookie);
  }
  /// SGSN restart: attachments and PDP contexts are volatile.  Holders
  /// discover the loss when their next request is rejected cause 7 and
  /// re-attach from scratch; TEID/P-TMSI counters keep advancing.
  void on_restart() override {
    attachments_.clear();
    contexts_.clear();
    by_teid_.clear();
    retx_.reset();
  }

 private:
  struct Attachment {
    NodeId holder;
    std::uint32_t ptmsi = 0;
    bool attached = false;  // false while the HLR update is in flight
  };

  /// Requests this SGSN keeps in flight upstream (Gr / GTP-C).
  enum class RetxKind : std::uint8_t {
    kMapGprsUl = 1,
    kGtpCreate = 2,
    kGtpDelete = 3,
  };
  static std::uint64_t retx_key(RetxKind kind, Imsi imsi,
                                Nsapi nsapi = Nsapi{}) {
    return (static_cast<std::uint64_t>(kind) << 56) |
           (imsi.value() << 4) | nsapi.value();
  }

  static std::uint64_t key(Imsi imsi, Nsapi nsapi) {
    return (imsi.value() << 4) | nsapi.value();
  }
  /// Erases a PDP context.  The GTP create and delete exchanges served it
  /// and end with it.
  void erase_context(const PdpContext& ctx);
  [[nodiscard]] NodeId ggsn() const { return peer(config_.ggsn_name); }
  [[nodiscard]] NodeId hlr() const { return peer(config_.hlr_name); }

  Config config_;
  Retransmitter retx_{*this};
  // Pooled subscriber state (slab-backed, O(1) probes at any population —
  // see sim/subscriber_pool.hpp); contexts are addressed by (imsi, nsapi)
  // key and the user plane never scans them.
  SubscriberTable<Imsi, Attachment> attachments_;
  SubscriberTable<std::uint64_t, PdpContext> contexts_;
  SubscriberTable<std::uint32_t, std::uint64_t> by_teid_;  // sgsn_teid
  std::uint32_t next_teid_ = 0x1000;
  std::uint32_t next_ptmsi_ = 0xC0000001;
};

}  // namespace vgprs
