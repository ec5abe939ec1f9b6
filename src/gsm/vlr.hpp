// Visitor Location Register: per-visited-network subscriber cache.  Handles
// location updating toward the HLR, TMSI allocation, authentication-vector
// caching, outgoing-call authorization and roaming-number allocation.
#pragma once

#include <cstdint>
#include <string>

#include "gsm/messages.hpp"
#include "sim/network.hpp"
#include "sim/subscriber_pool.hpp"

namespace vgprs {

class Vlr final : public Node {
 public:
  struct Config {
    std::string hlr_name;
    std::uint16_t country_code = 0;  // calls outside it are international
    std::uint64_t msrn_prefix = 0;   // roaming numbers: prefix + counter
  };

  struct VisitorRecord {
    Tmsi tmsi;
    LocationAreaId lai;
    std::string msc_name;
    SubscriberProfile profile;
    bool profile_valid = false;
    bool registered = false;
    // The HLR hands out batches of 3 and the VLR refills only when empty,
    // so the inline ring (capacity 6) never overflows and the registration
    // hot path carries no per-visitor deque allocation.
    InlineQueue<AuthTriplet, 6> triplets;
  };

  Vlr(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  [[nodiscard]] const VisitorRecord* visitor(Imsi imsi) const;
  [[nodiscard]] std::size_t visitor_count() const { return records_.size(); }

  void on_message(const Envelope& env) override;
  /// VLR restart: the visitor cache, roaming-number map and in-flight MAP
  /// request state are volatile.  The allocation counters keep advancing so
  /// TMSIs/MSRNs handed out before the crash are never reissued.
  void on_restart() override {
    records_.clear();
    msrn_map_.clear();
    pending_auth_.clear();
    pending_ula_.clear();
  }

 private:
  [[nodiscard]] NodeId hlr() const { return peer(config_.hlr_name); }
  void reply_auth_info(NodeId to, Imsi imsi);

  Config config_;
  SubscriberTable<Imsi, VisitorRecord> records_;
  SubscriberTable<Msrn, Imsi> msrn_map_;
  // in-flight requests keyed by IMSI
  SubscriberTable<Imsi, NodeId> pending_auth_;
  SubscriberTable<Imsi, NodeId> pending_ula_;
  std::uint32_t next_tmsi_ = 0x0100;
  std::uint64_t next_msrn_ = 1;
};

}  // namespace vgprs
