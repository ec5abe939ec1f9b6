// Base Station Controller: manages the radio channels of its BTSs and
// relays signaling between Abis and the A interface toward its (V)MSC.
// In GPRS deployments the BSC hosts the Packet Control Unit (PCU), which
// forwards packet-switched traffic to the SGSN; circuit-switched signaling
// and voice go to the MSC.  A BSC connects to exactly one SGSN (GSM 03.60).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>

#include "gsm/messages.hpp"
#include "sim/network.hpp"

namespace vgprs {

class Bts;

class Bsc final : public Node {
 public:
  struct Config {
    std::string msc_name;          // serving (V)MSC
    std::uint16_t sdcch_channels = 64;  // signaling channel pool
    std::uint16_t tch_channels = 64;    // traffic channel pool
  };

  Bsc(std::string name, Config config)
      : Node(std::move(name)), config_(std::move(config)) {}

  /// Declares that `bts` (serving `cell`) is parented to this BSC.  The
  /// scenario builder must also create the Abis link.
  void adopt_bts(const Bts& bts);
  void adopt_bts(NodeId bts, CellId cell);

  /// Radio-measurement trigger: reports to the MSC that `imsi`'s call must
  /// be handed over to `target_cell` (A_Handover_Required).  In a real BSS
  /// this fires from measurement reports; tests and benches drive it.
  void initiate_handover(Imsi imsi, CallRef call_ref, CellId target_cell);

  [[nodiscard]] std::uint16_t sdcch_in_use() const { return sdcch_in_use_; }
  [[nodiscard]] std::uint16_t tch_in_use() const { return tch_in_use_; }

  void on_message(const Envelope& env) override;

 private:
  /// What the BSC knows of one MS: the BTS it was last heard on, and the
  /// radio channels it holds.
  struct MsRadio {
    NodeId bts;
    bool sdcch = false;
    bool tch = false;
  };

  [[nodiscard]] NodeId msc() const { return peer(config_.msc_name); }
  [[nodiscard]] NodeId bts_for(const Imsi& imsi) const;
  void note_ms(const Imsi& imsi, NodeId bts) { ms_[imsi].bts = bts; }
  /// Frees whichever channels `imsi` holds.
  void release_channels(const Imsi& imsi);
  /// Takes a channel from a pool of `capacity` for an MS whose `held` flag
  /// marks it; a repeated request keeps the one it holds.  False when the
  /// pool is exhausted.
  static bool take(bool& held, std::uint16_t& in_use, std::uint16_t capacity) {
    if (held) return true;
    if (in_use >= capacity) return false;
    held = true;
    ++in_use;
    return true;
  }

  template <typename From, typename To>
  bool relay(const Envelope& env, NodeId dest) {
    const auto* m = msg_cast<From>(env.msg.get());
    if (m == nullptr) return false;
    auto out = pool_message<To>();
    static_cast<typename To::payload_type&>(*out) =
        static_cast<const typename From::payload_type&>(*m);
    send(dest, std::move(out));
    return true;
  }

  template <typename From, typename To>
  bool relay_up(const Envelope& env) {
    const auto* m = msg_cast<From>(env.msg.get());
    if (m == nullptr) return false;
    note_ms(m->imsi, env.from);
    return relay<From, To>(env, msc());
  }

  template <typename From, typename To>
  bool relay_down(const Envelope& env) {
    const auto* m = msg_cast<From>(env.msg.get());
    if (m == nullptr) return false;
    NodeId bts = bts_for(m->imsi);
    if (!bts.valid()) return true;  // unknown MS: swallow
    return relay<From, To>(env, bts);
  }

  /// A reject ends the MS's dedicated connection: relay it, then free the
  /// channels the request came in on.
  template <typename From, typename To>
  bool relay_reject(const Envelope& env) {
    if (!relay_down<From, To>(env)) return false;
    release_channels(msg_cast<From>(env.msg.get())->imsi);
    return true;
  }

  Config config_;
  std::unordered_map<Imsi, MsRadio> ms_;
  std::unordered_map<CellId, NodeId> bts_by_cell_;
  std::uint16_t sdcch_in_use_ = 0;
  std::uint16_t tch_in_use_ = 0;
  std::uint16_t next_channel_ = 1;
};

}  // namespace vgprs
