// Base Transceiver Station: terminates the Um air interface and relays
// signaling to/from its BSC over Abis.  One BTS serves one cell.  The BTS
// learns which simulated MS node carries which IMSI from uplink traffic and
// uses that to address downlink messages, pages included: a page is one
// paging-channel broadcast, modelled as one delivery to the MS it names.
// That is equivalent to sending a copy to every camped MS because a copy
// for another MS returned at that MS's identity check with no send, timer
// or state change; Um links have zero jitter and zero loss, so the copies
// drew no RNG; and a dropped send only leaves a gap in the sequence
// numbers, so the remaining events keep their order.
#pragma once

#include <string>
#include <unordered_map>

#include "gsm/messages.hpp"
#include "sim/network.hpp"

namespace vgprs {

class Bts final : public Node {
 public:
  Bts(std::string name, CellId cell, LocationAreaId lai, std::string bsc_name)
      : Node(std::move(name)),
        cell_(cell),
        lai_(lai),
        bsc_name_(std::move(bsc_name)) {}

  [[nodiscard]] CellId cell() const { return cell_; }
  [[nodiscard]] LocationAreaId lai() const { return lai_; }

  void on_message(const Envelope& env) override;

 private:
  [[nodiscard]] NodeId bsc() const { return peer(bsc_name_); }
  void note_ms(const Imsi& imsi, NodeId node) { ms_by_imsi_[imsi] = node; }
  [[nodiscard]] NodeId ms_node(const Imsi& imsi) const;

  /// Relays env's message as a `To` carrying the same payload.
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

  /// Uplink variant: also records the MS node for downlink addressing.
  template <typename From, typename To>
  bool relay_up(const Envelope& env) {
    const auto* m = msg_cast<From>(env.msg.get());
    if (m == nullptr) return false;
    note_ms(m->imsi, env.from);
    return relay<From, To>(env, bsc());
  }

  template <typename From, typename To>
  bool relay_down(const Envelope& env) {
    const auto* m = msg_cast<From>(env.msg.get());
    if (m == nullptr) return false;
    NodeId ms = ms_node(m->imsi);
    if (!ms.valid()) return true;  // MS left the cell; drop
    return relay<From, To>(env, ms);
  }

  CellId cell_;
  LocationAreaId lai_;
  std::string bsc_name_;
  std::unordered_map<Imsi, NodeId> ms_by_imsi_;
};

}  // namespace vgprs
