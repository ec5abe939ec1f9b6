#include "gprs/data_ms.hpp"

#include "common/log.hpp"

namespace vgprs {

void register_data_messages() { register_message<DataPing>(); }

void GprsDataMs::power_on() {
  if (state_ != State::kDetached) return;
  state_ = State::kAttaching;
  auto attach = pool_message<GprsAttachRequest>();
  attach->imsi = config_.imsi;
  send(sgsn(), std::move(attach));
}

void GprsDataMs::start_pings(IpAddress server, std::uint32_t count,
                             SimDuration interval) {
  server_ = server;
  pings_remaining_ = count;
  ping_interval_ = interval;
  if (state_ == State::kOnline) send_ping();
}

void GprsDataMs::send_ping() {
  if (pings_remaining_ == 0 || state_ != State::kOnline) return;
  --pings_remaining_;
  auto ping = pool_message<DataPing>();
  ping->seq = ++ping_seq_;
  ping->origin_us = now().count_micros();
  auto frame = pool_message<GbUnitData>();
  frame->imsi = config_.imsi;
  frame->inner = make_ip_datagram(address_, server_, std::move(ping));
  send(sgsn(), std::move(frame));
  if (pings_remaining_ > 0) ping_timer_ = set_timer(ping_interval_);
}

void GprsDataMs::on_timer(TimerId, std::uint64_t) { send_ping(); }

void GprsDataMs::on_message(const Envelope& env) {
  const Message& msg = *env.msg;

  if (msg_cast<GprsAttachAccept>(&msg) != nullptr) {
    if (state_ != State::kAttaching) return;
    state_ = State::kActivating;
    auto req = pool_message<ActivatePdpContextRequest>();
    req->imsi = config_.imsi;
    req->nsapi = Nsapi(5);
    req->qos = config_.qos;
    req->apn = "internet";
    send(sgsn(), std::move(req));
    return;
  }
  if (msg_cast<GprsAttachReject>(&msg) != nullptr) {
    state_ = State::kDetached;
    return;
  }
  if (const auto* acc = msg_cast<ActivatePdpContextAccept>(&msg)) {
    if (state_ != State::kActivating) return;
    address_ = acc->address;
    state_ = State::kOnline;
    if (on_online) on_online();
    if (pings_remaining_ > 0) send_ping();
    return;
  }
  if (msg_cast<ActivatePdpContextReject>(&msg) != nullptr) {
    // Without this the MS wedged in kActivating forever: attached but
    // never online, and a later power_on() refused to restart the attach.
    if (state_ == State::kActivating) state_ = State::kDetached;
    return;
  }
  if (msg_cast<GprsDetachRequest>(&msg) != nullptr) {
    // Network-initiated detach (e.g. SGSN restart recovery).
    if (state_ == State::kOnline) {
      state_ = State::kDetached;
      cancel_timer(ping_timer_);
    }
    return;
  }
  if (const auto* frame = msg_cast<GbUnitData>(&msg)) {
    const auto* dgram = msg_cast<IpDatagram>(frame->inner.get());
    if (dgram == nullptr) return;
    if (const auto* ping = msg_cast<DataPing>(dgram->inner.get());
        ping != nullptr && ping->response) {
      ++echoes_;
      rtt_.add(SimDuration::micros(now().count_micros() - ping->origin_us));
    }
    return;
  }

  VG_DEBUG("data-ms", name() << ": ignoring " << msg.name());
}

void EchoServer::on_message(const Envelope& env) {
  const auto* dgram = msg_cast<IpDatagram>(env.msg.get());
  if (dgram == nullptr) return;
  const auto* ping = msg_cast<DataPing>(dgram->inner.get());
  if (ping == nullptr || ping->response) return;
  ++served_;
  auto echo = pool_message<DataPing>(*ping);
  echo->response = true;
  Node* router = net().node_by_name(router_name_);
  if (router == nullptr) return;
  send(router->id(), make_ip_datagram(ip_, dgram->src, std::move(echo)));
}

}  // namespace vgprs
