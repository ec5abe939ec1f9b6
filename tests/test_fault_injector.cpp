// FaultInjector unit coverage: schedule determinism (same seed + same
// schedule reproduces a byte-identical trace), link-window edge semantics
// (half-open [down_at, up_at)), message-predicate match bookkeeping, and
// corruption handling (a mangled frame is rejected by the codec and the
// sender's retransmission recovers — the simulation never crashes).
#include <gtest/gtest.h>

#include "sim/fault.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

/// Registration + one call cycle under `schedule`, returning the full
/// trace rendering.  The scenario keeps its own seeded Network.
std::string run_with_schedule(std::uint64_t seed, FaultSchedule schedule,
                              VgprsScenario** out = nullptr,
                              std::unique_ptr<VgprsScenario>* keep = nullptr) {
  VgprsParams params;
  params.seed = seed;
  params.num_ms = 2;
  auto s = build_vgprs(params);
  s->net.install_faults(std::move(schedule));
  for (auto* ms : s->ms) ms->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->ms[0]->hangup();
  s->settle();
  std::string trace = s->net.trace().to_string(1000000);
  if (out != nullptr) *out = s.get();
  if (keep != nullptr) *keep = std::move(s);
  return trace;
}

TEST(FaultInjectorTest, SameSeedAndScheduleGiveByteIdenticalTrace) {
  register_all_messages();
  auto make_schedule = [] {
    FaultSchedule sched;
    sched.message_faults.push_back(
        {MessagePredicate{"Um_Auth_Request", "", "", 1, 1}, FaultKind::kDrop});
    sched.message_faults.push_back(
        {MessagePredicate{"MAP_Update_Location", "", "", 1, 1},
         FaultKind::kCorrupt});  // corrupt_byte = -1: RNG-picked byte
    sched.message_faults.push_back(
        {MessagePredicate{"A_Setup", "", "", 1, 1}, FaultKind::kDuplicate});
    sched.latency_spikes.push_back({"VMSC", "VLR", SimTime::from_micros(0),
                                    SimTime::from_micros(30 * 1'000'000),
                                    SimDuration::millis(40)});
    sched.node_outages.push_back(
        {"GK", SimTime::from_micros(2 * 1'000'000), SimTime::from_micros(4 * 1'000'000)});
    return sched;
  };
  std::string first = run_with_schedule(7, make_schedule());
  std::unique_ptr<VgprsScenario> s;
  std::string second = run_with_schedule(7, make_schedule(), nullptr, &s);
  EXPECT_EQ(first, second);
  // The identical traces are not vacuous: the schedule actually fired.
  const FaultInjector& fi = *s->net.faults();
  EXPECT_GE(fi.faults_applied(0), 1u);  // drop
  EXPECT_GE(fi.faults_applied(1), 1u);  // corrupt
  EXPECT_GE(fi.faults_applied(2), 1u);  // duplicate
  EXPECT_GE(fi.counters().latency_spikes, 1u);
  EXPECT_EQ(fi.counters().crashes, 1u);
}

TEST(FaultInjectorTest, LinkWindowLowerEdgeInclusive) {
  register_all_messages();
  // MS1's Um_Location_Update_Request leaves at t = 0; a window starting
  // exactly there must eat it.
  FaultSchedule sched;
  sched.link_windows.push_back(
      {"MS1", "BTS", SimTime::from_micros(0), SimTime::from_micros(1)});
  std::unique_ptr<VgprsScenario> s;
  run_with_schedule(7, sched, nullptr, &s);
  EXPECT_GE(s->net.faults()->counters().link_drops, 1u);
  // The MS's own LAPDm-style retry re-sends the request after the window
  // closes, so registration still completes.
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
}

TEST(FaultInjectorTest, LinkWindowUpperEdgeExclusive) {
  register_all_messages();
  // An empty window [0, 0) contains no instant at all: a send stamped
  // exactly at up_at passes untouched.
  FaultSchedule sched;
  sched.link_windows.push_back(
      {"MS1", "BTS", SimTime::from_micros(0), SimTime::from_micros(0)});
  std::unique_ptr<VgprsScenario> s;
  run_with_schedule(7, sched, nullptr, &s);
  EXPECT_EQ(s->net.faults()->counters().link_drops, 0u);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
}

TEST(FaultInjectorTest, PredicateCountsMatchesAndApplications) {
  register_all_messages();
  // Two registering MSs produce one Um_Auth_Request each; drop only the
  // second match.  The victim's retry produces a third match, but count=1
  // means the fault fires exactly once.
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"Um_Auth_Request", "", "", 2, 1}, FaultKind::kDrop});
  std::unique_ptr<VgprsScenario> s;
  run_with_schedule(7, sched, nullptr, &s);
  const FaultInjector& fi = *s->net.faults();
  EXPECT_GE(fi.matches_seen(0), 3u);
  EXPECT_EQ(fi.faults_applied(0), 1u);
  EXPECT_EQ(fi.counters().drops, 1u);
  EXPECT_EQ(s->net.metrics().counter("fault/injected/drop"), 1);
  // Both subscribers end registered despite the drop.
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
  EXPECT_EQ(s->ms[1]->state(), MobileStation::State::kIdle);
}

TEST(FaultInjectorTest, CorruptFrameRejectedByCodecWithoutCrash) {
  register_all_messages();
  // XOR the first wire byte of the VMSC->VLR MAP_Send_Auth_Info: the
  // receiving codec rejects the frame (the simulated checksum failure),
  // the injector records the decode error, and the VMSC's retransmission
  // completes the registration anyway.
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"MAP_Send_Auth_Info", "VMSC", "VLR", 1, 1},
       FaultKind::kCorrupt, SimDuration::millis(200), 0});
  std::unique_ptr<VgprsScenario> s;
  run_with_schedule(7, sched, nullptr, &s);
  const FaultInjector& fi = *s->net.faults();
  EXPECT_EQ(fi.counters().corruptions, 1u);
  EXPECT_EQ(fi.counters().decode_errors, 1u);
  EXPECT_NE(fi.last_corrupt_error().code, ErrorCode::kNone);
  EXPECT_EQ(s->net.metrics().counter("fault/injected/decode_error"), 1);
  EXPECT_GE(s->net.metrics().counter("recovery/retransmits"), 1);
  EXPECT_EQ(s->ms[0]->state(), MobileStation::State::kIdle);
}

/// Deliveries of `message` to `to` in the scenario's trace.
std::size_t deliveries_to(const VgprsScenario& s, std::string_view message,
                          std::string_view to) {
  std::size_t n = 0;
  s.net.trace().for_each([&](const TraceEntry& e) {
    if (e.message == message && e.to == to) ++n;
  });
  return n;
}

TEST(FaultInjectorTest, CorruptTunnelledInnerRefusedAtFirstHop) {
  register_all_messages();
  // Byte 13 of the first VMSC->SGSN Gb_UnitData (a tunnelled RAS RRQ) is
  // the high byte of its inner IP_Datagram's wire type: the frame's type
  // (2 bytes), IMSI (9) and inner length (2) come first.  The inner no
  // longer decodes, so the SGSN's link refuses the whole frame: no
  // GTP_T_PDU carries it on to the GGSN, and the VMSC's RRQ retransmission
  // completes the registration.
  FaultSchedule sched;
  sched.message_faults.push_back(
      {MessagePredicate{"Gb_UnitData", "VMSC", "SGSN", 1, 1},
       FaultKind::kCorrupt, SimDuration::millis(200), 13});
  std::unique_ptr<VgprsScenario> faulted;
  run_with_schedule(7, sched, nullptr, &faulted);
  std::unique_ptr<VgprsScenario> clean;
  run_with_schedule(7, FaultSchedule{}, nullptr, &clean);

  const FaultInjector& fi = *faulted->net.faults();
  EXPECT_EQ(fi.counters().corruptions, 1u);
  EXPECT_EQ(faulted->net.metrics().counter("fault/injected/decode_error"), 1);
  EXPECT_EQ(fi.last_corrupt_error().code, ErrorCode::kDecodeBadValue);
  // The retransmitted RRQ replaces the refused one: the GGSN sees exactly
  // the uplink PDUs of the fault-free run.
  EXPECT_EQ(deliveries_to(*faulted, "GTP_T_PDU", "GGSN"),
            deliveries_to(*clean, "GTP_T_PDU", "GGSN"));
  EXPECT_EQ(faulted->net.metrics().counter("recovery/retransmits"), 1);
  for (const auto* ms : faulted->ms) {
    EXPECT_EQ(ms->state(), MobileStation::State::kIdle);
  }
  EXPECT_EQ(faulted->vmsc->ready_count(), faulted->ms.size());
}

TEST(FaultInjectorTest, NodeOutageSuppresssAndRestarts) {
  register_all_messages();
  // Crash the gatekeeper before the terminal registers: RRQs sent into
  // the outage vanish, the terminal's retransmission re-sends after the
  // restart, and RAS registration completes.
  FaultSchedule sched;
  sched.node_outages.push_back(
      {"GK", SimTime::from_micros(0), SimTime::from_micros(2 * 1'000'000)});
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  s->net.install_faults(std::move(sched));
  s->terminals[0]->register_endpoint();
  s->settle();
  const FaultInjector& fi = *s->net.faults();
  EXPECT_EQ(fi.counters().crashes, 1u);
  EXPECT_EQ(fi.counters().restarts, 1u);
  EXPECT_GE(fi.counters().outage_drops, 1u);
  EXPECT_EQ(s->terminals[0]->state(), H323Terminal::State::kRegistered);
}

}  // namespace
}  // namespace vgprs
