// Unit tests for the discrete-event engine: time, event ordering, timers,
// link characteristics, tracing, statistics and the dispatch downcast.
#include <gtest/gtest.h>

#include <array>

#include "gprs/ip.hpp"
#include "gprs/messages.hpp"
#include "gsm/messages.hpp"
#include "h323/messages.hpp"
#include "sim/network.hpp"
#include "sim/proto.hpp"
#include "sim/retransmit.hpp"
#include "sim/stats.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

struct PingInfo {
  std::uint32_t value = 0;
  static auto fields(auto& self) { return std::tie(self.value); }
  [[nodiscard]] std::string describe() const {
    return "{" + std::to_string(value) + "}";
  }
};
using Ping = ProtoMessage<PingInfo, 0x7001, "Ping">;

/// Records arrivals; can echo back.
class Probe final : public Node {
 public:
  explicit Probe(std::string name, bool echo = false)
      : Node(std::move(name)), echo_(echo) {}

  void on_message(const Envelope& env) override {
    arrivals.push_back(now());
    values.push_back(dynamic_cast<const Ping&>(*env.msg).value);
    if (echo_) send(env.from, env.msg);
  }
  void on_timer(TimerId, std::uint64_t cookie) override {
    timer_cookies.push_back(cookie);
  }

  std::vector<SimTime> arrivals;
  std::vector<std::uint32_t> values;
  std::vector<std::uint64_t> timer_cookies;

 private:
  bool echo_;
};

class SimTest : public ::testing::Test {
 protected:
  void SetUp() override { register_message<Ping>(); }
};

TEST_F(SimTest, DurationArithmetic) {
  EXPECT_EQ(SimDuration::millis(1.5).count_micros(), 1500);
  EXPECT_EQ(SimDuration::seconds(2).count_micros(), 2'000'000);
  EXPECT_EQ((SimDuration::millis(3) + SimDuration::millis(4)).as_millis(),
            7.0);
  SimTime t = SimTime::origin() + SimDuration::millis(10);
  EXPECT_EQ((t - SimTime::origin()).as_millis(), 10.0);
  EXPECT_LT(SimDuration::millis(1), SimDuration::millis(2));
}

TEST_F(SimTest, DeliveryHonorsLinkLatency) {
  Network net;
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  LinkProfile p;
  p.latency = SimDuration::millis(25);
  net.connect(a, b, p);
  net.send(a.id(), b.id(), std::make_shared<Ping>());
  net.run_until_idle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].as_millis(), 25.0);
}

TEST_F(SimTest, ExtraDelayAddsProcessingTime) {
  Network net;
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  LinkProfile p;
  p.latency = SimDuration::millis(10);
  net.connect(a, b, p);
  net.send(a.id(), b.id(), std::make_shared<Ping>(),
           SimDuration::millis(5));
  net.run_until_idle();
  ASSERT_EQ(b.arrivals.size(), 1u);
  EXPECT_EQ(b.arrivals[0].as_millis(), 15.0);
}

TEST_F(SimTest, FifoOrderingAtEqualTimestamps) {
  Network net;
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  net.connect(a, b, LinkProfile{});
  for (std::uint32_t i = 0; i < 50; ++i) {
    auto ping = std::make_shared<Ping>();
    ping->value = i;
    net.send(a.id(), b.id(), std::move(ping));
  }
  net.run_until_idle();
  ASSERT_EQ(b.values.size(), 50u);
  for (std::uint32_t i = 0; i < 50; ++i) EXPECT_EQ(b.values[i], i);
}

TEST_F(SimTest, JitterStaysWithinBounds) {
  Network net(99);
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  LinkProfile p;
  p.latency = SimDuration::millis(10);
  p.jitter = SimDuration::millis(20);
  net.connect(a, b, p);
  for (int i = 0; i < 200; ++i) {
    net.send(a.id(), b.id(), std::make_shared<Ping>());
  }
  net.run_until_idle();
  ASSERT_EQ(b.arrivals.size(), 200u);
  double lo = 1e9;
  double hi = 0;
  for (auto t : b.arrivals) {
    lo = std::min(lo, t.as_millis());
    hi = std::max(hi, t.as_millis());
  }
  EXPECT_GE(lo, 10.0);
  EXPECT_LT(hi, 30.0);
  EXPECT_GT(hi - lo, 5.0);  // jitter actually applied
}

TEST_F(SimTest, LossDropsMessages) {
  Network net(7);
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  LinkProfile p;
  p.loss_probability = 0.5;
  net.connect(a, b, p);
  for (int i = 0; i < 1000; ++i) {
    net.send(a.id(), b.id(), std::make_shared<Ping>());
  }
  net.run_until_idle();
  EXPECT_GT(b.arrivals.size(), 350u);
  EXPECT_LT(b.arrivals.size(), 650u);
  EXPECT_EQ(net.stats().messages_dropped + net.stats().messages_delivered,
            1000u);
}

TEST_F(SimTest, DeterministicAcrossRuns) {
  auto run = [](std::uint64_t seed) {
    Network net(seed);
    auto& a = net.add<Probe>("a");
    auto& b = net.add<Probe>("b", /*echo=*/true);
    LinkProfile p;
    p.latency = SimDuration::millis(3);
    p.jitter = SimDuration::millis(9);
    net.connect(a, b, p);
    for (int i = 0; i < 20; ++i) {
      net.send(a.id(), b.id(), std::make_shared<Ping>());
    }
    net.run_until_idle();
    std::vector<std::int64_t> stamps;
    for (auto t : a.arrivals) stamps.push_back(t.count_micros());
    return stamps;
  };
  EXPECT_EQ(run(5), run(5));
  EXPECT_NE(run(5), run(6));
}

TEST_F(SimTest, TimersFireAndCancel) {
  Network net;
  auto& a = net.add<Probe>("a");
  net.set_timer(a.id(), SimDuration::millis(5), 1);
  TimerId cancelled = net.set_timer(a.id(), SimDuration::millis(6), 2);
  net.set_timer(a.id(), SimDuration::millis(7), 3);
  net.cancel_timer(cancelled);
  net.run_until_idle();
  ASSERT_EQ(a.timer_cookies.size(), 2u);
  EXPECT_EQ(a.timer_cookies[0], 1u);
  EXPECT_EQ(a.timer_cookies[1], 3u);
}

TEST_F(SimTest, CancelAfterFireIsNoOp) {
  Network net;
  auto& a = net.add<Probe>("a");
  TimerId fired = net.set_timer(a.id(), SimDuration::millis(1), 1);
  net.run_until_idle();
  ASSERT_EQ(a.timer_cookies.size(), 1u);
  // The id is stale once the timer fired; cancelling must not disturb
  // anything — even twice, even after the slot is recycled.
  net.cancel_timer(fired);
  net.cancel_timer(fired);
  net.set_timer(a.id(), SimDuration::millis(1), 2);
  net.cancel_timer(fired);
  net.run_until_idle();
  ASSERT_EQ(a.timer_cookies.size(), 2u);
  EXPECT_EQ(a.timer_cookies[1], 2u);
}

TEST_F(SimTest, StaleCancelDoesNotKillRecycledSlot) {
  Network net;
  auto& a = net.add<Probe>("a");
  TimerId t1 = net.set_timer(a.id(), SimDuration::millis(5), 1);
  net.cancel_timer(t1);  // frees the slot immediately
  // The next timer recycles the slot under a new generation; the stale id
  // must not be able to cancel it.
  net.set_timer(a.id(), SimDuration::millis(5), 2);
  net.cancel_timer(t1);
  net.run_until_idle();
  ASSERT_EQ(a.timer_cookies.size(), 1u);
  EXPECT_EQ(a.timer_cookies[0], 2u);
}

TEST_F(SimTest, ManyCancelledTimersDoNotAccumulateState) {
  Network net;
  auto& a = net.add<Probe>("a");
  // Guard-timer churn: arm + cancel in a loop.  With generation-checked
  // slots the bookkeeping stays O(live timers), not O(cancellations).
  for (int i = 0; i < 10'000; ++i) {
    net.cancel_timer(net.set_timer(a.id(), SimDuration::seconds(30), 9));
  }
  net.set_timer(a.id(), SimDuration::millis(1), 1);
  net.run_until_idle();
  ASSERT_EQ(a.timer_cookies.size(), 1u);
  EXPECT_EQ(a.timer_cookies[0], 1u);
}

/// Owns a Retransmitter and logs each give-up at its sim time and every
/// timer the retransmitter did not claim.  Its requests are Pings carrying
/// the exchange key, sent to a Probe that logs every copy it receives.
class RetxOwner final : public Node {
 public:
  explicit RetxOwner(std::string name) : Node(std::move(name)) {}

  void on_message(const Envelope&) override {}
  void on_timer(TimerId id, std::uint64_t cookie) override {
    if (!retx.on_timer(id, cookie)) own_timers.push_back(cookie);
  }
  void request(std::uint64_t key, const Node& peer) {
    auto ping = std::make_shared<Ping>();
    ping->value = static_cast<std::uint32_t>(key);
    retx.send(key, peer.id(), std::move(ping),
              [this] { give_ups.push_back(now().as_millis()); });
  }

  Retransmitter retx{*this};
  std::vector<double> give_ups;  // ms
  std::vector<std::uint64_t> own_timers;
};

/// An owner linked to a peer over a zero-latency link, so each copy
/// arrives at the time it was sent.
struct RetxWorld {
  Network net;
  RetxOwner& o = net.add<RetxOwner>("o");
  Probe& peer = net.add<Probe>("peer");
  RetxWorld() { net.connect(o, peer, instant()); }

  static LinkProfile instant() {
    LinkProfile p;
    p.latency = SimDuration::zero();
    return p;
  }

  /// Arrival times (ms) of every copy the peer received.
  [[nodiscard]] std::vector<double> arrivals() const {
    std::vector<double> out;
    for (SimTime t : peer.arrivals) out.push_back(t.as_millis());
    return out;
  }
};

TEST_F(SimTest, RetransmitterBacksOffThenGivesUp) {
  RetxWorld w;
  w.o.request(7, w.peer);
  w.net.run_until_idle();
  // Sent at 0; resent after 1 s, doubling, 3 times; then the give-up.
  EXPECT_EQ(w.arrivals(), (std::vector<double>{0, 1000, 3000, 7000}));
  EXPECT_EQ(w.o.give_ups, std::vector<double>{15000});
  EXPECT_EQ(w.o.retx.retransmits(), 3u);
  EXPECT_EQ(w.o.retx.give_ups(), 1u);
  EXPECT_EQ(w.net.metrics().counter("recovery/retransmits"), 3);
  EXPECT_EQ(w.net.metrics().counter("recovery/give_ups"), 1);
  EXPECT_FALSE(w.o.retx.pending(7));
  EXPECT_TRUE(w.o.own_timers.empty());
}

TEST_F(SimTest, RetransmitterResendsTheRequestItSentToItsPeer) {
  // Every copy carries the sent request's wire bytes to the peer it was
  // sent to; a second linked node hears nothing.
  RetxWorld w;
  Probe& bystander = w.net.add<Probe>("bystander");
  w.net.connect(w.o, bystander, RetxWorld::instant());
  w.o.request(7, w.peer);
  const std::vector<std::uint8_t> wire = make_message<Ping>([](Ping& p) {
                                           p.value = 7;
                                         })->encode();
  w.net.run_until_idle();
  ASSERT_EQ(w.peer.arrivals.size(), 4u);
  EXPECT_TRUE(bystander.arrivals.empty());
  ASSERT_EQ(w.net.trace().size(), 4u);
  for (const TraceRecord& r : w.net.trace().records()) {
    EXPECT_EQ(r.from, w.o.id());
    EXPECT_EQ(r.to, w.peer.id());
    EXPECT_EQ(r.msg->encode(), wire);
  }
}

TEST_F(SimTest, RetransmitterAckCancelsThePendingTimer) {
  RetxWorld w;
  w.o.request(7, w.peer);
  w.net.run_until(SimTime::from_micros(500'000));
  EXPECT_TRUE(w.o.retx.ack(7));
  EXPECT_FALSE(w.o.retx.ack(7));  // a duplicate response is a no-op
  w.net.run_until_idle();
  EXPECT_EQ(w.arrivals(), std::vector<double>{0});
  EXPECT_TRUE(w.o.give_ups.empty());
  EXPECT_EQ(w.net.stats().timers_fired, 0u);
  // The cancelled timer still pops at its time: the clock ends where it
  // would have ended had the timer fired.
  EXPECT_EQ(w.net.now().as_millis(), 1000.0);
}

TEST_F(SimTest, RetransmitterRearmRestartsTheSchedule) {
  RetxWorld w;
  w.o.request(7, w.peer);
  w.net.run_until(SimTime::from_micros(2'500'000));
  w.o.request(7, w.peer);
  w.net.run_until_idle();
  // Sent at 0 and again at 2.5 s: resent at 1 s, then at 3.5, 5.5 and
  // 9.5 s on the restarted schedule.
  EXPECT_EQ(w.arrivals(),
            (std::vector<double>{0, 1000, 2500, 3500, 5500, 9500}));
  EXPECT_EQ(w.o.retx.retransmits(), 4u);
  EXPECT_EQ(w.o.give_ups, std::vector<double>{17500});
}

TEST_F(SimTest, RetransmitterResetDropsEveryExchangeWithoutGiveUp) {
  RetxWorld w;
  w.o.request(7, w.peer);
  w.o.request(8, w.peer);
  EXPECT_EQ(w.o.retx.pending_count(), 2u);
  w.o.retx.reset();
  EXPECT_EQ(w.o.retx.pending_count(), 0u);
  w.net.run_until_idle();
  EXPECT_EQ(w.arrivals(), (std::vector<double>{0, 0}));  // first copies only
  EXPECT_TRUE(w.o.give_ups.empty());
  EXPECT_EQ(w.net.stats().timers_fired, 0u);
}

TEST_F(SimTest, RetransmitterLeavesOwnerTimerWithAPendingKeyAlone) {
  // The owner's own timer carries a cookie equal to a pending key; only
  // the TimerId tells the two apart.
  RetxWorld w;
  w.o.request(7, w.peer);
  w.net.set_timer(w.o.id(), SimDuration::millis(500), 7);
  w.net.run_until(SimTime::from_micros(1'500'000));
  EXPECT_EQ(w.o.own_timers, std::vector<std::uint64_t>{7});
  EXPECT_EQ(w.arrivals(), (std::vector<double>{0, 1000}));
  EXPECT_TRUE(w.o.retx.pending(7));
}

TEST_F(SimTest, DisabledTraceRecordsNothingButDelivers) {
  Network net;
  net.trace().set_mode(TraceMode::kDisabled);
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  net.connect(a, b, LinkProfile{});
  for (int i = 0; i < 10; ++i) {
    net.send(a.id(), b.id(), std::make_shared<Ping>());
  }
  net.run_until_idle();
  EXPECT_EQ(b.arrivals.size(), 10u);
  EXPECT_FALSE(net.trace().enabled());
  EXPECT_EQ(net.trace().size(), 0u);
}

TEST_F(SimTest, TraceKeepsEveryDeliveryInOrderUntilClear) {
  Network net;
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  LinkProfile p;
  p.latency = SimDuration::millis(1);
  net.connect(a, b, p);
  auto send_pings = [&](std::uint32_t first, std::uint32_t n) {
    for (std::uint32_t i = first; i < first + n; ++i) {
      auto ping = std::make_shared<Ping>();
      ping->value = i;
      net.send(a.id(), b.id(), std::move(ping), SimDuration::millis(i));
    }
    net.run_until_idle();
  };
  auto summaries = [&] {
    std::vector<std::string> out;
    net.trace().for_each(
        [&](const TraceEntry& e) { out.push_back(e.summary()); });
    return out;
  };
  send_pings(0, 10);
  ASSERT_EQ(net.trace().size(), 10u);
  const std::vector<std::string> first = summaries();
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(first[i], "Ping {" + std::to_string(i) + "}");
  }
  const std::string rendered = net.trace().to_string();
  EXPECT_LT(rendered.find("Ping {0}"), rendered.find("Ping {9}"));
  // clear() drops every record; recording goes on from there.
  net.trace().clear();
  EXPECT_EQ(net.trace().size(), 0u);
  EXPECT_TRUE(summaries().empty());
  send_pings(100, 2);
  EXPECT_EQ(summaries(),
            (std::vector<std::string>{"Ping {100}", "Ping {101}"}));
}

TEST_F(SimTest, NodeLookupByNameIsTransparent) {
  Network net;
  auto& a = net.add<Probe>("alpha");
  // Lookup through string_view / char* — no std::string temporaries.
  std::string_view sv = "alpha";
  EXPECT_EQ(net.node_by_name(sv), &a);
  EXPECT_EQ(net.node_by_name("alpha"), &a);
  EXPECT_EQ(net.node_by_name("beta"), nullptr);
  EXPECT_EQ(net.find<Probe>("alpha"), &a);
}

TEST_F(SimTest, RunUntilAdvancesClock) {
  Network net;
  net.add<Probe>("a");
  net.run_until(SimTime::from_micros(500'000));
  EXPECT_EQ(net.now().as_millis(), 500.0);
}

TEST_F(SimTest, SerializationExercisedOnLinks) {
  Network net;
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  net.connect(a, b, LinkProfile{});
  auto ping = std::make_shared<Ping>();
  ping->value = 0xCAFE;
  net.send(a.id(), b.id(), std::move(ping));
  net.run_until_idle();
  ASSERT_EQ(b.values.size(), 1u);
  EXPECT_EQ(b.values[0], 0xCAFEu);  // survived encode->wire->decode
  EXPECT_GT(net.stats().bytes_on_wire, 0u);
}

TEST_F(SimTest, SendWithoutLinkThrows) {
  Network net;
  auto& a = net.add<Probe>("a");
  auto& b = net.add<Probe>("b");
  EXPECT_THROW(net.send(a.id(), b.id(), std::make_shared<Ping>()),
               std::logic_error);
}

TEST_F(SimTest, DuplicateNodeNameRejected) {
  Network net;
  net.add<Probe>("a");
  EXPECT_THROW(net.add<Probe>("a"), std::invalid_argument);
}

TEST_F(SimTest, TraceMatcherSemantics) {
  // Fault annotations enter the same stream as deliveries; their names make
  // a compact hand-built trace.
  Network net;
  const NodeId a = net.add<Probe>("a").id();
  const NodeId b = net.add<Probe>("b").id();
  const NodeId c = net.add<Probe>("c").id();
  const TraceRecorder& trace = net.trace();
  auto entry = [&](NodeId from, const char* msg, NodeId to) {
    net.record_fault(SimTime::origin(), from, to, msg, msg);
  };
  entry(a, "X", b);
  entry(b, "Y", c);
  entry(a, "X", b);
  entry(c, "Z", a);

  EXPECT_EQ(trace.count("X"), 2u);
  EXPECT_EQ(trace.count(FlowStep{"a", "X", "b"}), 2u);
  EXPECT_EQ(trace.count(FlowStep{"", "X", ""}), 2u);

  EXPECT_TRUE(trace.contains_flow({{"a", "X", "b"}, {"c", "Z", "a"}}));
  EXPECT_TRUE(trace.contains_flow({{"", "Y", ""}, {"", "X", ""}}));
  std::size_t failed = 0;
  EXPECT_FALSE(trace.contains_flow({{"c", "Z", "a"}, {"b", "Y", "c"}},
                                   &failed));
  EXPECT_EQ(failed, 1u);
}

TEST_F(SimTest, HistogramStatistics) {
  Histogram h;
  for (int i = 1; i <= 100; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.5);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 100.0);
  EXPECT_NEAR(h.stddev(), 29.0115, 0.01);
}

/// Probes `m` as a T both ways; returns 1 when msg_cast matched.
template <typename T>
int msg_cast_probe(const Message* m) {
  const T* fast = msg_cast<T>(m);
  EXPECT_EQ(fast, dynamic_cast<const T*>(m))
      << T::kName << " probe on "
      << (m != nullptr ? m->name() : std::string_view("null"));
  return fast != nullptr ? 1 : 0;
}

// The probes cover aliases of one payload (UmSetup, AbisSetup and ASetup
// share CallSetupInfo, so only the wire type tells them apart), the last
// rung of Bts::on_message, the tunnel types GbUnitData and IpDatagram, and
// RasAcf, which the VMSC matches inside them after decoding.
template <typename... Ts>
struct MsgCastProbes {
  static std::array<int, sizeof...(Ts)> run(const Message* m) {
    return {msg_cast_probe<Ts>(m)...};
  }
  static constexpr std::array<std::string_view, sizeof...(Ts)> kNames{
      Ts::kName...};
};
using Probes = MsgCastProbes<UmSetup, AbisSetup, ASetup, AbisCmServiceReject,
                             GbUnitData, IpDatagram, RasAcf>;

TEST_F(SimTest, MsgCastMatchesDynamicCastOnEveryRegisteredType) {
  register_all_messages();
  const MessageRegistry& reg = MessageRegistry::instance();
  std::array<int, Probes::kNames.size()> hits{};
  for (std::uint16_t type : reg.types()) {
    const std::shared_ptr<Message> m = reg.create(type);
    ASSERT_NE(m, nullptr) << "wire type " << type;
    const auto matched = Probes::run(m.get());
    for (std::size_t i = 0; i < hits.size(); ++i) hits[i] += matched[i];
  }
  // Each probe type matches its own registered instance and no other.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], 1) << Probes::kNames[i];
  }
  for (int hit : Probes::run(nullptr)) EXPECT_EQ(hit, 0);
}

TEST_F(SimTest, CounterSet) {
  CounterSet c;
  c.bump("x");
  c.bump("x", 2);
  c.bump("y");
  EXPECT_EQ(c.get("x"), 3);
  EXPECT_EQ(c.get("y"), 1);
  EXPECT_EQ(c.get("z"), 0);
}

}  // namespace
}  // namespace vgprs
