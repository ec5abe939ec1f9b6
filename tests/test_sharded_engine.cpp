// Thread-count invariance of the sharded engine: every principal scenario
// (Fig. 4-9, the TR 23.821 baseline, and the lost-setup fault run) is
// re-executed with the network partitioned along its topology seams and
// driven by 1, 2, 4 and 8 workers, and the canonical trace is compared
// byte-for-byte against the SAME goldens the sequential engine is pinned
// to.  A race, a mis-ordered mailbox commit, or a window that admits an
// event it should not all show up as a golden diff here.
//
// This test never regenerates goldens — test_golden_trace owns them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "gprs/ip.hpp"
#include "sim/export.hpp"
#include "sim/fault.hpp"
#include "tr23821/tr_scenario.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

constexpr unsigned kWorkerCounts[] = {1, 2, 4, 8};
constexpr std::size_t kNumWorkerCounts =
    sizeof(kWorkerCounts) / sizeof(kWorkerCounts[0]);

std::string canonical(const TraceRecorder& trace) {
  std::ostringstream os;
  for (const auto& e : trace.entries()) {
    os << e.at.count_micros() << ' ' << e.from << ' ' << e.to << ' '
       << e.message << '\n';
  }
  return os.str();
}

std::string read_golden(const std::string& name) {
  const std::string path = std::string(VGPRS_GOLDEN_DIR) + "/" + name + ".txt";
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream got;
  got << in.rdbuf();
  return got.str();
}

void expect_golden(const std::string& name, const std::string& actual,
                   unsigned workers) {
  const std::string expected = read_golden(name);
  if (expected == actual) return;
  // Name the first diverging delivery; full traces are thousands of lines.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string wline;
  std::string gline;
  std::size_t lineno = 0;
  while (true) {
    const bool have_w = static_cast<bool>(std::getline(want, wline));
    const bool have_g = static_cast<bool>(std::getline(got, gline));
    ++lineno;
    if (!have_w && !have_g) break;
    if (!have_w || !have_g || wline != gline) {
      ADD_FAILURE() << name << " with " << workers
                    << " worker(s): diverged at delivery " << lineno
                    << "\n  golden: "
                    << (have_w ? wline : std::string("<end of golden>"))
                    << "\n  actual: "
                    << (have_g ? gline : std::string("<end of actual>"));
      return;
    }
  }
}

VgprsParams sharded_vgprs_params(unsigned workers) {
  VgprsParams params;
  params.seed = 7;
  params.sharded = true;
  params.workers = workers;
  return params;
}

TEST(ShardedEngine, Fig4AndFig5MatchSequentialGoldens) {
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    ASSERT_GT(s->net.num_shards(), 1u);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    expect_golden("fig4_registration", canonical(s->net.trace()), w);

    s->net.trace().clear();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    expect_golden("fig5_origination_release", canonical(s->net.trace()), w);
  }
}

TEST(ShardedEngine, Fig6MatchesSequentialGolden) {
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->net.trace().clear();
    s->terminals[0]->place_call(s->ms[0]->config().msisdn);
    s->settle();
    expect_golden("fig6_termination", canonical(s->net.trace()), w);
  }
}

TEST(ShardedEngine, TromboningMatchesSequentialGoldens) {
  for (unsigned w : kWorkerCounts) {
    for (bool use_vgprs : {false, true}) {
      TrombParams params;
      params.seed = 7;
      params.use_vgprs = use_vgprs;
      params.sharded = true;
      params.workers = w;
      auto s = build_tromboning(params);
      ASSERT_GT(s->net.num_shards(), 1u);
      s->roamer->power_on();
      s->settle();
      s->caller->place_call(s->roamer_id.msisdn);
      s->settle();
      expect_golden(
          use_vgprs ? "fig8_tromboning_vgprs" : "fig7_tromboning_classic",
          canonical(s->net.trace()), w);
    }
  }
}

TEST(ShardedEngine, HandoffMatchesSequentialGolden) {
  for (unsigned w : kWorkerCounts) {
    HandoffParams params;
    params.seed = 7;
    params.sharded = true;
    params.workers = w;
    auto s = build_handoff(params);
    ASSERT_GT(s->net.num_shards(), 1u);
    s->ms->power_on();
    s->terminal->register_endpoint();
    s->settle();
    s->ms->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                               CellId(202));
    s->settle();
    expect_golden("fig9_handoff", canonical(s->net.trace()), w);
  }
}

// The TR baseline is the one topology with a jittered link (Um-PS,
// 60 ms jitter): jitter is drawn from the sending shard's RNG stream, so
// the sharded timestamps differ from the sequential golden by a fixed,
// partition-dependent offset.  What the engine guarantees — and what is
// asserted here — is that the sharded trace is byte-identical whatever
// the worker count.
TEST(ShardedEngine, Tr23821IsWorkerCountInvariant) {
  std::vector<std::string> traces;
  for (unsigned w : kWorkerCounts) {
    TrParams params;
    params.seed = 7;
    params.sharded = true;
    params.workers = w;
    auto s = build_tr23821(params);
    ASSERT_GT(s->net.num_shards(), 1u);
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    s->terminals[0]->place_call(make_subscriber(88, 1).msisdn);
    s->settle();
    traces.push_back(canonical(s->net.trace()));
  }
  ASSERT_EQ(traces.size(), kNumWorkerCounts);
  EXPECT_FALSE(traces[0].empty());
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[0], traces[i])
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
  }
}

// Fault transitions and message faults ride the same event ordering, so
// the pinned recovery sequence must survive sharding too.
TEST(ShardedEngine, LostSetupFaultMatchesSequentialGolden) {
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    FaultSchedule sched;
    sched.message_faults.push_back(
        {MessagePredicate{"A_Setup", "", "", 1, 1}, FaultKind::kDrop});
    s->net.install_faults(std::move(sched));
    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();
    s->net.trace().clear();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();
    expect_golden("fig5_with_lost_setup", canonical(s->net.trace()), w);
  }
}

// A metropolitan-style multi-cell mix: every observable surface — trace,
// metrics snapshot, span set, aggregate stats, processed-event count, and
// the deterministic per-shard window counters — must be byte-identical
// whatever the worker count.
TEST(ShardedEngine, MultiCellObservablesAreWorkerCountInvariant) {
  struct Capture {
    std::string trace;
    std::string metrics;
    std::string spans;
    std::size_t processed = 0;
    std::uint64_t messages_delivered = 0;
    std::uint64_t timers_fired = 0;
    // Per shard: (windows, events, fused_windows).
    std::vector<std::array<std::uint64_t, 3>> shard_counts;
  };
  std::vector<Capture> runs;
  for (unsigned w : kWorkerCounts) {
    VgprsParams params;
    params.seed = 42;
    params.num_cells = 4;
    params.num_ms = 12;
    params.num_terminals = 2;
    params.sharded = true;
    params.workers = w;
    auto s = build_vgprs(params);
    ASSERT_GE(s->net.num_shards(), 6u);
    s->net.spans().set_enabled(true);

    Capture cap;
    for (auto* ms : s->ms) ms->power_on();
    for (auto* t : s->terminals) t->register_endpoint();
    cap.processed += s->settle();
    // Cross-cell MS->MS waves plus MS->terminal calls: traffic crosses
    // every shard seam (Abis/A within cells, Gn/Gi/IP toward H.323).
    for (std::size_t i = 0; i + 1 < s->ms.size(); i += 2) {
      s->ms[i]->dial(s->ms[i + 1]->config().msisdn);
    }
    cap.processed += s->settle();
    for (std::size_t i = 0; i + 1 < s->ms.size(); i += 2) {
      s->ms[i]->hangup();
    }
    cap.processed += s->settle();
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    cap.processed += s->settle();
    s->ms[0]->hangup();
    cap.processed += s->settle();

    cap.trace = canonical(s->net.trace());
    std::ostringstream mos;
    write_metrics_json(mos, s->net.metrics_snapshot());
    cap.metrics = mos.str();
    std::ostringstream sos;
    write_spans_json(sos, s->net.spans().spans());
    cap.spans = sos.str();
    const NetworkStats stats = s->net.stats();
    cap.messages_delivered = stats.messages_delivered;
    cap.timers_fired = stats.timers_fired;
    for (const ShardPerfStats& p : s->net.shard_perf()) {
      cap.shard_counts.push_back({p.windows, p.events, p.fused_windows});
    }
    runs.push_back(std::move(cap));
  }
  ASSERT_EQ(runs.size(), kNumWorkerCounts);
  EXPECT_FALSE(runs[0].trace.empty());
  EXPECT_GT(runs[0].processed, 0u);
  for (std::size_t i = 1; i < runs.size(); ++i) {
    EXPECT_EQ(runs[0].trace, runs[i].trace)
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(runs[0].metrics, runs[i].metrics)
        << "metrics differ between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(runs[0].spans, runs[i].spans)
        << "spans differ between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(runs[0].processed, runs[i].processed);
    EXPECT_EQ(runs[0].messages_delivered, runs[i].messages_delivered);
    EXPECT_EQ(runs[0].timers_fired, runs[i].timers_fired);
    EXPECT_EQ(runs[0].shard_counts, runs[i].shard_counts)
        << "per-shard windows/events/fused_windows differ between 1 and "
        << kWorkerCounts[i] << " workers";
  }
}

// --- adaptive windows ---------------------------------------------------------

// The conservative window is computed per advance from the live minimum
// over *active* cross-shard links, so retuning a seam latency between runs
// (sweep-style) shrinks or grows the lookahead mid-scenario.  Window size
// must never alter event order: the same retuned scenario has to produce
// byte-identical traces at every worker count.
TEST(ShardedEngine, AdaptiveWindowSurvivesLookaheadRetune) {
  std::vector<std::string> traces;
  for (unsigned w : kWorkerCounts) {
    auto s = build_vgprs(sharded_vgprs_params(w));
    ASSERT_GT(s->net.num_shards(), 1u);
    const NodeId bsc = s->bsc->id();
    const NodeId vmsc = s->vmsc->id();
    const LinkProfile* a_if = s->net.link_between(bsc, vmsc);
    ASSERT_NE(a_if, nullptr);
    const LinkProfile original = *a_if;

    s->ms[0]->power_on();
    s->terminals[0]->register_endpoint();
    s->settle();

    // Grow the A-interface latency 20x: the seam's lookahead promise grows
    // and windows stretch accordingly.
    LinkProfile slow = original;
    slow.latency = original.latency * 20;
    s->net.set_link_profile(bsc, vmsc, slow);
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();

    // Shrink it back below the original: windows tighten again.
    LinkProfile fast = original;
    fast.latency = original.latency / 2;
    s->net.set_link_profile(bsc, vmsc, fast);
    s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
    s->settle();
    s->ms[0]->hangup();
    s->settle();

    traces.push_back(canonical(s->net.trace()));
  }
  ASSERT_EQ(traces.size(), kNumWorkerCounts);
  EXPECT_FALSE(traces[0].empty());
  for (std::size_t i = 1; i < traces.size(); ++i) {
    EXPECT_EQ(traces[0], traces[i])
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
  }
}

// A shard with no cross-shard links at all contributes no lookahead
// constraint.  When *no* shard is actively constrained below the window
// cap, the fixed point must fall back to one window spanning the whole
// advance — not a zero-length window that would spin the barrier forever.
TEST(ShardedEngine, NoActiveCrossShardLinksFallsBackToFullWindow) {
  register_all_messages();
  struct Echo final : public Node {
    using Node::Node;
    NodeId peer;
    std::int64_t remaining = 0;
    void on_message(const Envelope& env) override {
      if (remaining-- > 0) send(peer, env.msg);
    }
  };
  std::vector<std::uint64_t> delivered;
  for (unsigned w : kWorkerCounts) {
    Network net(1);
    auto& a = net.add<Echo>("a");
    auto& b = net.add<Echo>("b");
    auto& island = net.add<Echo>("island");
    (void)island;
    net.connect(a, b, LinkProfile{});
    a.peer = b.id();
    b.peer = a.id();
    a.remaining = b.remaining = 200;
    // Shard 0 holds the ping-pong pair, shard 1 is an island: the
    // cross-shard link set is empty, so every shard's lookahead is the
    // "unconstrained" sentinel and each window must run to its limit.
    net.set_shards({{a.id(), b.id()}, {island.id()}});
    net.set_workers(w);
    auto ping = std::make_shared<UmPagingRequest>();
    net.send(a.id(), b.id(), ping);
    net.run_until_idle();
    delivered.push_back(net.stats().messages_delivered);
    const std::vector<ShardPerfStats> perf = net.shard_perf();
    ASSERT_EQ(perf.size(), 2u);
    EXPECT_EQ(perf[1].events, 0u);
  }
  ASSERT_EQ(delivered.size(), kNumWorkerCounts);
  EXPECT_GT(delivered[0], 400u);
  for (std::size_t i = 1; i < delivered.size(); ++i) {
    EXPECT_EQ(delivered[0], delivered[i]);
  }
}

// --- partition planner --------------------------------------------------------

// One deliberately hot cell: a relay with 12 leaves next to two cold cells
// with 2 leaves each.  plan_shards must (a) be deterministic and (b) yield
// a partition that keeps every observable worker-count invariant.
TEST(ShardedEngine, PlannerIsDeterministicAndWorkerCountInvariant) {
  register_all_messages();
  struct Reflector final : public Node {
    using Node::Node;
    std::int64_t budget = 0;
    void on_message(const Envelope& env) override {
      if (budget-- > 0) send(env.from, env.msg);
    }
  };
  LinkProfile trunk;
  trunk.latency = SimDuration::micros(2'000);
  LinkProfile drop;
  drop.latency = SimDuration::micros(1'000);

  struct Edge {
    NodeId leaf;
    NodeId relay;
  };
  auto build = [&](Network& net, std::vector<Edge>& edges) {
    auto& hub = net.add<Reflector>("hub");
    (void)hub;
    const unsigned kLeaves[] = {12, 2, 2};
    for (unsigned c = 0; c < 3; ++c) {
      auto& relay = net.add<Reflector>("relay" + std::to_string(c));
      relay.budget = 1'000'000;
      net.connect(relay, hub, trunk);
      for (unsigned l = 0; l < kLeaves[c]; ++l) {
        auto& leaf = net.add<Reflector>(
            "leaf" + std::to_string(c) + "_" + std::to_string(l));
        leaf.budget = 8;
        net.connect(leaf, relay, drop);
        edges.push_back({leaf.id(), relay.id()});
      }
    }
  };

  std::vector<std::vector<std::vector<NodeId>>> plans;
  std::vector<std::string> traces;
  std::vector<std::uint64_t> delivered;
  for (unsigned w : kWorkerCounts) {
    Network net(1);
    std::vector<Edge> edges;
    build(net, edges);
    auto plan = net.plan_shards(4);
    ASSERT_GE(plan.size(), 3u);
    net.set_shards(plan);
    net.set_workers(w);
    plans.push_back(std::move(plan));

    // Every leaf opens an 8-bounce exchange with its relay.
    for (const Edge& e : edges) {
      net.send(e.leaf, e.relay, std::make_shared<UmPagingRequest>());
    }
    net.run_until_idle();
    delivered.push_back(net.stats().messages_delivered);
    traces.push_back(canonical(net.trace()));
  }
  ASSERT_EQ(plans.size(), kNumWorkerCounts);
  ASSERT_EQ(traces.size(), kNumWorkerCounts);
  EXPECT_FALSE(traces[0].empty());
  EXPECT_GT(delivered[0], 0u);
  for (std::size_t i = 1; i < plans.size(); ++i) {
    EXPECT_EQ(plans[0], plans[i]) << "plan is not deterministic";
    EXPECT_EQ(traces[0], traces[i])
        << "trace differs between 1 and " << kWorkerCounts[i] << " workers";
    EXPECT_EQ(delivered[0], delivered[i]);
  }
}

// --- partitioning validation ------------------------------------------------

TEST(ShardedEngine, SetShardsRejectsRunNetwork) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->settle();
  EXPECT_THROW(s->net.set_shards({{}, {s->ms[0]->id()}}), std::logic_error);
}

TEST(ShardedEngine, SetShardsRejectsDuplicateNode) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  EXPECT_THROW(
      s->net.set_shards({{s->ms[0]->id()}, {s->ms[0]->id()}}),
      std::invalid_argument);
}

TEST(ShardedEngine, SetShardsRejectsInstalledFaults) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  FaultSchedule sched;
  sched.node_outages.push_back({"VLR", SimTime::from_micros(100'000),
                                SimTime::from_micros(2'000'000)});
  s->net.install_faults(std::move(sched));
  EXPECT_THROW(s->net.set_shards({{}, {s->ms[0]->id()}}), std::logic_error);
}

TEST(ShardedEngine, ZeroLatencyCrossShardLinkIsRejected) {
  Network net(1);
  auto& a = net.add<IpRouter>("A");
  auto& b = net.add<IpRouter>("B");
  LinkProfile wire;
  wire.latency = SimDuration::zero();
  net.connect(a, b, wire);
  net.set_shards({{a.id()}, {b.id()}});
  EXPECT_THROW(net.run_until_idle(), std::logic_error);
}

}  // namespace
}  // namespace vgprs
