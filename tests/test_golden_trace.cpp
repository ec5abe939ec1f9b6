// Engine-equivalence regression: the delivered message sequence (time,
// from, to, message name) of every principal scenario — Fig. 4–9 plus the
// TR 23.821 baseline — is compared byte-for-byte against golden traces
// recorded with the seed engine.  Any event-engine change that reorders,
// retimes, drops or duplicates a delivery fails here, not in a flaky
// integration test.  The fault-free scenarios also must not resend or give
// up on any request.
//
// Regenerate the goldens (only when a behaviour change is intended) with:
//   VGPRS_UPDATE_GOLDEN=1 ./test_golden_trace
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "sim/fault.hpp"
#include "tr23821/tr_scenario.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

/// Canonical one-line-per-delivery rendering: timestamps in microseconds so
/// the comparison is exact, no parameter summaries so goldens stay stable
/// under message-describe cosmetics.
std::string canonical(const TraceRecorder& trace) {
  std::ostringstream os;
  for (const auto& e : trace.entries()) {
    os << e.at.count_micros() << ' ' << e.from << ' ' << e.to << ' '
       << e.message << '\n';
  }
  return os.str();
}

std::string golden_path(const std::string& name) {
  return std::string(VGPRS_GOLDEN_DIR) + "/" + name + ".txt";
}

void check_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("VGPRS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << " (run with VGPRS_UPDATE_GOLDEN=1 to create)";
  std::ostringstream expected;
  expected << in.rdbuf();
  if (expected.str() == actual) return;
  // Forensics: locate the first diverging delivery so the failure names the
  // event rather than drowning the log in two full traces.
  std::istringstream want(expected.str());
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
      std::fprintf(stderr,
                   "%s: first divergence at delivery %zu\n"
                   "  golden: %s\n"
                   "  actual: %s\n",
                   name.c_str(), lineno,
                   have_w ? wline.c_str() : "<end of golden>",
                   have_g ? gline.c_str() : "<end of actual>");
      break;
    }
  }
  auto lines = [](const std::string& s) {
    return std::count(s.begin(), s.end(), '\n');
  };
  ADD_FAILURE() << name << ": diverged from the seed engine at delivery "
                << lineno << " (golden " << lines(expected.str())
                << " deliveries, actual " << lines(actual)
                << "; details on stderr)";
}

/// Nothing fails in a fault-free run, so no request may be retransmitted
/// or given up.  Each settle runs the queue dry: a request still armed
/// when a call is left up (Fig. 6, TR 23.821) would be resent and given up
/// (1 + 2 + 4 + 8 s) before this check.
void expect_no_recovery(Network& net) {
  EXPECT_EQ(net.metrics().counter("recovery/retransmits"), 0);
  EXPECT_EQ(net.metrics().counter("recovery/give_ups"), 0);
}

TEST(GoldenTrace, Fig4RegistrationAndFig5CallCycle) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  check_golden("fig4_registration", canonical(s->net.trace()));

  s->net.trace().clear();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->ms[0]->hangup();
  s->settle();
  check_golden("fig5_origination_release", canonical(s->net.trace()));
  expect_no_recovery(s->net);
}

TEST(GoldenTrace, Fig6Termination) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  s->net.trace().clear();
  s->terminals[0]->place_call(s->ms[0]->config().msisdn);
  s->settle();
  check_golden("fig6_termination", canonical(s->net.trace()));
  expect_no_recovery(s->net);
}

TEST(GoldenTrace, Fig7ClassicTromboning) {
  TrombParams params;
  params.seed = 7;
  params.use_vgprs = false;
  auto s = build_tromboning(params);
  s->roamer->power_on();
  s->settle();
  s->caller->place_call(s->roamer_id.msisdn);
  s->settle();
  check_golden("fig7_tromboning_classic", canonical(s->net.trace()));
  expect_no_recovery(s->net);
}

TEST(GoldenTrace, Fig8VgprsLocalDelivery) {
  TrombParams params;
  params.seed = 7;
  params.use_vgprs = true;
  auto s = build_tromboning(params);
  s->roamer->power_on();
  s->settle();
  s->caller->place_call(s->roamer_id.msisdn);
  s->settle();
  check_golden("fig8_tromboning_vgprs", canonical(s->net.trace()));
  expect_no_recovery(s->net);
}

TEST(GoldenTrace, Fig9Handoff) {
  HandoffParams params;
  params.seed = 7;
  auto s = build_handoff(params);
  s->ms->power_on();
  s->terminal->register_endpoint();
  s->settle();
  s->ms->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->bsc1->initiate_handover(s->ms->config().imsi, s->ms->call_ref(),
                             CellId(202));
  s->settle();
  check_golden("fig9_handoff", canonical(s->net.trace()));
  expect_no_recovery(s->net);
}

// Fault-path equivalence: the recovery sequences themselves are pinned, so
// a change to retransmission timing or fault bookkeeping shows up as a
// golden diff, not just as "the test still passes eventually".

TEST(GoldenTrace, Fig4WithVlrRestart) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  // The VLR crashes just as authentication reaches it and restarts with
  // empty volatile state; the VMSC's MAP retransmission re-drives the
  // exchange and registration completes after the restart.
  FaultSchedule sched;
  sched.node_outages.push_back({"VLR", SimTime::from_micros(100'000),
                                SimTime::from_micros(2'000'000)});
  s->net.install_faults(std::move(sched));
  s->ms[0]->power_on();
  s->settle();
  check_golden("fig4_with_vlr_restart", canonical(s->net.trace()));
}

TEST(GoldenTrace, Fig5WithLostSetup) {
  VgprsParams params;
  params.seed = 7;
  auto s = build_vgprs(params);
  // The first A_Setup vanishes between BSC and VMSC; the MS-side
  // retransmission re-offers the call and the cycle completes.
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
  check_golden("fig5_with_lost_setup", canonical(s->net.trace()));
}

TEST(GoldenTrace, Tr23821RegistrationAndCalls) {
  TrParams params;
  params.seed = 7;
  auto s = build_tr23821(params);
  s->ms[0]->power_on();
  s->terminals[0]->register_endpoint();
  s->settle();
  check_golden("tr23821_registration", canonical(s->net.trace()));

  s->net.trace().clear();
  s->ms[0]->dial(make_subscriber(88, 1000).msisdn);
  s->settle();
  s->ms[0]->hangup();
  s->settle();
  s->terminals[0]->place_call(make_subscriber(88, 1).msisdn);
  s->settle();
  check_golden("tr23821_call_cycle", canonical(s->net.trace()));
  expect_no_recovery(s->net);
}

}  // namespace
}  // namespace vgprs
