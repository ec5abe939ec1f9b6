// Inter-system handoff demo (paper Fig. 9): a call is established through
// the vGPRS VMSC, the subscriber drives out of the VMSC's coverage, and the
// standard GSM inter-system handoff moves the radio leg to a neighbouring
// classic MSC while the VMSC stays anchored in the VoIP path.
//
//   $ ./intersystem_handoff
#include <cstdio>

#include "vgprs/scenario.hpp"

using namespace vgprs;

int main() {
  HandoffParams params;
  auto world = build_handoff(params);

  std::puts("== setup: register and establish a call through the VMSC ==");
  world->ms->power_on();
  world->terminal->register_endpoint();
  world->settle();
  world->ms->dial(make_subscriber(88, 1000).msisdn);
  world->settle();
  if (world->ms->state() != MobileStation::State::kConnected) {
    std::puts("call failed to establish");
    return 1;
  }
  std::printf("call up at t=%.1f ms; voice path: MS -> BTS1 -> BSC1 -> "
              "VMSC[vocoder] -> GPRS tunnel -> terminal\n",
              world->net.now().as_millis());

  world->ms->start_voice(25);
  world->terminal->start_voice(25);
  world->settle();
  double before = world->terminal->voice_latency().mean();
  std::printf("voice one-way before handoff: %.1f ms\n", before);

  std::puts("\n== the subscriber leaves cell 101 for cell 202 (MSC-B) ==");
  world->net.trace().clear();
  world->bsc1->initiate_handover(world->ms->config().imsi,
                                 world->ms->call_ref(), CellId(202));
  world->settle();

  // Show the Fig. 9 signaling.
  for (const auto& e : world->net.trace().entries()) {
    if (e.message.find("Handover") != std::string::npos ||
        e.message.find("End_Signal") != std::string::npos ||
        e.message == "A_Clear_Command") {
      std::printf("  %-8s -> %-8s %s\n", std::string(e.from).c_str(),
                  std::string(e.to).c_str(), std::string(e.message).c_str());
    }
  }
  std::printf("call still connected: %s\n",
              world->ms->state() == MobileStation::State::kConnected
                  ? "yes"
                  : "NO");

  std::puts("\n== voice after handoff (anchor VMSC still in the path) ==");
  world->ms->start_voice(25);
  world->terminal->start_voice(25);
  world->settle();
  double after = world->terminal->voice_latency().percentile(0.9);
  std::printf("voice one-way after handoff: %.1f ms (+%.1f ms for the "
              "VMSC <-E-> MSC-B trunk)\n",
              after, after - before);
  std::printf("voice path now: MS -> BTS2 -> BSC2 -> MSC-B -> E trunk -> "
              "VMSC[vocoder] -> GPRS tunnel -> terminal\n");

  std::puts("\n== hangup after handoff ==");
  world->ms->hangup();
  world->settle();
  std::printf("released cleanly: %s; PDP contexts left: %zu\n",
              world->ms->state() == MobileStation::State::kIdle ? "yes"
                                                                : "NO",
              world->sgsn->pdp_context_count());
  return 0;
}
