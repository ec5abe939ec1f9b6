// Roaming scenario (paper Figs. 7-8): x, a UK subscriber, lands in Hong
// Kong; y, a Hong Kong fixed line, calls x's UK number.  Run both worlds
// and watch the two international trunks disappear.
//
//   $ ./roaming_tromboning
#include <cstdio>

#include "vgprs/scenario.hpp"

using namespace vgprs;

namespace {

void run(const char* title, bool use_vgprs) {
  std::printf("\n===== %s =====\n", title);
  TrombParams params;
  params.use_vgprs = use_vgprs;
  auto world = build_tromboning(params);

  // x's handset registers in the visited network.  In the vGPRS world the
  // VMSC registers x's UK MSISDN at the local gatekeeper.
  world->roamer->power_on();
  world->settle();
  std::printf("x registered in HK: %s\n",
              world->roamer->state() == MobileStation::State::kIdle ? "yes"
                                                                    : "no");
  if (use_vgprs) {
    auto reg = world->gk_hk->find_alias(world->roamer_id.msisdn);
    std::printf("HK gatekeeper knows %s: %s\n",
                world->roamer_id.msisdn.to_string().c_str(),
                reg.has_value() ? "yes" : "no");
  }

  // y dials x's UK number.
  world->net.trace().clear();
  SimTime dialed = world->net.now();
  double answered_ms = -1;
  world->caller->on_connected = [&] {
    answered_ms = (world->net.now() - dialed).as_millis();
  };
  world->caller->place_call(world->roamer_id.msisdn);
  world->settle();

  std::printf("call answered after %.1f ms\n", answered_ms);
  std::printf("international trunks used: %lld\n",
              static_cast<long long>(world->international_trunks()));

  // A few seconds of conversation to measure the voice path.
  world->caller->start_voice(50);
  world->roamer->start_voice(50);
  world->settle();
  std::printf("voice one-way latency y->x: %.1f ms, x->y: %.1f ms\n",
              world->roamer->voice_latency().mean(),
              world->caller->voice_latency().mean());

  // The principal call-delivery messages, as the paper draws them.
  std::puts("call delivery flow (first 18 principal messages):");
  std::size_t shown = 0;
  for (const auto& e : world->net.trace().entries()) {
    if (e.message.starts_with("ISUP") || e.message.starts_with("MAP") ||
        e.message.starts_with("RAS") || e.message.starts_with("Q931") ||
        e.message == "A_Paging") {
      std::printf("  %-12s -> %-12s %s\n", std::string(e.from).c_str(),
                  std::string(e.to).c_str(), std::string(e.message).c_str());
      if (++shown == 18) break;
    }
  }
}

}  // namespace

int main() {
  run("Fig. 7: classic GSM — the call trombones through the UK",
      /*use_vgprs=*/false);
  run("Fig. 8: vGPRS — the local gatekeeper eliminates the trombone",
      /*use_vgprs=*/true);
  std::puts("\nSame caller, same dialled number: two international trunks");
  std::puts("versus a local VoIP call.");
  return 0;
}
