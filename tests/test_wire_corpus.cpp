// Wire-layout corpus: pins every registered message type's encoding across
// commits.  The codec sweep checks that each codec agrees with itself; this
// test checks that it agrees with the codecs that wrote
// golden/wire_corpus.txt, so a field that is reordered, resized or re-typed
// fails here even when encoding and decoding still mirror each other.
//
// For each wire type the corpus holds the default instance's encoding, then
// up to 8 single-byte payload mutations of it that still decode, drawn from
// a fixed per-type seed.  Each line is the type, the mutation, the full wire
// image in hex and the decoded message's summary().
//
// The test never rewrites the corpus.  On a mismatch it writes what the
// current codecs produce to wire_corpus.actual.txt in its working directory,
// so the difference can be reviewed with diff.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

constexpr int kMutationsPerType = 8;
constexpr int kAttemptsPerType = 64;

std::string hex(const std::vector<std::uint8_t>& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

std::string type_hex(std::uint16_t type) {
  char buf[8];
  std::snprintf(buf, sizeof buf, "%04x", type);
  return buf;
}

/// Rebuilds the corpus from the current codecs.  Every kept mutation must
/// also re-encode to exactly the bytes it was decoded from.
std::string build_corpus() {
  register_all_messages();
  const MessageRegistry& reg = MessageRegistry::instance();
  std::ostringstream os;
  for (std::uint16_t type : reg.types()) {
    const std::string tag = type_hex(type);
    const std::vector<std::uint8_t> wire = reg.create(type)->encode();
    auto base = reg.decode(wire);
    EXPECT_TRUE(base.ok()) << reg.name_of(type);
    if (!base.ok()) continue;
    os << tag << " default " << hex(wire) << ' ' << base.value()->summary()
       << '\n';

    Rng rng(0xC0DEC0DE00000000ULL | type);
    const std::size_t payload = wire.size() - 2;  // keep the type header
    int kept = 0;
    for (int attempt = 0; payload > 0 && attempt < kAttemptsPerType &&
                          kept < kMutationsPerType;
         ++attempt) {
      const std::size_t pos = 2 + rng.next_below(payload);
      const auto value = static_cast<std::uint8_t>(rng.next_u32());
      if (value == wire[pos]) continue;
      std::vector<std::uint8_t> mutated = wire;
      mutated[pos] = value;
      auto decoded = reg.decode(mutated);
      if (!decoded.ok()) continue;
      EXPECT_EQ(decoded.value()->encode(), mutated)
          << reg.name_of(type) << " byte " << pos;
      os << tag << " byte" << pos << '=' << hex({value}) << ' '
         << hex(mutated) << ' ' << decoded.value()->summary() << '\n';
      ++kept;
    }
  }
  return os.str();
}

TEST(WireCorpus, EveryTypeEncodesAsCommitted) {
  const std::string actual = build_corpus();
  const std::string path = std::string(VGPRS_GOLDEN_DIR) + "/wire_corpus.txt";
  std::ifstream in(path);
  std::ostringstream expected;
  expected << in.rdbuf();
  if (in.good() && actual == expected.str()) return;

  std::ofstream("wire_corpus.actual.txt", std::ios::trunc) << actual;
  ASSERT_TRUE(in.good()) << "missing corpus " << path;
  std::istringstream want(expected.str());
  std::istringstream got(actual);
  std::string wline;
  std::string gline;
  for (std::size_t lineno = 1;; ++lineno) {
    const bool have_w = static_cast<bool>(std::getline(want, wline));
    const bool have_g = static_cast<bool>(std::getline(got, gline));
    if (!have_w && !have_g) break;
    if (!have_w || !have_g || wline != gline) {
      ADD_FAILURE() << "wire layout differs from " << path << " at line "
                    << lineno << "\n  corpus: "
                    << (have_w ? wline : "<end of corpus>")
                    << "\n  actual: " << (have_g ? gline : "<end of actual>")
                    << "\n(full output in wire_corpus.actual.txt)";
      break;
    }
  }
}

}  // namespace
}  // namespace vgprs
