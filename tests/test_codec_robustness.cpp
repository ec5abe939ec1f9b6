// Registry-driven codec robustness: every registered wire type must decode
// truncated and bit-flipped buffers gracefully — a Status error or a clean
// accept, never a crash.  This is the in-suite twin of vgprs_lint's codec
// sweep; running it under the asan-ubsan preset upgrades "no crash" to
// "no undefined behaviour".
#include <gtest/gtest.h>

#include "sim/message.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

class CodecRobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override { register_all_messages(); }

  static const MessageRegistry& reg() { return MessageRegistry::instance(); }
};

TEST_F(CodecRobustnessTest, RegistryIsPopulated) {
  // The paper's four protocol families plus transport: a shrinking registry
  // would silently skip the sweeps below.
  EXPECT_GE(reg().types().size(), 150u);
  EXPECT_TRUE(reg().collisions().empty());
}

TEST_F(CodecRobustnessTest, EveryTypeRoundTripsItsDefaultEncoding) {
  for (std::uint16_t type : reg().types()) {
    std::shared_ptr<Message> msg = reg().create(type);
    ASSERT_NE(msg, nullptr) << reg().name_of(type);
    std::vector<std::uint8_t> wire = msg->encode();
    auto decoded = reg().decode(wire);
    ASSERT_TRUE(decoded.ok())
        << reg().name_of(type) << ": " << decoded.error().to_string();
    EXPECT_EQ(decoded.value()->encode(), wire) << reg().name_of(type);
  }
}

TEST_F(CodecRobustnessTest, TruncatedBuffersDecodeToStatusErrors) {
  for (std::uint16_t type : reg().types()) {
    std::vector<std::uint8_t> wire = reg().create(type)->encode();
    for (std::size_t len = 0; len < wire.size(); ++len) {
      auto decoded = reg().decode(std::span(wire.data(), len));
      if (!decoded.ok()) {
        EXPECT_NE(decoded.error().code, ErrorCode::kNone);
        continue;
      }
      // A shorter buffer that still decodes must be self-consistent.
      EXPECT_EQ(decoded.value()->encode(),
                std::vector<std::uint8_t>(wire.begin(),
                                          wire.begin() +
                                              static_cast<long>(len)))
          << reg().name_of(type) << " truncated to " << len;
    }
  }
}

TEST_F(CodecRobustnessTest, BitFlippedBuffersNeverCrashTheDecoder) {
  for (std::uint16_t type : reg().types()) {
    std::vector<std::uint8_t> wire = reg().create(type)->encode();
    // Flip every bit of the payload (the type header is exercised by the
    // unknown-type test below).
    for (std::size_t pos = 2; pos < wire.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        std::vector<std::uint8_t> mutated = wire;
        mutated[pos] =
            static_cast<std::uint8_t>(mutated[pos] ^ (1u << bit));
        auto decoded = reg().decode(mutated);
        if (decoded.ok()) {
          EXPECT_EQ(decoded.value()->encode(), mutated)
              << reg().name_of(type) << " byte " << pos << " bit " << bit;
        } else {
          EXPECT_NE(decoded.error().code, ErrorCode::kNone);
        }
      }
    }
  }
}

TEST_F(CodecRobustnessTest, UnknownWireTypesAreRejected) {
  for (std::uint16_t type : {0x0000, 0x7FFF, 0xFFEE}) {
    ASSERT_FALSE(reg().known(static_cast<std::uint16_t>(type)));
    std::vector<std::uint8_t> buf{static_cast<std::uint8_t>(type >> 8),
                                  static_cast<std::uint8_t>(type & 0xFF),
                                  0xAB, 0xCD};
    auto decoded = reg().decode(buf);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, ErrorCode::kDecodeUnknownType);
  }
}

TEST_F(CodecRobustnessTest, TrailingBytesAreRejected) {
  for (std::uint16_t type : reg().types()) {
    std::vector<std::uint8_t> wire = reg().create(type)->encode();
    wire.push_back(0x5A);
    auto decoded = reg().decode(wire);
    // Most payloads have fixed layouts, so one extra byte must be refused;
    // length-prefixed tails may legitimately absorb it only if the result
    // re-encodes to the same bytes — which a trailing garbage byte cannot.
    ASSERT_FALSE(decoded.ok()) << reg().name_of(type);
  }
}

}  // namespace
}  // namespace vgprs
