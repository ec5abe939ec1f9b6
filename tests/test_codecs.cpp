// Codec property tests over the ENTIRE message catalog (every protocol the
// system speaks: Um/Abis/A, MAP, GPRS SM/GMM, GTP, RAS, Q.931, ISUP, RTP,
// IP).  Parameterized over every registered wire type.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "gprs/data_ms.hpp"
#include "vgprs/scenario.hpp"

namespace vgprs {
namespace {

class CodecSweep : public ::testing::TestWithParam<std::uint16_t> {
 protected:
  static void SetUpTestSuite() { register_all_messages(); }
};

TEST_P(CodecSweep, EncodeDecodeReencodeIsStable) {
  const auto& reg = MessageRegistry::instance();
  auto msg = reg.create(GetParam());
  ASSERT_NE(msg, nullptr);
  auto wire = msg->encode();
  auto decoded = reg.decode(wire);
  ASSERT_TRUE(decoded.ok()) << reg.name_of(GetParam()) << ": "
                            << decoded.error().to_string();
  EXPECT_EQ(decoded.value()->wire_type(), GetParam());
  EXPECT_EQ(decoded.value()->name(), msg->name());
  // Round-trip fixed point: decoding then re-encoding yields the same bytes.
  EXPECT_EQ(decoded.value()->encode(), wire) << reg.name_of(GetParam());
}

TEST_P(CodecSweep, EveryTruncationFailsGracefully) {
  const auto& reg = MessageRegistry::instance();
  auto msg = reg.create(GetParam());
  ASSERT_NE(msg, nullptr);
  auto wire = msg->encode();
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto result = reg.decode(std::span(wire.data(), cut));
    EXPECT_FALSE(result.ok())
        << reg.name_of(GetParam()) << " decoded from " << cut << "/"
        << wire.size() << " bytes";
  }
}

TEST_P(CodecSweep, TrailingGarbageRejected) {
  const auto& reg = MessageRegistry::instance();
  auto msg = reg.create(GetParam());
  auto wire = msg->encode();
  wire.push_back(0x00);
  auto result = reg.decode(wire);
  EXPECT_FALSE(result.ok()) << reg.name_of(GetParam());
}

TEST_P(CodecSweep, SummaryIsNonEmptyAndNamed) {
  auto msg = MessageRegistry::instance().create(GetParam());
  EXPECT_FALSE(msg->summary().empty());
  EXPECT_NE(msg->summary().find(msg->name()), std::string::npos);
}

std::vector<std::uint16_t> all_types() {
  register_all_messages();
  return MessageRegistry::instance().types();
}

INSTANTIATE_TEST_SUITE_P(AllMessages, CodecSweep,
                         ::testing::ValuesIn(all_types()),
                         [](const ::testing::TestParamInfo<std::uint16_t>& i) {
                           std::string n(
                               MessageRegistry::instance().name_of(i.param));
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

TEST(CodecRobustness, RandomBytesNeverCrash) {
  register_all_messages();
  const auto& reg = MessageRegistry::instance();
  Rng rng(123);
  int decoded_ok = 0;
  for (int i = 0; i < 5000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_below(64));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_u32());
    auto result = reg.decode(junk);
    if (result.ok()) ++decoded_ok;  // possible but must not crash/UB
  }
  SUCCEED() << decoded_ok << " random buffers happened to parse";
}

TEST(CodecRobustness, UnknownWireTypeIsError) {
  register_all_messages();
  ByteWriter w;
  w.u16(0x7FFF);
  auto result = MessageRegistry::instance().decode(w.data());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.error().code, ErrorCode::kDecodeUnknownType);
}

TEST(CodecFieldTest, GsmLocationUpdateFields) {
  register_all_messages();
  UmLocationUpdateRequest msg;
  msg.imsi = Imsi(466920000000123ULL, 15);
  msg.tmsi = Tmsi(0xAABBCCDD);
  msg.lai = LocationAreaId(42);
  msg.cell = CellId(101);
  auto decoded = MessageRegistry::instance().decode(msg.encode());
  ASSERT_TRUE(decoded.ok());
  const auto& out =
      dynamic_cast<const UmLocationUpdateRequest&>(*decoded.value());
  EXPECT_EQ(out.imsi, msg.imsi);
  EXPECT_EQ(out.tmsi, msg.tmsi);
  EXPECT_EQ(out.lai, msg.lai);
  EXPECT_EQ(out.cell, msg.cell);
}

TEST(CodecFieldTest, MapAuthTripletsVector) {
  register_all_messages();
  MapSendAuthInfoAck msg;
  msg.imsi = Imsi(466920000000001ULL, 15);
  msg.triplets = {AuthTriplet{1, 2, 3}, AuthTriplet{4, 5, 6},
                  AuthTriplet{7, 8, 9}};
  auto decoded = MessageRegistry::instance().decode(msg.encode());
  ASSERT_TRUE(decoded.ok());
  const auto& out = dynamic_cast<const MapSendAuthInfoAck&>(*decoded.value());
  ASSERT_EQ(out.triplets.size(), 3u);
  EXPECT_EQ(out.triplets[1], (AuthTriplet{4, 5, 6}));
}

TEST(CodecFieldTest, SubscriberProfileInInsertSubsData) {
  register_all_messages();
  MapInsertSubsData msg;
  msg.imsi = Imsi(440004669000001ULL, 15);
  msg.profile.msisdn = Msisdn(440900000001ULL, 12);
  msg.profile.international_calls_allowed = false;
  msg.profile.static_pdp_address = IpAddress(10, 2, 0, 9);
  auto decoded = MessageRegistry::instance().decode(msg.encode());
  ASSERT_TRUE(decoded.ok());
  const auto& out = dynamic_cast<const MapInsertSubsData&>(*decoded.value());
  EXPECT_EQ(out.profile, msg.profile);
}

TEST(CodecFieldTest, GtpPduCarriesNestedMessage) {
  register_all_messages();
  auto ping = std::make_shared<DataPing>();
  ping->seq = 0xFAFBFC;
  ping->origin_us = -5;
  GtpPdu pdu;
  pdu.teid = TunnelId(0x8001);
  pdu.inner = ping;
  auto decoded = MessageRegistry::instance().decode(pdu.encode());
  ASSERT_TRUE(decoded.ok());
  const auto& out = dynamic_cast<const GtpPdu&>(*decoded.value());
  EXPECT_EQ(out.teid, pdu.teid);
  const auto& inner = dynamic_cast<const DataPing&>(*out.inner);
  EXPECT_EQ(inner.seq, ping->seq);
  EXPECT_EQ(inner.origin_us, ping->origin_us);
  EXPECT_EQ(out.encode(), pdu.encode());
}

TEST(CodecFieldTest, NestedEncapsulationSurvivesThreeLayers) {
  register_all_messages();
  // RAS_ARQ inside an IP datagram inside a GTP PDU inside a Gb frame —
  // the full Fig. 3 protocol stack.
  auto arq = std::make_shared<RasArq>();
  arq->endpoint_id = 7;
  arq->call_ref = CallRef(99);
  arq->called = Msisdn(440900000001ULL, 12);
  auto pdu = std::make_shared<GtpPdu>();
  pdu->teid = TunnelId(1);
  pdu->inner = make_ip_datagram(IpAddress(10, 1, 0, 1),
                                IpAddress(192, 168, 1, 1), arq);
  GbUnitData frame;
  frame.imsi = Imsi(466920000000001ULL, 15);
  frame.inner = pdu;

  auto l1 = MessageRegistry::instance().decode(frame.encode());
  ASSERT_TRUE(l1.ok());
  const auto& gb = dynamic_cast<const GbUnitData&>(*l1.value());
  const auto& tunnel = dynamic_cast<const GtpPdu&>(*gb.inner);
  const auto& ip = dynamic_cast<const IpDatagram&>(*tunnel.inner);
  const auto& out = dynamic_cast<const RasArq&>(*ip.inner);
  EXPECT_EQ(out.called, arq->called);
  EXPECT_EQ(out.call_ref, arq->call_ref);
}

/// `levels` IP datagrams nested around a RAS message.
MessagePtr nested_datagrams(unsigned levels) {
  auto msg = MessagePtr(std::make_shared<RasArq>());
  for (unsigned i = 0; i < levels; ++i) {
    msg = make_ip_datagram(IpAddress(10, 1, 0, 1), IpAddress(192, 168, 1, 1),
                           std::move(msg));
  }
  return msg;
}

TEST(CodecFieldTest, NestingDeeperThanTheBoundIsRefused) {
  register_all_messages();
  // kMaxNesting datagrams around the RAS message: the outermost is the
  // frame, so the RAS message sits kMaxNesting levels down and decodes.
  auto at_bound = MessageRegistry::instance().decode(
      nested_datagrams(kMaxNesting)->encode());
  ASSERT_TRUE(at_bound.ok()) << at_bound.error().to_string();
  // One level more, and a crafted image far deeper than any stack could
  // follow, are refused without recursing past the bound.
  for (unsigned levels : {kMaxNesting + 1, 1000u}) {
    auto deeper = MessageRegistry::instance().decode(
        nested_datagrams(levels)->encode());
    ASSERT_FALSE(deeper.ok()) << levels << " levels";
    EXPECT_EQ(deeper.error().code, ErrorCode::kDecodeBadValue) << levels;
  }
}

TEST(CodecFieldTest, InnerLengthOverrunIsRefused) {
  register_all_messages();
  GbUnitData frame;
  frame.imsi = Imsi(466920000000001ULL, 15);
  frame.inner = nested_datagrams(1);
  const std::vector<std::uint8_t> wire = frame.encode();
  // Gb type (2), IMSI (9), inner length (2), then the datagram: type (2),
  // src (4), dst (4), protocol (1), and its own inner length.
  constexpr std::size_t kFrameLength = 11;
  constexpr std::size_t kDatagramLength = kFrameLength + 2 + 11;

  // The datagram claims more bytes than its image holds: the frame is
  // whole, but the inner it carries does not decode.
  std::vector<std::uint8_t> inner_overrun = wire;
  inner_overrun[kDatagramLength] = 0xFF;
  inner_overrun[kDatagramLength + 1] = 0xFF;
  auto refused = MessageRegistry::instance().decode(inner_overrun);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, ErrorCode::kDecodeBadValue);

  // The frame's own length overruns the buffer: a short frame, as for any
  // length-prefixed field.
  std::vector<std::uint8_t> frame_overrun = wire;
  frame_overrun[kFrameLength] = 0xFF;
  frame_overrun[kFrameLength + 1] = 0xFF;
  auto truncated = MessageRegistry::instance().decode(frame_overrun);
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.error().code, ErrorCode::kDecodeTruncated);
}

}  // namespace
}  // namespace vgprs
