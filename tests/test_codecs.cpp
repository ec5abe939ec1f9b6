// Codec property tests over the ENTIRE message catalog (every protocol the
// system speaks: Um/Abis/A, MAP, GPRS SM/GMM, GTP, RAS, Q.931, ISUP, RTP,
// IP).  Parameterized over every registered wire type.
#include <gtest/gtest.h>

#include "common/rng.hpp"
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

TEST(CodecFieldTest, GtpPduCarriesOpaquePayload) {
  register_all_messages();
  GtpPdu pdu;
  pdu.teid = TunnelId(0x8001);
  pdu.payload = {1, 2, 3, 4, 5, 250, 251, 252};
  auto decoded = MessageRegistry::instance().decode(pdu.encode());
  ASSERT_TRUE(decoded.ok());
  const auto& out = dynamic_cast<const GtpPdu&>(*decoded.value());
  EXPECT_EQ(out.teid, pdu.teid);
  EXPECT_EQ(out.payload, pdu.payload);
}

TEST(CodecFieldTest, NestedEncapsulationSurvivesThreeLayers) {
  register_all_messages();
  // RAS_ARQ inside an IP datagram inside a GTP PDU inside a Gb frame —
  // the full Fig. 3 protocol stack.
  RasArq arq;
  arq.endpoint_id = 7;
  arq.call_ref = CallRef(99);
  arq.called = Msisdn(440900000001ULL, 12);
  auto dgram = make_ip_datagram(IpAddress(10, 1, 0, 1),
                                IpAddress(192, 168, 1, 1), arq);
  GtpPdu pdu;
  pdu.teid = TunnelId(1);
  pdu.payload = dgram->encode();
  GbUnitData frame;
  frame.imsi = Imsi(466920000000001ULL, 15);
  frame.payload = pdu.encode();

  auto l1 = MessageRegistry::instance().decode(frame.encode());
  ASSERT_TRUE(l1.ok());
  const auto& gb = dynamic_cast<const GbUnitData&>(*l1.value());
  auto l2 = MessageRegistry::instance().decode(gb.payload);
  ASSERT_TRUE(l2.ok());
  const auto& tunnel = dynamic_cast<const GtpPdu&>(*l2.value());
  auto l3 = MessageRegistry::instance().decode(tunnel.payload);
  ASSERT_TRUE(l3.ok());
  const auto& ip = dynamic_cast<const IpDatagram&>(*l3.value());
  auto l4 = ip_payload(ip);
  ASSERT_TRUE(l4.ok());
  const auto& out = dynamic_cast<const RasArq&>(*l4.value());
  EXPECT_EQ(out.called, arq.called);
  EXPECT_EQ(out.call_ref, arq.call_ref);
}

}  // namespace
}  // namespace vgprs
