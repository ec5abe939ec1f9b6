// Unit tests for the common layer: identifiers, byte codecs, result types
// and the deterministic RNG.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/bytes.hpp"
#include "common/ids.hpp"
#include "common/result.hpp"
#include "common/rng.hpp"

namespace vgprs {
namespace {

TEST(ImsiTest, ParseAndFormatRoundTrip) {
  auto imsi = Imsi::parse("466920123456789");
  ASSERT_TRUE(imsi.has_value());
  EXPECT_EQ(imsi->to_string(), "466920123456789");
  EXPECT_EQ(imsi->digits(), 15);
  EXPECT_EQ(imsi->mcc(), 466);
}

TEST(ImsiTest, ParseRejectsBadInput) {
  EXPECT_FALSE(Imsi::parse("").has_value());
  EXPECT_FALSE(Imsi::parse("12345678901234567").has_value());  // 17 digits
  EXPECT_FALSE(Imsi::parse("46692a123456789").has_value());
  EXPECT_FALSE(Imsi::parse("0").has_value());  // zero is reserved invalid
}

TEST(ImsiTest, LeadingZerosPreserved) {
  auto imsi = Imsi::parse("001010000000001");
  ASSERT_TRUE(imsi.has_value());
  EXPECT_EQ(imsi->to_string(), "001010000000001");
  EXPECT_EQ(imsi->mcc(), 1);
}

TEST(MsisdnTest, CountryCodeExtraction) {
  auto uk = Msisdn::parse("440900000001");
  ASSERT_TRUE(uk.has_value());
  EXPECT_EQ(uk->country_code(), 44);
  auto hk = Msisdn::parse("850900000001");
  ASSERT_TRUE(hk.has_value());
  EXPECT_EQ(hk->country_code(), 85);
  EXPECT_EQ(uk->to_string(), "+440900000001");
}

TEST(IpAddressTest, ParseAndFormat) {
  auto ip = IpAddress::parse("192.168.1.10");
  ASSERT_TRUE(ip.has_value());
  EXPECT_EQ(ip->to_string(), "192.168.1.10");
  EXPECT_EQ(*ip, IpAddress(192, 168, 1, 10));
  EXPECT_FALSE(IpAddress::parse("300.1.1.1").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
}

TEST(IdsTest, HashDistinctness) {
  std::unordered_set<Imsi> imsis;
  std::unordered_set<IpAddress> ips;
  for (std::uint32_t i = 1; i <= 1000; ++i) {
    imsis.insert(Imsi(466920000000000ULL + i, 15));
    ips.insert(IpAddress(i));
  }
  EXPECT_EQ(imsis.size(), 1000u);
  EXPECT_EQ(ips.size(), 1000u);
}

/// Reads one field through its wire form.
template <typename T>
T read_field(ByteReader& r) {
  T v{};
  read(r, v);
  return v;
}

TEST(BytesTest, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0x12345678);
  w.u64(0x0123456789ABCDEFULL);
  write(w, true);
  write(w, std::int64_t{-5});
  w.str("hello");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0x12345678u);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_TRUE(read_field<bool>(r));
  EXPECT_EQ(read_field<std::int64_t>(r), -5);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, IdentifierRoundTrip) {
  ByteWriter w;
  write(w, Imsi(466920123456789ULL, 15));
  write(w, Msisdn(440900000001ULL, 12));
  write(w, TransportAddress(IpAddress(10, 1, 0, 3), 1720));
  write(w, TunnelId(0xDEADBEEF));
  write(w, Nsapi(6));
  ByteReader r(w.data());
  EXPECT_EQ(read_field<Imsi>(r), Imsi(466920123456789ULL, 15));
  EXPECT_EQ(read_field<Msisdn>(r), Msisdn(440900000001ULL, 12));
  EXPECT_EQ(read_field<TransportAddress>(r),
            TransportAddress(IpAddress(10, 1, 0, 3), 1720));
  EXPECT_EQ(read_field<TunnelId>(r), TunnelId(0xDEADBEEF));
  EXPECT_EQ(read_field<Nsapi>(r), Nsapi(6));
  EXPECT_TRUE(r.exhausted());
}

TEST(BytesTest, NonCanonicalBooleanIsRefused) {
  const std::vector<std::uint8_t> two{0x02};
  ByteReader r(two);
  (void)read_field<bool>(r);
  EXPECT_FALSE(r.failed());
  ASSERT_FALSE(r.status().ok());
  EXPECT_EQ(r.status().error().code, ErrorCode::kDecodeBadValue);
}

TEST(BytesTest, IdentityDigitCountAboveFifteenIsRefused) {
  for (std::uint8_t digits : {std::uint8_t{15}, std::uint8_t{16},
                              std::uint8_t{230}}) {
    ByteWriter w;
    w.u64(466920000000001ULL);
    w.u8(digits);
    ByteReader imsi(w.data());
    EXPECT_EQ(read_field<Imsi>(imsi).digits(), digits);
    ByteReader msisdn(w.data());
    EXPECT_EQ(read_field<Msisdn>(msisdn).digits(), digits);
    for (ByteReader* r : {&imsi, &msisdn}) {
      EXPECT_TRUE(r->exhausted()) << int{digits};
      if (digits <= kMaxIdentityDigits) {
        EXPECT_TRUE(r->status().ok()) << int{digits};
      } else {
        ASSERT_FALSE(r->status().ok()) << int{digits};
        EXPECT_EQ(r->status().error().code, ErrorCode::kDecodeBadValue);
      }
    }
  }
}

TEST(BytesTest, TruncatedReadFailsSafely) {
  ByteWriter w;
  w.u32(42);
  for (std::size_t cut = 0; cut < w.size(); ++cut) {
    ByteReader r(std::span(w.data().data(), cut));
    (void)r.u32();
    EXPECT_TRUE(r.failed()) << "cut=" << cut;
    EXPECT_FALSE(r.status().ok());
    // Reads after failure keep returning zero without UB.
    EXPECT_EQ(r.u64(), 0u);
  }
}

TEST(BytesTest, LengthPrefixedBlobBoundsChecked) {
  // A declared length larger than the remaining bytes must fail, not read
  // out of bounds.
  std::vector<std::uint8_t> evil{0xFF, 0xFF, 0x01};
  ByteReader r(evil);
  auto blob = r.bytes();
  EXPECT_TRUE(blob.empty());
  EXPECT_TRUE(r.failed());
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> good(7);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 7);
  Result<int> bad(ErrorCode::kNotFound, "nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error().code, ErrorCode::kNotFound);
  EXPECT_EQ(bad.value_or(3), 3);
  EXPECT_EQ(bad.error().to_string(), "not-found: nope");
}

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status err(ErrorCode::kTimeout);
  EXPECT_FALSE(err.ok());
}

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  Rng c(43);
  EXPECT_NE(a.next_u64(), c.next_u64());
}

TEST(RngTest, UniformBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    double u = rng.next_double();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.exponential(5.0);
  double mean = sum / kN;
  EXPECT_NEAR(mean, 5.0, 0.25);
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.02);
}

}  // namespace
}  // namespace vgprs
