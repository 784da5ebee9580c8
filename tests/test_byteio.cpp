#include "common/byteio.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

namespace sperr {
namespace {

TEST(ByteIo, ScalarRoundTrip) {
  std::vector<uint8_t> buf;
  put_u8(buf, 0xab);
  put_u16(buf, 0x1234);
  put_u32(buf, 0xdeadbeef);
  put_u64(buf, 0x0123456789abcdefULL);
  put_f64(buf, -3.14159265358979);

  ByteReader br(buf.data(), buf.size());
  EXPECT_EQ(br.u8(), 0xab);
  EXPECT_EQ(br.u16(), 0x1234);
  EXPECT_EQ(br.u32(), 0xdeadbeefu);
  EXPECT_EQ(br.u64(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(br.f64(), -3.14159265358979);
  EXPECT_TRUE(br.ok());
  EXPECT_EQ(br.remaining(), 0u);
}

TEST(ByteIo, LittleEndianLayout) {
  std::vector<uint8_t> buf;
  put_u32(buf, 0x04030201);
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 1);
  EXPECT_EQ(buf[1], 2);
  EXPECT_EQ(buf[2], 3);
  EXPECT_EQ(buf[3], 4);
}

TEST(ByteIo, OverrunSetsNotOk) {
  std::vector<uint8_t> buf;
  put_u16(buf, 7);
  ByteReader br(buf.data(), buf.size());
  (void)br.u16();
  EXPECT_TRUE(br.ok());
  (void)br.u8();
  EXPECT_FALSE(br.ok());
}

TEST(ByteIo, RawViewAndOverrun) {
  std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  ByteReader br(buf.data(), buf.size());
  const uint8_t* p = br.raw(3);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p[2], 3);
  EXPECT_EQ(br.raw(3), nullptr);  // only 2 left
  EXPECT_FALSE(br.ok());
}

TEST(ByteIo, RawRefusesLengthThatWrapsThePosition) {
  std::vector<uint8_t> buf = {1, 2, 3, 4, 5};
  ByteReader br(buf.data(), buf.size());
  (void)br.u16();
  EXPECT_EQ(br.raw(SIZE_MAX - 1), nullptr);  // pos_ + n would wrap to 0
  EXPECT_FALSE(br.ok());
}

TEST(ByteIo, SpecialFloatValues) {
  std::vector<uint8_t> buf;
  put_f64(buf, 0.0);
  put_f64(buf, -0.0);
  put_f64(buf, 1e-300);
  put_f64(buf, 1e300);
  ByteReader br(buf.data(), buf.size());
  EXPECT_EQ(br.f64(), 0.0);
  const double neg_zero = br.f64();
  EXPECT_EQ(neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(neg_zero));
  EXPECT_DOUBLE_EQ(br.f64(), 1e-300);
  EXPECT_DOUBLE_EQ(br.f64(), 1e300);
}

}  // namespace
}  // namespace sperr
