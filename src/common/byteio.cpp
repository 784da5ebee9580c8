#include "common/byteio.h"

namespace sperr {

void put_u8(std::vector<uint8_t>& out, uint8_t v) { out.push_back(v); }

void put_u16(std::vector<uint8_t>& out, uint16_t v) {
  out.push_back(uint8_t(v));
  out.push_back(uint8_t(v >> 8));
}

void put_u32(std::vector<uint8_t>& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

void put_u64(std::vector<uint8_t>& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(uint8_t(v >> (8 * i)));
}

void put_f64(std::vector<uint8_t>& out, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

uint8_t ByteReader::u8() {
  if (pos_ + 1 > size_) { ok_ = false; return 0; }
  return data_[pos_++];
}

uint16_t ByteReader::u16() {
  if (pos_ + 2 > size_) { ok_ = false; return 0; }
  uint16_t v = uint16_t(data_[pos_]) | uint16_t(data_[pos_ + 1]) << 8;
  pos_ += 2;
  return v;
}

uint32_t ByteReader::u32() {
  if (pos_ + 4 > size_) { ok_ = false; return 0; }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= uint32_t(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

uint64_t ByteReader::u64() {
  if (pos_ + 8 > size_) { ok_ = false; return 0; }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= uint64_t(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

double ByteReader::f64() {
  const uint64_t bits = u64();
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

const uint8_t* ByteReader::raw(size_t n) {
  // Written as a subtraction: pos_ + n wraps for a declared length near 2^64.
  if (n > remaining()) { ok_ = false; return nullptr; }
  const uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

}  // namespace sperr
