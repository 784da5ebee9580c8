#include "common/bitstream.h"

#include <algorithm>

namespace sperr {

const std::vector<uint8_t>& WordBitWriter::finish() {
  // Spill the (< 64) pending bits a byte at a time, then trim the buffer to
  // exactly ceil(nbit_ / 8) so trailing garbage from a previous, longer use
  // of this writer can never leak into the output.
  while (cnt_ > 0) {
    if (pos_ + 1 > bytes_.size()) grow();
    bytes_[pos_++] = uint8_t(acc_);
    acc_ >>= 8;
    cnt_ = cnt_ > 8 ? cnt_ - 8 : 0;
  }
  bytes_.resize((nbit_ + 7) / 8);
  return bytes_;
}

void WordBitWriter::grow() {
  bytes_.resize(std::max<size_t>(256, bytes_.size() * 2));
}

uint64_t BitReader::word_at_end(size_t bit) const {
  if (bit >= nbits_) return 0;
  const size_t byte = bit / 8;
  const unsigned sh = unsigned(bit % 8);
  // Up to nine bytes hold the word: load those that exist.
  uint64_t w = 0;
  for (size_t i = 0; i < 8 && byte + i < nbytes_; ++i)
    w |= uint64_t(data_[byte + i]) << (8 * i);
  w >>= sh;
  if (byte + 8 < nbytes_) w |= (uint64_t(data_[byte + 8]) << 1) << (63 - sh);
  const size_t left = nbits_ - bit;
  if (left < 64) w &= (uint64_t(1) << left) - 1;
  return w;
}

uint64_t BitReader::get_bits(unsigned count) {
  if (count == 0) return 0;
  const size_t avail = bits_left();
  const unsigned take = count <= avail ? count : unsigned(avail);
  if (take < count) exhausted_ = true;  // missing bits read as zero
  uint64_t v = word_at(pos_);
  if (take < 64) v &= (uint64_t(1) << take) - 1;
  pos_ += take;
  return v;
}

}  // namespace sperr
