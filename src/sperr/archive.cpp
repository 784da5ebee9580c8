#include "sperr/archive.h"

#include <algorithm>

#include "common/byteio.h"
#include "sperr/sperr.h"

namespace sperr::archive {

namespace {

constexpr uint32_t kMagic = 0x52415053;  // "SPAR"

}  // namespace

void Writer::add(const std::string& name, const double* data, Dims dims,
                 const Config& cfg, Stats* stats) {
  entries_.push_back({name, compress(data, dims, cfg, stats)});
}

void Writer::add_container(const std::string& name, std::vector<uint8_t> container) {
  entries_.push_back({name, std::move(container)});
}

std::vector<uint8_t> Writer::finish() const {
  // Validate names: unique, non-empty, and short enough for the u16 field.
  for (size_t i = 0; i < entries_.size(); ++i) {
    const auto& n = entries_[i].name;
    if (n.empty() || n.size() > 0xffff) return {};
    for (size_t j = i + 1; j < entries_.size(); ++j)
      if (entries_[j].name == n) return {};
  }

  std::vector<uint8_t> out;
  put_u32(out, kMagic);
  put_u32(out, uint32_t(entries_.size()));
  for (const auto& e : entries_) {
    put_u16(out, uint16_t(e.name.size()));
    out.insert(out.end(), e.name.begin(), e.name.end());
    put_u64(out, e.container.size());
    out.insert(out.end(), e.container.begin(), e.container.end());
  }
  return out;
}

Status Reader::open(const uint8_t* data, size_t size, Reader& out) {
  out.names_.clear();
  out.blobs_.clear();

  ByteReader br(data, size);
  if (br.u32() != kMagic) return Status::corrupt_stream;
  const uint32_t count = br.u32();
  if (!br.ok()) return Status::truncated_stream;
  // Each entry needs at least 2 + 1 + 8 bytes of framing.
  if (count > br.remaining() / 11) return Status::truncated_stream;

  for (uint32_t i = 0; i < count; ++i) {
    const uint16_t name_len = br.u16();
    const uint8_t* name = br.raw(name_len);
    const uint64_t blob_len = br.u64();
    if (!br.ok() || !name || name_len == 0) return Status::truncated_stream;
    if (blob_len > br.remaining()) return Status::truncated_stream;
    const uint8_t* blob = br.raw(size_t(blob_len));
    if (!blob) return Status::truncated_stream;
    out.names_.emplace_back(reinterpret_cast<const char*>(name), name_len);
    out.blobs_.emplace_back(blob, size_t(blob_len));
  }
  return Status::ok;
}

Status Reader::extract(const std::string& name, std::vector<double>& out,
                       Dims& dims, const ResourceLimits* limits) const {
  const auto blob = container(name);
  if (!blob.data()) return Status::invalid_argument;
  return decompress(blob.data(), blob.size(), out, dims, limits);
}

Status Reader::extract_tolerant(const std::string& name, Recovery policy,
                                std::vector<double>& out, Dims& dims,
                                DecodeReport* report,
                                const ResourceLimits* limits) const {
  const auto blob = container(name);
  if (!blob.data()) return Status::invalid_argument;
  return decompress_tolerant(blob.data(), blob.size(), policy, out, dims, report,
                             limits);
}

Status Reader::verify(const std::string& name, DecodeReport* report,
                      const ResourceLimits* limits) const {
  const auto blob = container(name);
  if (!blob.data()) return Status::invalid_argument;
  return verify_container(blob.data(), blob.size(), report, limits);
}

std::span<const uint8_t> Reader::container(const std::string& name) const {
  const auto it = std::find(names_.begin(), names_.end(), name);
  if (it == names_.end()) return {};
  return blobs_[size_t(it - names_.begin())];
}

}  // namespace sperr::archive
