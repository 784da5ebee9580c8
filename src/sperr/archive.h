#pragma once

// Multi-variable archive: several named fields (each its own SPERR container,
// possibly with different modes/tolerances) bundled into one blob/file — the
// shape of the paper's motivating use cases (§I: a CESM-LENS-style community
// archive stores dozens of variables per snapshot, each with its own quality
// contract).
//
// Layout (little endian):
//   u32 magic 'SPAR' | u32 count |
//   per variable { u16 name_len | name bytes | u64 blob_len | blob }
// Each blob is a standard SPERR container (see docs/FORMAT.md), so single
// variables can be extracted and decompressed without touching the rest.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/resource.h"
#include "common/types.h"
#include "sperr/config.h"

namespace sperr::archive {

struct Entry {
  std::string name;
  std::vector<uint8_t> container;  ///< a sperr::compress() result
};

class Writer {
 public:
  /// Compress and append a variable. Names must be unique and non-empty
  /// (enforced at finish()). Throws what sperr::compress throws.
  void add(const std::string& name, const double* data, Dims dims,
           const Config& cfg, Stats* stats = nullptr);

  /// Append an existing container under a name (e.g. re-bundling).
  void add_container(const std::string& name, std::vector<uint8_t> container);

  /// Serialize the archive. Returns an empty vector (and leaves the writer
  /// intact) if validation fails — duplicate or empty names.
  [[nodiscard]] std::vector<uint8_t> finish() const;

  [[nodiscard]] size_t count() const { return entries_.size(); }

 private:
  std::vector<Entry> entries_;
};

class Reader {
 public:
  /// Parse an archive produced by Writer::finish. Entries are views into
  /// the caller's buffer, not copies — it must outlive the Reader.
  static Status open(const uint8_t* data, size_t size, Reader& out);

  [[nodiscard]] const std::vector<std::string>& names() const { return names_; }

  /// Decompress one variable by name; not_found -> invalid_argument.
  /// All three accessors forward `limits` (nullptr = the finite
  /// ResourceLimits::defaults()) to the underlying decoder, so a hostile
  /// blob inside an otherwise well-formed archive is answered
  /// resource_exhausted instead of sizing an allocation from its header.
  Status extract(const std::string& name, std::vector<double>& out, Dims& dims,
                 const ResourceLimits* limits = nullptr) const;

  /// Fault-isolated extract: sperr::decompress_tolerant semantics on one
  /// variable (damage in other variables' containers does not matter here —
  /// each blob is independent by construction).
  Status extract_tolerant(const std::string& name, Recovery policy,
                          std::vector<double>& out, Dims& dims,
                          DecodeReport* report = nullptr,
                          const ResourceLimits* limits = nullptr) const;

  /// Integrity audit of one variable's container (sperr::verify_container).
  Status verify(const std::string& name, DecodeReport* report = nullptr,
                const ResourceLimits* limits = nullptr) const;

  /// Raw container bytes for one variable (for re-bundling / inspection):
  /// a view into the buffer given to open(), whose data() is null when no
  /// variable has that name.
  [[nodiscard]] std::span<const uint8_t> container(const std::string& name) const;

 private:
  std::vector<std::string> names_;
  std::vector<std::span<const uint8_t>> blobs_;
};

}  // namespace sperr::archive
