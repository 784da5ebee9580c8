// Fuzz target: container + directory parsing and every decode entry point
// that consumes a whole container (tolerant decode, verify, low-res). The
// ResourceLimits are deliberately tight so a fuzzer-invented bomb header is
// answered resource_exhausted instead of sizing a giant allocation — the
// harness asserts nothing beyond "no crash, no sanitizer report": every
// outcome (ok, corrupt, truncated, resource_exhausted) is a valid answer
// for arbitrary bytes.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/resource.h"
#include "sperr/recovery.h"
#include "sperr/sperr.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  sperr::ResourceLimits rl = sperr::ResourceLimits::defaults();
  rl.max_output_bytes = uint64_t(1) << 24;   // 16 MiB: ample for fuzz inputs
  rl.max_working_bytes = uint64_t(1) << 24;
  rl.max_chunks = uint64_t(1) << 12;

  // Open and admission alone (the sperr_cc info path).
  {
    sperr::detail::OpenedContainer oc;
    sperr::Reservation hold;
    if (sperr::detail::open_tolerant(data, size, sperr::Recovery::fail_fast, oc,
                                     nullptr, &rl) == sperr::Status::ok)
      (void)sperr::detail::admit_decode(oc, oc.hdr.dims.total() * oc.hdr.precision,
                                        0, 1, &rl, hold);
  }
  // Full tolerant decode under each recovery policy (fail_fast is a strict
  // subset of the zero_fill control flow; coarse_fill exercises the SPECK
  // prefix decoder on damaged chunks), the second to floats.
  {
    std::vector<double> field;
    sperr::Dims dims;
    sperr::DecodeReport rep;
    (void)sperr::decompress_tolerant(data, size, sperr::Recovery::zero_fill, field,
                                     dims, &rep, &rl);
  }
  {
    std::vector<float> field;
    sperr::Dims dims;
    sperr::DecodeReport rep;
    (void)sperr::decompress_tolerant(data, size, sperr::Recovery::coarse_fill, field,
                                     dims, &rep, &rl);
  }
  // Integrity audit (no payload decode) and the multi-resolution path.
  {
    sperr::DecodeReport rep;
    (void)sperr::verify_container(data, size, &rep, &rl);
  }
  {
    std::vector<double> coarse;
    sperr::Dims cdims;
    (void)sperr::decompress_lowres(data, size, 1, coarse, cdims, &rl);
  }
  return 0;
}
