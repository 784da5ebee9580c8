#include "sperr/recovery.h"
#include "sperr/sperr.h"

namespace sperr {

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<double>& out,
                  Dims& dims, const ResourceLimits* limits) {
  // The strict decoder is the tolerant one pinned to fail_fast: every chunk
  // is still verified and decoded, but any damage fails the whole call with
  // the lowest damaged chunk index reported deterministically.
  return decompress_tolerant(stream, nbytes, Recovery::fail_fast, out, dims,
                             nullptr, limits);
}

Status decompress(const uint8_t* stream, size_t nbytes, std::vector<float>& out,
                  Dims& dims, const ResourceLimits* limits) {
  return decompress_tolerant(stream, nbytes, Recovery::fail_fast, out, dims,
                             nullptr, limits);
}

Status decompress_lowres(const uint8_t* stream, size_t nbytes, size_t drop_levels,
                         std::vector<double>& out, Dims& coarse_dims,
                         const ResourceLimits* limits) {
  DecodeReport rep;
  return detail::decode_field(stream, nbytes, Recovery::fail_fast, out, coarse_dims,
                              rep, limits, drop_levels);
}

Status decompress_lowres(const uint8_t* stream, size_t nbytes, size_t drop_levels,
                         std::vector<float>& out, Dims& coarse_dims,
                         const ResourceLimits* limits) {
  DecodeReport rep;
  return detail::decode_field(stream, nbytes, Recovery::fail_fast, out, coarse_dims,
                              rep, limits, drop_levels);
}

}  // namespace sperr
