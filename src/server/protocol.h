#pragma once

// Wire protocol of `sperr_serve` (docs/PROTOCOL.md is the normative spec;
// this header and the protocol-conformance ctest enforce it).
//
// Every message — request or reply — is one length-prefixed frame:
//
//   u32 magic ('SPRQ' requests, 'SPRA' replies) | u8 protocol version |
//   u8 opcode (requests) / status (replies) | u16 reserved (0) |
//   u64 request id (echoed verbatim in the reply) | u64 body length | body
//
// All integers little endian, matching the container format. The 24-byte
// header is fixed so a reader can always frame the stream; bodies are
// opcode-specific (see the Body layout constants below and PROTOCOL.md for
// the byte-by-byte tables).
//
// Reply status codes mirror the sperr_cc exit-code contract (0 ok, 1 I/O,
// 2 usage/bad request, 3 corrupt input, 4 verification failure) so scripts
// and clients share one vocabulary across the CLI and the wire; 5 (busy)
// and 6 (unsupported protocol version) are server-only extensions — a CLI
// process is never "busy", a socket peer can be. 8 (resource exhausted)
// mirrors sperr_cc exit code 5: the request was well-formed but decoding
// it would exceed the server's configured memory budget.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.h"
#include "sperr/config.h"

namespace sperr::server {

// --- framing ----------------------------------------------------------------

inline constexpr uint32_t kRequestMagic = 0x51525053;  // "SPRQ"
inline constexpr uint32_t kReplyMagic = 0x41525053;    // "SPRA"
inline constexpr uint8_t kProtocolVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 24;

/// Default cap on a single frame's body. Larger frames are rejected with
/// `bad_request` and the connection is closed (the stream cannot be
/// re-framed without consuming the advertised bytes).
inline constexpr size_t kDefaultMaxBodyBytes = size_t(1) << 30;

enum class Opcode : uint8_t {
  compress = 1,       ///< raw field in, SPERR container out
  decompress = 2,     ///< container in, dims + raw field out
  verify = 3,         ///< container in, per-chunk integrity verdicts out
  extract_chunk = 4,  ///< container + chunk index in, one decoded chunk out
  stats = 5,          ///< empty body in, server metrics snapshot out
};

/// Reply status. Values 0-4 carry exactly the meaning of the matching
/// sperr_cc exit code (tools/check_cli_codes.sh asserts that contract).
enum class WireStatus : uint8_t {
  ok = 0,
  io_error = 1,             ///< server-side I/O or internal failure
  bad_request = 2,          ///< malformed frame or unusable parameters ("usage")
  corrupt = 3,              ///< payload failed parsing / checksum verification
  verify_failed = 4,        ///< self-verification (PWE bound / round trip) failed
  busy = 5,                 ///< bounded request queue past its high-water mark
  unsupported_version = 6,  ///< frame's protocol version is not spoken here
  deadline_exceeded = 7,    ///< request missed its compute deadline; work abandoned
  resource_exhausted = 8,   ///< header-declared output/working set exceeds the
                            ///< server's ResourceLimits / memory budget
};

[[nodiscard]] constexpr const char* to_string(WireStatus s) {
  switch (s) {
    case WireStatus::ok: return "ok";
    case WireStatus::io_error: return "io_error";
    case WireStatus::bad_request: return "bad_request";
    case WireStatus::corrupt: return "corrupt";
    case WireStatus::verify_failed: return "verify_failed";
    case WireStatus::busy: return "busy";
    case WireStatus::unsupported_version: return "unsupported_version";
    case WireStatus::deadline_exceeded: return "deadline_exceeded";
    case WireStatus::resource_exhausted: return "resource_exhausted";
  }
  return "unknown";
}

/// Statuses a client may retry automatically (after backoff): the server
/// refused or abandoned the work without side effects visible on the wire.
/// Everything else is deterministic — retrying bad_request or corrupt just
/// repeats the answer. resource_exhausted is deliberately NOT retryable:
/// the rejection is computed from the request's own header against the
/// server's configured ceilings, so the same bytes get the same answer.
[[nodiscard]] constexpr bool is_retryable(WireStatus s) {
  return s == WireStatus::busy || s == WireStatus::deadline_exceeded;
}

/// A decoded frame header (request or reply; `code` is the opcode or the
/// status byte depending on direction).
struct FrameHeader {
  uint32_t magic = 0;
  uint8_t version = 0;
  uint8_t code = 0;
  uint16_t reserved = 0;
  uint64_t request_id = 0;
  uint64_t body_len = 0;
};

/// Serialize a frame header into 24 bytes appended to `out`.
void put_frame_header(std::vector<uint8_t>& out, uint32_t magic, uint8_t code,
                      uint64_t request_id, uint64_t body_len);

/// Parse 24 header bytes (no validation beyond the fixed size).
FrameHeader parse_frame_header(const uint8_t* bytes);

// --- body layouts (offsets within the body; see docs/PROTOCOL.md) -----------

/// COMPRESS request body header, followed by dims.total() * precision bytes
/// of little-endian samples (x fastest):
///   u8 mode | u8 precision (4|8) | u8 flags | u8 reserved |
///   f64 quality | f64 q_over_t (<= 0 -> default 1.5) |
///   3 x u64 dims | 3 x u64 chunk dims (all zero -> Config's default, 128^3)
inline constexpr size_t kCompressBodyHeaderBytes = 68;
inline constexpr uint8_t kCompressFlagVerify = 0x01;      ///< self-verify after encoding
inline constexpr uint8_t kCompressFlagNoLossless = 0x02;  ///< skip the final lossless pass
/// Unknown flag bits are rejected with bad_request (see the compatibility
/// policy in docs/PROTOCOL.md): a client asking for behaviour this server
/// does not implement must hear "no", not get silently different output.
inline constexpr uint8_t kCompressFlagsKnown =
    kCompressFlagVerify | kCompressFlagNoLossless;

/// DECOMPRESS request body header, followed by the container bytes:
///   u8 recovery policy (0 fail_fast / 1 zero_fill / 2 coarse_fill) |
///   u8 output precision (4|8) | u16 reserved
inline constexpr size_t kDecompressBodyHeaderBytes = 4;

/// EXTRACT_CHUNK request body header, followed by the container bytes:
///   u32 chunk index
inline constexpr size_t kExtractBodyHeaderBytes = 4;

/// VERIFY reply body: u8 container version | u8 intact | u16 reserved |
/// u32 damaged count | u32 chunk count | chunk records. Each record:
/// u32 index | u8 status (sperr::Status) | u8 checksum_present |
/// u8 checksum_ok | u8 reserved.
inline constexpr size_t kVerifyReplyHeaderBytes = 12;
inline constexpr size_t kVerifyChunkRecordBytes = 8;

/// STATS reply body (fixed size, all fields listed in docs/PROTOCOL.md).
/// Grew from 168 bytes by appending the connection/timeout counters, then
/// to 224 by appending the resource_exhausted counter; the layout never
/// reorders, so clients parse the prefix they know.
inline constexpr size_t kStatsReplyBytes = 224;
inline constexpr size_t kStatsReplyBytesV0 = 168;  ///< pre-hardening prefix
inline constexpr size_t kStatsReplyBytesV1 = 216;  ///< pre-resource-limits prefix

// --- deadline-guarded socket I/O (server, client, tests, tools) -------------
//
// A deadline needs an O_NONBLOCK descriptor: the helpers poll() before
// every recv/send, retrying EINTR with the remaining budget recomputed. The
// deadline is an *overall* budget for the whole operation, not a
// per-progress idle check — a slow-loris peer dripping one byte per poll
// interval still gets reaped when the total budget runs out. With no
// deadline (< 0) they also serve a blocking descriptor.

enum class IoOutcome : uint8_t {
  ok = 0,
  timed_out = 1,  ///< the deadline expired before the operation finished
  closed = 2,     ///< orderly EOF from the peer mid-operation
  failed = 3,     ///< socket error (ECONNRESET, EPIPE, ...)
};

/// Put `fd` into non-blocking mode. Returns false on fcntl failure.
bool set_nonblocking(int fd);

/// Read exactly `n` bytes within `timeout_ms` (< 0 = no deadline). When
/// `first_byte_timeout_ms` >= 0 the wait for the *first* byte uses that
/// budget instead (idle timeout); once a byte arrives the remaining bytes
/// must complete within a fresh `timeout_ms`.
IoOutcome read_exact_deadline(int fd, void* buf, size_t n, int timeout_ms,
                              int first_byte_timeout_ms = -1);

/// Write all `n` bytes within `timeout_ms` (< 0 = no deadline).
IoOutcome write_all_deadline(int fd, const void* buf, size_t n, int timeout_ms);

/// Connect to 127.0.0.1:port within `timeout_ms`. The returned descriptor
/// is non-blocking (use the deadline helpers on it); -1 on failure/timeout.
int connect_loopback_deadline(uint16_t port, int timeout_ms);

/// Send one request frame and read its reply, both under one `timeout_ms`
/// budget for the whole exchange (< 0 = no deadline). False on a transport
/// failure, a reply that is not an SPRA frame, a reply body over
/// `max_body` or a request id that does not match: the stream can no
/// longer be framed. Protocol-level errors arrive as the reply's status
/// byte in `reply_hdr.code`.
bool exchange(int fd, Opcode op, uint64_t request_id,
              const std::vector<uint8_t>& body, FrameHeader& reply_hdr,
              std::vector<uint8_t>& reply_body,
              size_t max_body = kDefaultMaxBodyBytes, int timeout_ms = -1);

// --- request body builders (client side: benches, tests, tools) ------------

/// Build a COMPRESS request body around f64 samples (precision 8). The
/// quality field is taken from the Config slot matching cfg.mode
/// (tolerance / bpp / rmse).
std::vector<uint8_t> build_compress_body(const sperr::Config& cfg, Dims dims,
                                         const double* samples, uint8_t flags = 0);

/// Build a DECOMPRESS request body around a container.
std::vector<uint8_t> build_decompress_body(uint8_t policy, uint8_t precision,
                                           const uint8_t* container, size_t size);

/// Build an EXTRACT_CHUNK request body around a container.
std::vector<uint8_t> build_extract_body(uint32_t chunk_index,
                                        const uint8_t* container, size_t size);

}  // namespace sperr::server
