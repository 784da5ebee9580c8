#pragma once

// A blocking loopback connection for tests and tools that drive the server
// with plain recv()/send() on a raw socket. The library's own connect
// (server::connect_loopback_deadline) returns a non-blocking descriptor.

#include <cstdint>

namespace sperr::server {

/// Connect to 127.0.0.1:port and return a blocking descriptor with
/// TCP_NODELAY set; -1 on failure.
int connect_loopback(uint16_t port);

}  // namespace sperr::server
