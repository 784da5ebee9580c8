#include "testkit/loopback.h"

#include <fcntl.h>
#include <unistd.h>

#include "server/protocol.h"

namespace sperr::server {

int connect_loopback(uint16_t port) {
  const int fd = connect_loopback_deadline(port, -1);
  if (fd < 0) return -1;
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0 && ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK) == 0) return fd;
  ::close(fd);
  return -1;
}

}  // namespace sperr::server
