// Readiness notification for the single-threaded IO loop, on epoll. One
// Poller instance belongs to one thread; nothing here is thread-safe.

#ifndef FUTURERAND_NET_POLLER_H_
#define FUTURERAND_NET_POLLER_H_

#include <vector>

#include "futurerand/common/result.h"
#include "futurerand/net/socket.h"

namespace futurerand::net {

/// One readiness event for a registered fd.
struct PollEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  /// Error or hangup: the connection is dead, close it. May coincide with
  /// readable (pending bytes before the FIN).
  bool hangup = false;
};

/// fd registry + wait loop. Interest is level-triggered: a readable fd
/// keeps firing until drained, a writable one until the write interest is
/// dropped.
class Poller {
 public:
  static Result<Poller> Create();

  Poller(Poller&&) = default;
  Poller& operator=(Poller&&) = default;
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  Status Add(int fd, bool want_read, bool want_write);
  Status Update(int fd, bool want_read, bool want_write);
  Status Remove(int fd);

  /// Blocks up to `timeout_ms` (-1 = forever) and fills `*events` (cleared
  /// first). Returns the number of events (0 = timeout).
  Result<int> Wait(std::vector<PollEvent>* events, int timeout_ms);

 private:
  Poller() = default;

  FdGuard epoll_fd_;
};

}  // namespace futurerand::net

#endif  // FUTURERAND_NET_POLLER_H_
