#include "futurerand/net/poller.h"

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <string>

#include <sys/epoll.h>

namespace futurerand::net {

namespace {

Status ErrnoStatus(const std::string& what) {
  return Status::IoError(what + ": " + std::strerror(errno));
}

uint32_t EpollMask(bool want_read, bool want_write) {
  uint32_t mask = 0;
  if (want_read) {
    mask |= EPOLLIN;
  }
  if (want_write) {
    mask |= EPOLLOUT;
  }
  return mask;
}

}  // namespace

Result<Poller> Poller::Create() {
  Poller poller;
  const int fd = ::epoll_create1(0);
  if (fd < 0) {
    return ErrnoStatus("epoll_create1");
  }
  poller.epoll_fd_.reset(fd);
  return poller;
}

Status Poller::Add(int fd, bool want_read, bool want_write) {
  epoll_event event{};
  event.events = EpollMask(want_read, want_write);
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_ADD, fd, &event) != 0) {
    return ErrnoStatus("epoll_ctl ADD");
  }
  return Status::OK();
}

Status Poller::Update(int fd, bool want_read, bool want_write) {
  epoll_event event{};
  event.events = EpollMask(want_read, want_write);
  event.data.fd = fd;
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_MOD, fd, &event) != 0) {
    return ErrnoStatus("epoll_ctl MOD");
  }
  return Status::OK();
}

Status Poller::Remove(int fd) {
  if (::epoll_ctl(epoll_fd_.get(), EPOLL_CTL_DEL, fd, nullptr) != 0) {
    return ErrnoStatus("epoll_ctl DEL");
  }
  return Status::OK();
}

Result<int> Poller::Wait(std::vector<PollEvent>* events, int timeout_ms) {
  events->clear();
  epoll_event raw[64];
  int count;
  do {
    count = ::epoll_wait(epoll_fd_.get(), raw, 64, timeout_ms);
  } while (count < 0 && errno == EINTR);
  if (count < 0) {
    return ErrnoStatus("epoll_wait");
  }
  for (int i = 0; i < count; ++i) {
    PollEvent event;
    event.fd = raw[i].data.fd;
    event.readable = (raw[i].events & EPOLLIN) != 0;
    event.writable = (raw[i].events & EPOLLOUT) != 0;
    event.hangup = (raw[i].events & (EPOLLERR | EPOLLHUP)) != 0;
    events->push_back(event);
  }
  return count;
}

}  // namespace futurerand::net
