#include "serve/eventloop/poller.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string>

namespace headtalk::serve {

namespace {

[[noreturn]] void throw_errno(const char* what) {
  throw std::runtime_error(std::string(what) + ": " + std::strerror(errno));
}

epoll_event make_event(std::uint32_t interest, void* data) {
  epoll_event ev{};
  if (interest & Poller::kRead) ev.events |= EPOLLIN;
  if (interest & Poller::kWrite) ev.events |= EPOLLOUT;
  ev.data.ptr = data;
  return ev;
}

}  // namespace

Poller::Poller() {
  epfd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epfd_ < 0) throw_errno("epoll_create1");
}

Poller::~Poller() {
  if (epfd_ >= 0) ::close(epfd_);
}

void Poller::add(int fd, std::uint32_t interest, void* data) {
  epoll_event ev = make_event(interest, data);
  if (::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev) != 0) throw_errno("epoll_ctl(ADD)");
}

void Poller::modify(int fd, std::uint32_t interest, void* data) {
  epoll_event ev = make_event(interest, data);
  if (::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev) != 0) throw_errno("epoll_ctl(MOD)");
}

void Poller::remove(int fd) {
  // Ignore errors: the fd may already be closed or never registered
  // (remove() is called from teardown paths that must not throw).
  epoll_event ev{};
  (void)::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, &ev);
}

int Poller::wait(std::span<PollerEvent> out, int timeout_ms) {
  if (out.empty()) return 0;
  scratch_.resize(out.size());
  const int n = ::epoll_wait(epfd_, scratch_.data(), static_cast<int>(scratch_.size()),
                             timeout_ms);
  if (n < 0) {
    if (errno == EINTR) return 0;
    throw_errno("epoll_wait");
  }
  for (int i = 0; i < n; ++i) {
    const epoll_event& ev = scratch_[static_cast<std::size_t>(i)];
    PollerEvent& event = out[static_cast<std::size_t>(i)];
    event.data = ev.data.ptr;
    event.readable = (ev.events & EPOLLIN) != 0;
    event.writable = (ev.events & EPOLLOUT) != 0;
    event.error = (ev.events & (EPOLLERR | EPOLLHUP)) != 0;
  }
  return n;
}

}  // namespace headtalk::serve
