#include "serve/eventloop/shard.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "obs/log.h"
#include "serve/listener.h"
#include "serve/server.h"

namespace headtalk::serve {

ShardChannel make_shard_channel() {
  int sv[2] = {-1, -1};
  if (::socketpair(AF_UNIX, SOCK_SEQPACKET | SOCK_CLOEXEC, 0, sv) != 0) {
    throw std::runtime_error(std::string("serve: socketpair() failed: ") +
                             std::strerror(errno));
  }
  return ShardChannel{sv[0], sv[1]};
}

bool send_fd(int channel, int fd) noexcept {
  // One data byte so a zero-length packet never gets conflated with EOF.
  char payload = 'f';
  iovec iov{&payload, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  msghdr msg{};
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  msg.msg_control = control;
  msg.msg_controllen = sizeof control;
  cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
  cmsg->cmsg_level = SOL_SOCKET;
  cmsg->cmsg_type = SCM_RIGHTS;
  cmsg->cmsg_len = CMSG_LEN(sizeof(int));
  std::memcpy(CMSG_DATA(cmsg), &fd, sizeof(int));
  while (true) {
    const ssize_t n = ::sendmsg(channel, &msg, MSG_NOSIGNAL);
    if (n >= 0) return true;
    if (errno == EINTR) continue;
    return false;
  }
}

int recv_fd(int channel) noexcept {
  char payload = 0;
  iovec iov{&payload, 1};
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(int))] = {};
  while (true) {
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    const ssize_t n = ::recvmsg(channel, &msg, MSG_CMSG_CLOEXEC);
    if (n < 0) {
      if (errno == EINTR) continue;
      return -1;
    }
    if (n == 0) return -1;  // peer closed
    for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msg); cmsg != nullptr;
         cmsg = CMSG_NXTHDR(&msg, cmsg)) {
      if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SCM_RIGHTS &&
          cmsg->cmsg_len >= CMSG_LEN(sizeof(int))) {
        int fd = -1;
        std::memcpy(&fd, CMSG_DATA(cmsg), sizeof(int));
        return fd;
      }
    }
    // A data packet without an fd (shouldn't happen); keep reading.
  }
}

// ---------------------------------------------------------------------------
// ShardFront

ShardFront::ShardFront(std::filesystem::path socket_path, std::vector<int> channels)
    : socket_path_(std::move(socket_path)), channels_(std::move(channels)) {}

ShardFront::~ShardFront() {
  if (started_.load(std::memory_order_acquire)) {
    stop();
  } else {
    for (int channel : channels_) close_quietly(channel);
  }
}

void ShardFront::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::runtime_error("serve: shard front started twice");
  }
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    throw std::runtime_error("serve: pipe2() failed");
  }
  listen_fd_ = make_unix_listener(socket_path_);
  thread_ = std::thread([this] { accept_loop(); });
  obs::log_info("serve.shard_front.started",
                {{"socket", socket_path_.string()},
                 {"shards", static_cast<std::uint64_t>(channels_.size())}});
}

void ShardFront::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], "x", 1);
  if (thread_.joinable()) thread_.join();
  close_quietly(listen_fd_);
  listen_fd_ = -1;
  // Closing the channels is the shard shutdown signal: each child's
  // ShardFdReceiver sees EOF and returns.
  for (int channel : channels_) close_quietly(channel);
  channels_.clear();
  close_quietly(stop_pipe_[0]);
  close_quietly(stop_pipe_[1]);
  stop_pipe_[0] = stop_pipe_[1] = -1;
  std::error_code ec;
  std::filesystem::remove(socket_path_, ec);
  obs::log_info("serve.shard_front.stopped", {{"forwarded", forwarded_.load()}});
}

void ShardFront::accept_loop() {
  while (true) {
    pollfd fds[2] = {{stop_pipe_[0], POLLIN, 0}, {listen_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[0].revents != 0) return;  // stop requested
    if ((fds[1].revents & POLLIN) == 0) continue;
    const int client = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (client < 0) continue;
    // Deal round-robin; a dead shard's channel is skipped. The kernel dups
    // the fd into the receiving process, so the local copy closes either
    // way.
    bool delivered = false;
    for (std::size_t attempt = 0; attempt < channels_.size(); ++attempt) {
      const std::size_t index = next_++ % channels_.size();
      if (send_fd(channels_[index], client)) {
        delivered = true;
        break;
      }
    }
    if (delivered) forwarded_.fetch_add(1, std::memory_order_relaxed);
    close_quietly(client);
  }
}

// ---------------------------------------------------------------------------
// ShardFdReceiver

ShardFdReceiver::ShardFdReceiver(int channel, Server& server)
    : channel_(channel), server_(server) {}

ShardFdReceiver::~ShardFdReceiver() {
  if (started_.load(std::memory_order_acquire)) {
    stop();
  } else {
    close_quietly(channel_);
  }
}

void ShardFdReceiver::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw std::runtime_error("serve: shard receiver started twice");
  }
  thread_ = std::thread([this] { receive_loop(); });
}

void ShardFdReceiver::stop() {
  if (!started_.load(std::memory_order_acquire)) return;
  if (stopped_.exchange(true, std::memory_order_acq_rel)) return;
  // shutdown() wakes the blocked recvmsg with EOF; close() alone would
  // race the read.
  (void)::shutdown(channel_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  close_quietly(channel_);
  channel_ = -1;
}

void ShardFdReceiver::receive_loop() {
  while (true) {
    const int fd = recv_fd(channel_);
    if (fd < 0) return;  // parent front stopped (or died)
    adopted_.fetch_add(1, std::memory_order_relaxed);
    server_.adopt_connection(fd);
  }
}

}  // namespace headtalk::serve
