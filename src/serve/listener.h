// Socket plumbing shared by the server and the shard front: listener
// construction (Unix / loopback-TCP, optionally SO_REUSEPORT) and the
// one-shot reject path used for BUSY / shutting-down frames, so the server
// and the shard runner bind sockets identically.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <vector>

namespace headtalk::serve {

/// Binds + listens on a Unix-domain socket (an existing socket file is
/// replaced). Throws std::runtime_error on failure.
[[nodiscard]] int make_unix_listener(const std::filesystem::path& path);

/// Binds + listens on 127.0.0.1:<port>. Loopback only: the daemon carries
/// raw room audio; remote exposure is a deliberate deployment decision
/// (front it with a real proxy), not a flag. With `reuseport` the socket
/// is bound SO_REUSEPORT so N shard processes can share the port and let
/// the kernel spread accepts across them. Throws on failure.
[[nodiscard]] int make_tcp_listener(int port, bool reuseport = false);

/// Best-effort single-shot frame for connections rejected before the server
/// ever owns them (BUSY / shutting-down): one non-blocking send, then
/// close. Always closes `fd`.
void send_and_close(int fd, const std::vector<std::uint8_t>& frame);

void close_quietly(int fd) noexcept;

/// Sets O_NONBLOCK; false on fcntl failure.
bool set_nonblocking(int fd) noexcept;

}  // namespace headtalk::serve
