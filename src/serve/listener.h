// Socket plumbing for the server: listener construction (Unix /
// loopback-TCP) and the one-shot reject path used for BUSY /
// shutting-down frames.
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
/// (front it with a real proxy), not a flag. Throws on failure.
[[nodiscard]] int make_tcp_listener(int port);

/// Best-effort single-shot frame for connections rejected before the server
/// ever owns them (BUSY / shutting-down): one non-blocking send, then
/// close. Always closes `fd`.
void send_and_close(int fd, const std::vector<std::uint8_t>& frame);

void close_quietly(int fd) noexcept;

/// Sets O_NONBLOCK; false on fcntl failure.
bool set_nonblocking(int fd) noexcept;

}  // namespace headtalk::serve
