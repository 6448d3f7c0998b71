#include "net/socket.h"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

namespace procheck::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Remaining budget in whole milliseconds for poll(2); never negative.
int remaining_ms(Clock::time_point deadline) {
  auto left = std::chrono::duration_cast<std::chrono::milliseconds>(deadline - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

bool set_nonblocking(int fd) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void tune(int fd) {
  // The SUL protocol is small synchronous request/response frames; Nagle
  // would add 40 ms per query.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::optional<std::pair<std::string, std::uint16_t>> parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0) return std::nullopt;
  // The port is decimal digits only: no sign, no whitespace.
  std::uint16_t port = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data() + colon + 1, end, port);
  if (ec != std::errc() || ptr != end || port == 0) return std::nullopt;
  return std::make_pair(text.substr(0, colon), port);
}

// --- TcpConn -----------------------------------------------------------------

TcpConn::~TcpConn() { close(); }

TcpConn::TcpConn(TcpConn&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

TcpConn& TcpConn::operator=(TcpConn&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TcpConn::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

TcpConn TcpConn::adopt(int fd) {
  TcpConn conn;
  conn.fd_ = fd;
  if (fd >= 0) {
    set_nonblocking(fd);
    tune(fd);
  }
  return conn;
}

std::optional<TcpConn> TcpConn::connect(const std::string& host, std::uint16_t port,
                                        double timeout_seconds) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return std::nullopt;
  }
  tune(fd);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }

  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(timeout_seconds));
  int rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return std::nullopt;
  }
  if (rc != 0) {
    pollfd pfd{fd, POLLOUT, 0};
    for (;;) {
      int n = ::poll(&pfd, 1, remaining_ms(deadline));
      if (n > 0) break;
      if (n == 0 || errno != EINTR) {
        ::close(fd);
        return std::nullopt;
      }
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return std::nullopt;
    }
  }
  return adopt(fd);
}

bool TcpConn::send_all(const Bytes& data, double timeout_seconds) {
  if (fd_ < 0) return false;
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(timeout_seconds));
  std::size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd_, POLLOUT, 0};
      int ms = remaining_ms(deadline);
      if (ms == 0) return false;
      if (::poll(&pfd, 1, ms) <= 0 && errno != EINTR) return false;
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

TcpConn::RecvStatus TcpConn::recv_some(Bytes& out, std::size_t max_bytes,
                                       double timeout_seconds) {
  if (fd_ < 0) return RecvStatus::kError;
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    std::uint8_t buf[4096];
    std::size_t want = max_bytes < sizeof(buf) ? max_bytes : sizeof(buf);
    ssize_t n = ::recv(fd_, buf, want, 0);
    if (n > 0) {
      out.insert(out.end(), buf, buf + n);
      return RecvStatus::kData;
    }
    if (n == 0) return RecvStatus::kEof;
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return RecvStatus::kError;
    pollfd pfd{fd_, POLLIN, 0};
    int ms = remaining_ms(deadline);
    if (ms == 0) return RecvStatus::kTimeout;
    int p = ::poll(&pfd, 1, ms);
    if (p == 0) return RecvStatus::kTimeout;
    if (p < 0 && errno != EINTR) return RecvStatus::kError;
  }
}

// --- TcpListener ---------------------------------------------------------------

TcpListener::~TcpListener() { close(); }

TcpListener::TcpListener(TcpListener&& other) noexcept : fd_(other.fd_), port_(other.port_) {
  other.fd_ = -1;
  other.port_ = 0;
}

TcpListener& TcpListener::operator=(TcpListener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    port_ = other.port_;
    other.fd_ = -1;
    other.port_ = 0;
  }
  return *this;
}

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::optional<TcpListener> TcpListener::listen(std::uint16_t port) {
  return listen("127.0.0.1", port);
}

std::optional<TcpListener> TcpListener::listen(const std::string& bind_host,
                                               std::uint16_t port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return std::nullopt;
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, bind_host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 16) != 0) {
    ::close(fd);
    return std::nullopt;
  }

  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    ::close(fd);
    return std::nullopt;
  }

  TcpListener listener;
  listener.fd_ = fd;
  listener.port_ = ntohs(addr.sin_port);
  return listener;
}

std::optional<TcpConn> TcpListener::accept(double timeout_seconds) {
  if (fd_ < 0) return std::nullopt;
  auto deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(timeout_seconds));
  for (;;) {
    int fd = ::accept(fd_, nullptr, nullptr);
    if (fd >= 0) return TcpConn::adopt(fd);
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return std::nullopt;
    pollfd pfd{fd_, POLLIN, 0};
    int ms = remaining_ms(deadline);
    if (ms == 0) return std::nullopt;
    int p = ::poll(&pfd, 1, ms);
    if (p == 0) return std::nullopt;
    if (p < 0 && errno != EINTR) return std::nullopt;
  }
}

}  // namespace procheck::net
