#include "serve/net.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <utility>

namespace geovalid::serve {
namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw NetError(what + ": " + std::strerror(errno));
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    throw NetError("invalid IPv4 address: " + host);
  }
  return addr;
}

bool equals_ignore_case(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto la = static_cast<unsigned char>(a[i]);
    const auto lb = static_cast<unsigned char>(b[i]);
    if (std::tolower(la) != std::tolower(lb)) return false;
  }
  return true;
}

std::string build_request(const std::string& host, const std::string& method,
                          const std::string& target, const std::string& body,
                          const std::string& content_type) {
  std::string request = method + " " + target + " HTTP/1.1\r\nHost: " +
                        host + "\r\nConnection: close\r\n";
  if (!body.empty()) {
    request += "Content-Type: " +
               (content_type.empty() ? "application/json" : content_type) +
               "\r\nContent-Length: " + std::to_string(body.size()) +
               "\r\n";
  }
  request += "\r\n";
  request += body;
  return request;
}

using Clock = std::chrono::steady_clock;

/// The "deadline" of the plain blocking client calls (about 24 days).
constexpr int kNoDeadlineMs = std::numeric_limits<int>::max();

/// Whole milliseconds left before `deadline`; never negative, and a
/// not-yet-expired deadline always reports at least 1 so poll() cannot
/// round a live budget down to a busy-spin or an instant timeout.
int remaining_ms(Clock::time_point deadline) {
  const auto left =
      std::chrono::ceil<std::chrono::milliseconds>(deadline - Clock::now());
  if (left.count() <= 0) return 0;
  return static_cast<int>(left.count());
}

/// The pending error of a socket whose non-blocking connect has ended
/// (SO_ERROR): empty when the connect succeeded.
std::string connect_error(int fd) {
  int err = 0;
  socklen_t len = sizeof(err);
  if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0) err = errno;
  return err == 0 ? std::string() : std::strerror(err);
}

/// Parses one raw `Connection: close` response (status line, header
/// block, body); `what` labels the NetError thrown for a short or
/// malformed response.
HttpResponse parse_http_response(const std::string& raw,
                                 const std::string& what) {
  HttpResponse resp;
  const std::size_t line_end = raw.find("\r\n");
  if (line_end == std::string::npos) {
    throw NetError(what + ": short response");
  }
  const std::string status_line = raw.substr(0, line_end);
  const std::size_t sp = status_line.find(' ');
  if (sp == std::string::npos) {
    throw NetError(what + ": malformed status line: " + status_line);
  }
  resp.status = std::atoi(status_line.c_str() + sp + 1);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    throw NetError(what + ": response head never ended");
  }
  resp.headers = raw.substr(line_end + 2, head_end - line_end - 2);
  resp.body = raw.substr(head_end + 4);
  return resp;
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

Fd tcp_listen(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const int one = 1;
  if (::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one)) !=
      0) {
    throw_errno("setsockopt(SO_REUSEADDR)");
  }
  const sockaddr_in addr = make_addr(host, port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd.get(), 128) != 0) throw_errno("listen");
  return fd;
}

std::uint16_t local_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    throw_errno("getsockname");
  }
  return ntohs(addr.sin_port);
}

Fd tcp_connect(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Fd tcp_connect_start(const std::string& host, std::uint16_t port) {
  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) throw_errno("socket");
  const sockaddr_in addr = make_addr(host, port);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    throw_errno("connect " + host + ":" + std::to_string(port));
  }
  return fd;
}

Fd tcp_connect_deadline(const std::string& host, std::uint16_t port,
                        int timeout_ms) {
  const std::string what = "connect " + host + ":" + std::to_string(port);
  Fd fd = tcp_connect_start(host, port);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  pollfd p{fd.get(), POLLOUT, 0};
  int rc = 0;
  while ((rc = ::poll(&p, 1, remaining_ms(deadline))) < 0 && errno == EINTR) {
  }
  if (rc < 0) throw_errno("poll");
  if (rc == 0) throw NetError(what + ": deadline exceeded");
  const std::string err = connect_error(fd.get());
  if (!err.empty()) throw NetError(what + ": " + err);
  return fd;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    throw_errno("fcntl(O_NONBLOCK)");
  }
}

bool send_all(int fd, std::string_view data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EPIPE || errno == ECONNRESET) return false;
      throw_errno("send");
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string recv_all(int fd) {
  std::string out;
  char buf[16384];
  while (true) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == ECONNRESET) break;  // peer reset after its final write
      throw_errno("recv");
    }
    if (n == 0) break;
    out.append(buf, static_cast<std::size_t>(n));
  }
  return out;
}

std::string HttpResponse::header(std::string_view name) const {
  std::size_t pos = 0;
  while (pos < headers.size()) {
    std::size_t end = headers.find("\r\n", pos);
    if (end == std::string::npos) end = headers.size();
    const std::string_view line =
        std::string_view(headers).substr(pos, end - pos);
    const std::size_t colon = line.find(':');
    if (colon != std::string_view::npos &&
        equals_ignore_case(line.substr(0, colon), name)) {
      std::string_view value = line.substr(colon + 1);
      while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
      return std::string(value);
    }
    pos = end + 2;
  }
  return {};
}

HttpExchange::HttpExchange(const std::string& host, std::uint16_t port,
                           const std::string& method,
                           const std::string& target,
                           const std::string& body,
                           const std::string& content_type,
                           std::size_t max_response_bytes)
    : what_("http " + method + " " + target + " to " + host + ":" +
            std::to_string(port)),
      max_response_bytes_(max_response_bytes),
      out_(build_request(host, method, target, body, content_type)) {
  try {
    fd_ = tcp_connect_start(host, port);
  } catch (const NetError& e) {
    error_ = e.what();
  }
}

short HttpExchange::events() const {
  return connected_ && out_.empty() ? POLLIN : POLLOUT;
}

void HttpExchange::step(short revents) {
  if (done()) return;
  if ((revents & POLLNVAL) != 0) return fail("invalid socket");
  if (!connected_) {
    const std::string err = connect_error(fd_.get());
    if (!err.empty()) return fail(err);
    connected_ = true;
  }
  while (!out_.empty()) {
    const ssize_t n =
        ::send(fd_.get(), out_.data(), out_.size(), MSG_NOSIGNAL);
    if (n >= 0) {
      out_.erase(0, static_cast<std::size_t>(n));
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno != EINTR) {
      return fail(errno == EPIPE || errno == ECONNRESET
                      ? "peer closed"
                      : std::string("send: ") + std::strerror(errno));
    }
  }
  char buf[16384];
  ssize_t n = 0;
  while ((n = ::recv(fd_.get(), buf, sizeof(buf), 0)) != 0) {
    if (n > 0) {
      in_.append(buf, static_cast<std::size_t>(n));
      if (in_.size() > max_response_bytes_) {
        return fail("response exceeds " +
                    std::to_string(max_response_bytes_) + " bytes");
      }
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    } else if (errno == ECONNRESET) {
      break;  // the peer reset after its final write: the response is whole
    } else if (errno != EINTR) {
      return fail(std::string("recv: ") + std::strerror(errno));
    }
  }
  fd_.reset();
  try {
    response_ = parse_http_response(in_, what_);
  } catch (const NetError& e) {
    error_ = e.what();
  }
}

void HttpExchange::expire() {
  if (!done()) fail("deadline exceeded");
}

void HttpExchange::fail(const std::string& why) {
  error_ = what_ + ": " + why;
  fd_.reset();
}

void run_http_exchanges(std::vector<HttpExchange>& exchanges,
                        int timeout_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  std::vector<pollfd> fds(exchanges.size());
  while (true) {
    bool running = false;
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      // A done exchange polls fd -1, which poll() skips.
      fds[i] = {exchanges[i].fd(), exchanges[i].events(), 0};
      running = running || !exchanges[i].done();
    }
    if (!running) return;
    const int budget = remaining_ms(deadline);
    if (budget == 0) {
      for (HttpExchange& x : exchanges) x.expire();
      return;
    }
    if (::poll(fds.data(), fds.size(), budget) < 0 && errno != EINTR) {
      throw_errno("poll");
    }
    for (std::size_t i = 0; i < exchanges.size(); ++i) {
      if (fds[i].revents != 0) exchanges[i].step(fds[i].revents);
    }
  }
}

namespace {

/// One exchange run alone: the blocking client.
HttpResponse request_once(const std::string& host, std::uint16_t port,
                          const std::string& method,
                          const std::string& target, int timeout_ms,
                          const std::string& body = {},
                          const std::string& content_type = {}) {
  std::vector<HttpExchange> one;
  one.emplace_back(host, port, method, target, body, content_type);
  run_http_exchanges(one, timeout_ms);
  std::optional<HttpResponse>& response = one.front().response();
  if (!response) throw NetError(one.front().error());
  return std::move(*response);
}

}  // namespace

HttpResponse http_get(const std::string& host, std::uint16_t port,
                      const std::string& target) {
  return request_once(host, port, "GET", target, kNoDeadlineMs);
}

HttpResponse http_post(const std::string& host, std::uint16_t port,
                       const std::string& target, const std::string& body,
                       const std::string& content_type) {
  return request_once(host, port, "POST", target, kNoDeadlineMs, body,
                      content_type);
}

HttpResponse http_get_deadline(const std::string& host, std::uint16_t port,
                               const std::string& target, int timeout_ms) {
  return request_once(host, port, "GET", target, timeout_ms);
}

HttpResponse http_post_deadline(const std::string& host, std::uint16_t port,
                                const std::string& target, int timeout_ms,
                                const std::string& body,
                                const std::string& content_type) {
  return request_once(host, port, "POST", target, timeout_ms, body,
                      content_type);
}

}  // namespace geovalid::serve
