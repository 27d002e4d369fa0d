// Thin POSIX socket layer shared by the serve event loop, the cluster
// router, the loadgen client and the tests.
//
// Everything here is dependency-free (plain <sys/socket.h>): RAII fd
// ownership, IPv4 listeners with ephemeral-port support (`port 0` binds,
// local_port() reports what the kernel picked — no port races in tests),
// and SIGPIPE-immune sends (MSG_NOSIGNAL everywhere; a peer that
// disconnects mid-write surfaces as EPIPE, never as a process-killing
// signal).
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace geovalid::serve {

/// Socket-layer failure (bind/listen/connect/getsockname); carries the
/// errno text.
class NetError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Move-only owner of a file descriptor; -1 means empty.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();
  [[nodiscard]] int release() {
    const int fd = fd_;
    fd_ = -1;
    return fd;
  }

 private:
  int fd_ = -1;
};

/// Binds and listens on host:port (IPv4 dotted quad; port 0 = kernel picks
/// an ephemeral port — read it back with local_port()). The returned
/// socket is non-blocking with SO_REUSEADDR set. Throws NetError.
[[nodiscard]] Fd tcp_listen(const std::string& host, std::uint16_t port);

/// The port a bound socket actually listens on (resolves `--port 0`).
[[nodiscard]] std::uint16_t local_port(int fd);

/// Blocking connect to host:port. Throws NetError.
[[nodiscard]] Fd tcp_connect(const std::string& host, std::uint16_t port);

/// Non-blocking connect start: the returned fd's connect is in flight (or
/// already complete) — poll it for POLLOUT, then read SO_ERROR. Never
/// blocks; throws NetError on immediate failure.
[[nodiscard]] Fd tcp_connect_start(const std::string& host,
                                   std::uint16_t port);

/// Connect with a deadline: tcp_connect_start + poll, so a blackholed
/// or unroutable peer fails in `timeout_ms` instead of the kernel's
/// minutes-long default. The returned fd is left non-blocking. Throws
/// NetError; the timeout message contains "deadline".
[[nodiscard]] Fd tcp_connect_deadline(const std::string& host,
                                      std::uint16_t port, int timeout_ms);

/// Marks `fd` non-blocking. Throws NetError.
void set_nonblocking(int fd);

/// Blocking full-buffer send with MSG_NOSIGNAL; returns false when the
/// peer is gone (EPIPE / ECONNRESET), throws NetError on anything else.
bool send_all(int fd, std::string_view data);

/// Reads until EOF (blocking). Throws NetError on socket errors.
[[nodiscard]] std::string recv_all(int fd);

/// One parsed `Connection: close` HTTP/1.1 response.
struct HttpResponse {
  int status = 0;
  std::string headers;  ///< raw header block (CRLF-separated lines)
  std::string body;

  /// Case-insensitive single-header lookup; empty when absent.
  [[nodiscard]] std::string header(std::string_view name) const;
};

/// The one HTTP client: a single non-blocking request over its own
/// `Connection: close` socket. It connects (tcp_connect_start), sends,
/// reads to EOF under `max_response_bytes` (a reset after the peer's
/// last write also ends the response) and parses. The caller polls fd()
/// for events() and passes the revents to step() until done();
/// run_http_exchanges does that for a batch, and the router's /readyz
/// probe from its own poll loop. Failures never throw: they end the
/// exchange with error() set and no response().
class HttpExchange {
 public:
  HttpExchange(const std::string& host, std::uint16_t port,
               const std::string& method, const std::string& target,
               const std::string& body = {},
               const std::string& content_type = {},
               std::size_t max_response_bytes =
                   std::numeric_limits<std::size_t>::max());

  [[nodiscard]] int fd() const { return fd_.get(); }  ///< -1 once done
  [[nodiscard]] short events() const;
  [[nodiscard]] bool done() const { return !fd_.valid(); }
  void step(short revents);
  /// Fails a still-running exchange with "deadline exceeded".
  void expire();

  /// Set once done without error.
  [[nodiscard]] std::optional<HttpResponse>& response() { return response_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  void fail(const std::string& why);

  std::string what_;  ///< "http METHOD target to host:port", error prefix
  std::size_t max_response_bytes_;
  bool connected_ = false;
  Fd fd_;
  std::string out_;  ///< request bytes not yet sent
  std::string in_;   ///< raw response so far
  std::optional<HttpResponse> response_;
  std::string error_;
};

/// Runs `exchanges` together in one poll loop under one shared deadline:
/// it returns within `timeout_ms` however many peers stall, failing the
/// unfinished ones with "deadline exceeded". Results stay in place, in
/// request order.
void run_http_exchanges(std::vector<HttpExchange>& exchanges,
                        int timeout_ms);

/// Blocking one-exchange calls (tests, loadgen probes, the benchmark
/// driver); a failure throws NetError.
[[nodiscard]] HttpResponse http_get(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& target);
/// POST, with an optional Content-Length framed body.
[[nodiscard]] HttpResponse http_post(const std::string& host,
                                     std::uint16_t port,
                                     const std::string& target,
                                     const std::string& body = {},
                                     const std::string& content_type =
                                         "application/json");

/// Deadline-bounded variants: connect, send and the full response must
/// finish within `timeout_ms`, so a peer that accepts and never answers
/// surfaces as a NetError containing "deadline" instead of a hang.
[[nodiscard]] HttpResponse http_get_deadline(const std::string& host,
                                             std::uint16_t port,
                                             const std::string& target,
                                             int timeout_ms);
[[nodiscard]] HttpResponse http_post_deadline(const std::string& host,
                                              std::uint16_t port,
                                              const std::string& target,
                                              int timeout_ms,
                                              const std::string& body = {},
                                              const std::string& content_type =
                                                  "application/json");

}  // namespace geovalid::serve
