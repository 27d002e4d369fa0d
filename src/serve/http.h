// Minimal HTTP/1.1 server-side message handling for the serve control
// plane.
//
// Scope is deliberately tiny — the control plane serves five fixed routes
// to curl / Prometheus / the loadgen probe, all with `Connection: close`:
// an incremental request parser (head + optional Content-Length body, hard
// caps on both, tolerant of any recv() chunking) and a response builder.
// No keep-alive, no chunked transfer, no TLS.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace geovalid::serve {

/// Request-head cap: method + target + headers. 8 KiB is curl-friendly
/// and starves slow-loris header drips quickly.
inline constexpr std::size_t kMaxHttpHeadBytes = 8 * 1024;

/// Body cap; the control plane has no body-carrying route that needs more.
inline constexpr std::size_t kMaxHttpBodyBytes = 64 * 1024;

struct HttpRequest {
  std::string method;
  std::string target;
  std::string version;
  /// Header (name, value) pairs in arrival order; names lowercased.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with this (lowercase) name; empty when absent.
  [[nodiscard]] std::string_view header(std::string_view name) const;
};

/// Incremental request parser: feed it recv() chunks until it reports
/// kDone (request() is valid) or kError (error_status()/error() say what
/// to send back before closing).
class HttpRequestParser {
 public:
  enum class State {
    kHead,   ///< still accumulating the request head
    kBody,   ///< head parsed, reading Content-Length bytes
    kDone,   ///< full request available
    kError,  ///< malformed or over a cap; reply error_status() and close
  };

  /// Consumes a chunk; returns the state afterwards. Bytes past the end of
  /// a kDone request are ignored (the server closes after one response).
  State consume(std::string_view data);

  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] const HttpRequest& request() const { return request_; }
  [[nodiscard]] int error_status() const { return error_status_; }
  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  State fail(int status, std::string message);
  State parse_head();

  State state_ = State::kHead;
  std::string buf_;
  std::size_t body_expected_ = 0;
  HttpRequest request_;
  int error_status_ = 400;
  std::string error_;
};

/// Serializes one response with Content-Length and `Connection: close`.
/// `extra_headers` are appended verbatim (e.g. a Content-Type override is
/// not needed — pass the type directly).
[[nodiscard]] std::string http_response(
    int status, std::string_view content_type, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers =
        {});

/// One control-plane answer. `route` is the metric label it is counted
/// under; `await_drain` defers it (the caller waits in the connection core
/// until ConnLoop::answer_drain_waiters).
struct HttpReply {
  std::string route = "other";
  int status = 404;
  std::string content_type = "application/json";
  std::string body = "{\"error\":\"not found\"}";
  std::vector<std::pair<std::string, std::string>> headers = {};
  bool await_drain = false;
};

/// The control-plane routes of serve and route, in metric-label order;
/// kBackends (the rebalance hook) is the router's alone.
enum class Route : std::uint8_t {
  kHealthz, kReadyz, kMetrics, kSummary, kVerdicts, kScore, kSuspects,
  kCheckpoint, kDrain, kBackends, kOther,
};
inline constexpr std::size_t kRouteCount =
    static_cast<std::size_t>(Route::kOther) + 1;

/// The route's metric label: its path pattern, or "other".
[[nodiscard]] std::string_view route_label(Route route);

struct RouteMatch {
  Route route = Route::kOther;
  /// The {id} or {name} segment; for /v1/suspects the k text ("10" when
  /// the target carries no ?k=).
  std::string_view param;
};

/// Matches a request target; `backends` enables /admin/backends/{name}.
[[nodiscard]] RouteMatch match_route(std::string_view target, bool backends);

/// The reply skeleton for a matched route: labelled, 404 for kOther, 405
/// when `method` is not the route's (POST for /admin/*, GET otherwise),
/// otherwise status 200 for the daemon to fill in.
[[nodiscard]] HttpReply route_reply(Route route, std::string_view method);

/// A whole-string unsigned decimal (user ids, k); nullopt otherwise.
template <typename T>
[[nodiscard]] std::optional<T> parse_decimal(std::string_view text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Canonical reason phrase ("OK", "Not Found", ...); "Unknown" otherwise.
[[nodiscard]] std::string_view http_status_text(int status);

/// Appends a JSON number: shortest round-trip form for doubles.
void append_json_number(std::string& out, double v);
void append_json_number(std::string& out, std::uint64_t v);

}  // namespace geovalid::serve
