#include "serve/http.h"

#include <cctype>
#include <charconv>

namespace geovalid::serve {
namespace {

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

std::string_view HttpRequest::header(std::string_view name) const {
  for (const auto& [k, v] : headers) {
    if (k == name) return v;
  }
  return {};
}

HttpRequestParser::State HttpRequestParser::fail(int status,
                                                 std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_ = std::move(message);
  return state_;
}

HttpRequestParser::State HttpRequestParser::consume(std::string_view data) {
  if (state_ == State::kDone || state_ == State::kError) return state_;
  buf_.append(data);
  if (state_ == State::kHead) {
    const std::size_t head_end = buf_.find("\r\n\r\n");
    if (head_end == std::string::npos) {
      if (buf_.size() > kMaxHttpHeadBytes) {
        return fail(431, "request head too large");
      }
      return state_;
    }
    if (head_end > kMaxHttpHeadBytes) {
      return fail(431, "request head too large");
    }
    const State parsed = parse_head();
    if (parsed == State::kError) return state_;
    buf_.erase(0, head_end + 4);
    state_ = State::kBody;
  }
  if (state_ == State::kBody) {
    if (buf_.size() >= body_expected_) {
      request_.body = buf_.substr(0, body_expected_);
      buf_.clear();
      state_ = State::kDone;
    }
  }
  return state_;
}

HttpRequestParser::State HttpRequestParser::parse_head() {
  // Request line: METHOD SP TARGET SP VERSION.
  std::size_t pos = buf_.find("\r\n");
  const std::string_view line = std::string_view(buf_).substr(0, pos);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    return fail(400, "malformed request line");
  }
  request_.method = std::string(line.substr(0, sp1));
  request_.target = std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
  request_.version = std::string(trim(line.substr(sp2 + 1)));
  if (request_.method.empty() || request_.target.empty() ||
      request_.version.rfind("HTTP/", 0) != 0) {
    return fail(400, "malformed request line");
  }

  // Header lines until the blank one.
  pos += 2;
  while (true) {
    const std::size_t end = buf_.find("\r\n", pos);
    const std::string_view header_line =
        std::string_view(buf_).substr(pos, end - pos);
    if (header_line.empty()) break;
    const std::size_t colon = header_line.find(':');
    if (colon == std::string_view::npos) {
      return fail(400, "malformed header line");
    }
    request_.headers.emplace_back(
        to_lower(trim(header_line.substr(0, colon))),
        std::string(trim(header_line.substr(colon + 1))));
    pos = end + 2;
  }

  const std::string_view length = request_.header("content-length");
  if (!length.empty()) {
    std::size_t n = 0;
    const auto [ptr, ec] =
        std::from_chars(length.data(), length.data() + length.size(), n);
    if (ec != std::errc{} || ptr != length.data() + length.size()) {
      return fail(400, "bad Content-Length");
    }
    if (n > kMaxHttpBodyBytes) return fail(413, "request body too large");
    body_expected_ = n;
  }
  if (!request_.header("transfer-encoding").empty()) {
    return fail(501, "chunked requests unsupported");
  }
  return state_;
}

std::string http_response(
    int status, std::string_view content_type, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  std::string out;
  out.reserve(body.size() + 256);
  out += "HTTP/1.1 ";
  out += std::to_string(status);
  out += ' ';
  out += http_status_text(status);
  out += "\r\nContent-Type: ";
  out += content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: close\r\n";
  for (const auto& [k, v] : extra_headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
  return out;
}

std::string_view route_label(Route route) {
  static constexpr std::string_view kLabels[kRouteCount] = {
      "/healthz",          "/readyz",
      "/metrics",          "/v1/summary",
      "/v1/users/{id}/verdicts",
      "/v1/users/{id}/score",
      "/v1/suspects",      "/admin/checkpoint",
      "/admin/drain",      "/admin/backends/{name}",
      "other",
  };
  return kLabels[static_cast<std::size_t>(route)];
}

RouteMatch match_route(std::string_view target, bool backends) {
  for (const Route exact : {Route::kHealthz, Route::kReadyz, Route::kMetrics,
                            Route::kSummary, Route::kCheckpoint,
                            Route::kDrain}) {
    if (target == route_label(exact)) return {exact, {}};
  }
  if (target == "/v1/suspects") return {Route::kSuspects, "10"};
  if (target.starts_with("/v1/suspects?k=")) {
    return {Route::kSuspects, target.substr(15)};
  }
  if (target.starts_with("/v1/users/") && target.size() > 10) {
    // Whatever sits between the prefix and the suffix is the id (an
    // empty or overlapping one parses as a bad id).
    const std::size_t n = target.size();
    if (target.ends_with("/verdicts")) {
      return {Route::kVerdicts, n < 19 ? "" : target.substr(10, n - 19)};
    }
    if (target.ends_with("/score")) {
      return {Route::kScore, n < 16 ? "" : target.substr(10, n - 16)};
    }
  }
  if (backends && target.starts_with("/admin/backends/") &&
      target.size() > 16) {
    return {Route::kBackends, target.substr(16)};
  }
  return {};
}

HttpReply route_reply(Route route, std::string_view method) {
  HttpReply reply;
  if (route == Route::kOther) return reply;
  reply.route = route_label(route);
  const bool admin = route == Route::kCheckpoint || route == Route::kDrain ||
                     route == Route::kBackends;
  if (method != (admin ? "POST" : "GET")) {
    reply.status = 405;
    reply.body = "{\"error\":\"method not allowed\"}";
  } else {
    reply.status = 200;
    reply.body.clear();
  }
  return reply;
}

void append_json_number(std::string& out, double v) {
  char buf[40];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

void append_json_number(std::string& out, std::uint64_t v) {
  out += std::to_string(v);
}

std::string_view http_status_text(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 409:
      return "Conflict";
    case 413:
      return "Payload Too Large";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

}  // namespace geovalid::serve
