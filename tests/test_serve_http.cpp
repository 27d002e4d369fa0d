// HTTP control-plane plumbing: the incremental request parser against
// arbitrary recv() chunking and hostile inputs, and the response builder's
// framing. The parser guards the control port the same way LineDecoder
// guards ingest — a malformed request must produce a clean error status,
// never a wedged connection. The client side (serve::HttpExchange and the
// blocking calls built on it) is driven against scripted one-shot peers.
#include <gtest/gtest.h>
#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.h"
#include "serve/net.h"

namespace {

using namespace geovalid;
using State = serve::HttpRequestParser::State;

TEST(ServeHttp, ParsesSimpleGet) {
  serve::HttpRequestParser p;
  const State s = p.consume(
      "GET /healthz HTTP/1.1\r\nHost: localhost\r\nUser-Agent: t\r\n\r\n");
  ASSERT_EQ(s, State::kDone);
  EXPECT_EQ(p.request().method, "GET");
  EXPECT_EQ(p.request().target, "/healthz");
  EXPECT_EQ(p.request().version, "HTTP/1.1");
  EXPECT_EQ(p.request().header("host"), "localhost");
  EXPECT_EQ(p.request().header("HOST"), "");  // lookups are lowercase
  EXPECT_EQ(p.request().header("absent"), "");
  EXPECT_TRUE(p.request().body.empty());
}

TEST(ServeHttp, ParsesByteAtATime) {
  // A request head may straddle any number of reads.
  const std::string req =
      "POST /admin/drain HTTP/1.1\r\nContent-Length: 4\r\n\r\nbody";
  serve::HttpRequestParser p;
  State s = State::kHead;
  for (const char ch : req) {
    ASSERT_NE(s, State::kError);
    s = p.consume(std::string_view(&ch, 1));
  }
  ASSERT_EQ(s, State::kDone);
  EXPECT_EQ(p.request().method, "POST");
  EXPECT_EQ(p.request().target, "/admin/drain");
  EXPECT_EQ(p.request().body, "body");
}

TEST(ServeHttp, BodySplitAcrossChunks) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nhel"),
            State::kBody);
  ASSERT_EQ(p.consume("lo wo"), State::kBody);
  ASSERT_EQ(p.consume("rld"), State::kDone);
  // Content-Length wins: the 11th byte ("d") is past the declared body.
  EXPECT_EQ(p.request().body, "hello worl");
}

TEST(ServeHttp, RejectsMalformedRequestLine) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("NOT-HTTP\r\n\r\n"), State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(ServeHttp, RejectsMalformedHeaderLine) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(ServeHttp, RejectsOversizedHead) {
  serve::HttpRequestParser p;
  // Slow-loris: endless header bytes, never a blank line.
  std::string drip = "GET / HTTP/1.1\r\n";
  State s = p.consume(drip);
  std::size_t fed = drip.size();
  while (s == State::kHead && fed < 4 * serve::kMaxHttpHeadBytes) {
    const std::string line = "X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n";
    s = p.consume(line);
    fed += line.size();
  }
  ASSERT_EQ(s, State::kError);
  EXPECT_EQ(p.error_status(), 431);
}

TEST(ServeHttp, RejectsOversizedBody) {
  serve::HttpRequestParser p;
  const std::string head = "POST / HTTP/1.1\r\nContent-Length: " +
                           std::to_string(serve::kMaxHttpBodyBytes + 1) +
                           "\r\n\r\n";
  ASSERT_EQ(p.consume(head), State::kError);
  EXPECT_EQ(p.error_status(), 413);
}

TEST(ServeHttp, RejectsBadContentLength) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("POST / HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            State::kError);
  EXPECT_EQ(p.error_status(), 400);
}

TEST(ServeHttp, RejectsChunkedTransferEncoding) {
  serve::HttpRequestParser p;
  ASSERT_EQ(
      p.consume("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
      State::kError);
  EXPECT_EQ(p.error_status(), 501);
}

TEST(ServeHttp, IgnoresBytesAfterDoneRequest) {
  serve::HttpRequestParser p;
  ASSERT_EQ(p.consume("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            State::kDone);
  // Connection: close semantics — the pipelined second request is ignored.
  EXPECT_EQ(p.request().target, "/a");
  EXPECT_EQ(p.consume("more"), State::kDone);
  EXPECT_EQ(p.request().target, "/a");
}

TEST(ServeHttp, ResponseFraming) {
  const std::string r =
      serve::http_response(200, "application/json", "{\"ok\":true}");
  EXPECT_EQ(r.rfind("HTTP/1.1 200 OK\r\n", 0), 0u);
  EXPECT_NE(r.find("Content-Type: application/json\r\n"), std::string::npos);
  EXPECT_NE(r.find("Content-Length: 11\r\n"), std::string::npos);
  EXPECT_NE(r.find("Connection: close\r\n"), std::string::npos);
  // Body follows the blank line, exactly once.
  const std::size_t sep = r.find("\r\n\r\n");
  ASSERT_NE(sep, std::string::npos);
  EXPECT_EQ(r.substr(sep + 4), "{\"ok\":true}");
}

TEST(ServeHttp, ResponseExtraHeaders) {
  const std::string r = serve::http_response(
      503, "text/plain", "busy", {{"Retry-After", "1"}});
  EXPECT_EQ(r.rfind("HTTP/1.1 503 Service Unavailable\r\n", 0), 0u);
  EXPECT_NE(r.find("Retry-After: 1\r\n"), std::string::npos);
}

TEST(ServeHttp, StatusText) {
  EXPECT_EQ(serve::http_status_text(200), "OK");
  EXPECT_EQ(serve::http_status_text(404), "Not Found");
  EXPECT_EQ(serve::http_status_text(405), "Method Not Allowed");
  EXPECT_EQ(serve::http_status_text(431),
            "Request Header Fields Too Large");
  EXPECT_EQ(serve::http_status_text(299), "Unknown");
}

/// A scripted HTTP peer on an ephemeral port: accepts one connection,
/// reads the request head, waits `delay`, writes `response` and closes —
/// with an RST instead of a FIN when `reset` is set.
class OneShotPeer {
 public:
  explicit OneShotPeer(std::string response,
                       std::chrono::milliseconds delay = {},
                       bool reset = false)
      : listener_(serve::tcp_listen("127.0.0.1", 0)),
        port_(serve::local_port(listener_.get())) {
    thread_ = std::thread([this, response = std::move(response), delay,
                           reset] {
      pollfd p{listener_.get(), POLLIN, 0};
      if (::poll(&p, 1, 10'000) != 1) return;
      serve::Fd conn(::accept(listener_.get(), nullptr, nullptr));
      if (!conn.valid()) return;
      std::string head;
      char buf[4096];
      while (head.find("\r\n\r\n") == std::string::npos) {
        const ssize_t n = ::recv(conn.get(), buf, sizeof(buf), 0);
        if (n <= 0) return;
        head.append(buf, static_cast<std::size_t>(n));
      }
      std::this_thread::sleep_for(delay);
      (void)serve::send_all(conn.get(), response);
      if (reset) {
        // Let the response land, then abort: SO_LINGER 0 makes close()
        // send an RST.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        const linger abort_close{1, 0};
        ::setsockopt(conn.get(), SOL_SOCKET, SO_LINGER, &abort_close,
                     sizeof(abort_close));
      }
    });
  }
  ~OneShotPeer() { thread_.join(); }

  OneShotPeer(const OneShotPeer&) = delete;
  OneShotPeer& operator=(const OneShotPeer&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }

 private:
  serve::Fd listener_;
  std::uint16_t port_;
  std::thread thread_;
};

std::string ok_response(const std::string& body) {
  return serve::http_response(200, "text/plain", body);
}

/// A port nothing listens on: bound once, then closed.
std::uint16_t refused_port() {
  const serve::Fd listener = serve::tcp_listen("127.0.0.1", 0);
  return serve::local_port(listener.get());
}

TEST(ServeHttpClient, ResponseOverTheCapFails) {
  OneShotPeer peer(ok_response(std::string(100 * 1024, 'x')));
  std::vector<serve::HttpExchange> one;
  one.emplace_back("127.0.0.1", peer.port(), "GET", "/big", "", "",
                   64 * 1024);
  serve::run_http_exchanges(one, 10'000);
  ASSERT_TRUE(one.front().done());
  EXPECT_FALSE(one.front().response());
  EXPECT_NE(one.front().error().find("exceeds"), std::string::npos)
      << one.front().error();
}

TEST(ServeHttpClient, FullResponseFollowedByResetIsAccepted) {
  OneShotPeer peer(ok_response("complete"), {}, /*reset=*/true);
  const serve::HttpResponse r =
      serve::http_get_deadline("127.0.0.1", peer.port(), "/x", 10'000);
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.body, "complete");
}

TEST(ServeHttpClient, RefusedConnectFails) {
  const std::uint16_t port = refused_port();
  EXPECT_THROW(serve::http_get("127.0.0.1", port, "/x"), serve::NetError);
  std::vector<serve::HttpExchange> one;
  one.emplace_back("127.0.0.1", port, "GET", "/x");
  serve::run_http_exchanges(one, 10'000);
  EXPECT_FALSE(one.front().response());
  EXPECT_FALSE(one.front().error().empty());
}

TEST(ServeHttpClient, SilentPeerFailsAtTheDeadline) {
  // The kernel completes the handshake from the listen backlog; nobody
  // ever accepts, so no byte of a response comes back.
  const serve::Fd silent = serve::tcp_listen("127.0.0.1", 0);
  const auto t0 = std::chrono::steady_clock::now();
  try {
    (void)serve::http_get_deadline("127.0.0.1",
                                   serve::local_port(silent.get()), "/x", 200);
    ADD_FAILURE() << "a silent peer answered";
  } catch (const serve::NetError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline"), std::string::npos)
        << e.what();
  }
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  EXPECT_GE(elapsed, 0.19);
  EXPECT_LT(elapsed, 2.0);
}

TEST(ServeHttpClient, ManyExchangesReturnInRequestOrder) {
  // The slowest peer is asked first and the refused port sits in the
  // middle: completion order differs from request order.
  OneShotPeer slow(ok_response("first"), std::chrono::milliseconds(150));
  OneShotPeer fast(ok_response("third"));
  const std::uint16_t refused = refused_port();
  std::vector<serve::HttpExchange> calls;
  calls.emplace_back("127.0.0.1", slow.port(), "GET", "/1");
  calls.emplace_back("127.0.0.1", refused, "GET", "/2");
  calls.emplace_back("127.0.0.1", fast.port(), "POST", "/3", "{}");
  serve::run_http_exchanges(calls, 10'000);
  ASSERT_TRUE(calls[0].response()) << calls[0].error();
  EXPECT_EQ(calls[0].response()->body, "first");
  EXPECT_FALSE(calls[1].response());
  ASSERT_TRUE(calls[2].response()) << calls[2].error();
  EXPECT_EQ(calls[2].response()->body, "third");
}

}  // namespace
