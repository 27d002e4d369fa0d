// The connection core shared by serve and route (serve/conn_loop.h),
// driven directly: a fake handler records every callback and socketpairs
// stand in for accepted sockets. Covers the first-byte wire sniff, a line
// split across reads, the single dead letter an EOF or the idle sweep
// leaves for a partial record (text and binary), the HTTP parse-error
// reply, the drain waiter the idle sweep must spare, the read budget
// that makes a firehose connection yield, and the wakeup fd that cuts a
// blocked poll() short.
#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cerrno>
#include <chrono>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "serve/conn_loop.h"
#include "serve/net.h"
#include "serve/wire.h"
#include "stream/event.h"

namespace geovalid::serve {
namespace {

using namespace std::chrono_literals;

struct FakeHandler final : ConnHandler {
  std::vector<std::pair<std::string, bool>> lines;  ///< (text, truncated)
  std::vector<std::size_t> frames;                  ///< records per frame
  std::vector<FrameError> frame_errors;
  std::vector<std::pair<std::string, int>> answered;
  std::size_t ingest_reaps = 0;
  HttpReply reply;  ///< what every request is answered with

  void on_line(std::string_view text, bool truncated) override {
    lines.emplace_back(text, truncated);
  }
  void on_frame(BinaryFrameDecoder::Frame& frame) override {
    frames.push_back(frame.events.size());
  }
  void on_frame_error(const FrameError& error) override {
    frame_errors.push_back(error);
  }
  HttpReply on_request(const HttpRequest& /*request*/) override {
    return reply;
  }
  void on_answered(std::string_view route, int status) override {
    answered.emplace_back(route, status);
  }
  void on_ingest_reaped() override { ++ingest_reaps; }
};

/// One core with no listeners; connections arrive through adopt().
struct Harness {
  FakeHandler handler;
  ConnCounts counts;
  ConnLoop loop;

  explicit Harness(double idle_timeout_s = 60.0)
      : loop(handler, {16, idle_timeout_s, kMaxLineBytes}, counts) {}

  /// A connected socketpair: the core adopts one end, the test keeps the
  /// other as the client.
  Fd connect(bool is_http) {
    int sv[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, sv), 0);
    set_nonblocking(sv[0]);
    loop.adopt(Fd(sv[0]), is_http);
    return Fd(sv[1]);
  }

  void step() { (void)loop.step(-1, -1); }
};

std::string frame_of(std::size_t records) {
  std::vector<stream::Event> events;
  for (std::size_t i = 0; i < records; ++i) {
    trace::Checkin c;
    c.t = static_cast<std::int64_t>(1000 + 60 * i);
    c.poi = 7;
    c.location = {37.0, -122.0};
    events.push_back(stream::Event::checkin_event(3, c));
  }
  std::string out;
  append_binary_frame(out, events);
  return out;
}

TEST(ServeConn, FirstByteSelectsFramesOrLines) {
  Harness h;
  Fd binary = h.connect(false);
  Fd text = h.connect(false);
  ASSERT_TRUE(send_all(binary.get(), frame_of(3)));
  ASSERT_TRUE(send_all(text.get(), "checkin,1,1000,7,Food,37.0,-122.0\n"));
  h.step();
  EXPECT_EQ(h.handler.frames, std::vector<std::size_t>{3});
  ASSERT_EQ(h.handler.lines.size(), 1u);
  EXPECT_EQ(h.handler.lines[0].first, "checkin,1,1000,7,Food,37.0,-122.0");
  EXPECT_FALSE(h.handler.lines[0].second);
  EXPECT_TRUE(h.handler.frame_errors.empty());

  // The format is fixed for the connection's lifetime: a text
  // connection's later frame bytes are just a (malformed) line.
  ASSERT_TRUE(send_all(text.get(), frame_of(1).substr(0, 6) + "\n"));
  h.step();
  EXPECT_EQ(h.handler.lines.size(), 2u);
  EXPECT_EQ(h.handler.frames.size(), 1u);
}

TEST(ServeConn, LineSplitAcrossReadsIsReassembled) {
  Harness h;
  Fd c = h.connect(false);
  ASSERT_TRUE(send_all(c.get(), "checkin,1,10"));
  h.step();
  EXPECT_TRUE(h.handler.lines.empty());
  ASSERT_TRUE(send_all(c.get(), "00,7,Food,37.0,-122.0\nche"));
  h.step();
  ASSERT_EQ(h.handler.lines.size(), 1u);
  EXPECT_EQ(h.handler.lines[0].first, "checkin,1,1000,7,Food,37.0,-122.0");
  EXPECT_FALSE(h.handler.lines[0].second);
  EXPECT_EQ(h.loop.size(), 1u);
}

TEST(ServeConn, EofMidRecordDeadLettersExactlyOnce) {
  Harness h;
  {
    Fd text = h.connect(false);
    ASSERT_TRUE(send_all(text.get(), "checkin,1,1000\ncheck"));
    const std::string frames = frame_of(2) + frame_of(4);
    Fd binary = h.connect(false);
    ASSERT_TRUE(send_all(binary.get(),
                         frames.substr(0, frames.size() - 5)));
  }  // both clients close mid-record
  for (int i = 0; i < 3; ++i) h.step();

  ASSERT_EQ(h.handler.lines.size(), 2u);
  EXPECT_EQ(h.handler.lines[0],
            (std::pair<std::string, bool>{"checkin,1,1000", false}));
  EXPECT_EQ(h.handler.lines[1], (std::pair<std::string, bool>{"check", true}));
  EXPECT_EQ(h.handler.frames, std::vector<std::size_t>{2});
  ASSERT_EQ(h.handler.frame_errors.size(), 1u);
  EXPECT_EQ(h.handler.frame_errors[0].kind, FrameErrorKind::kTruncated);
  EXPECT_EQ(h.loop.size(), 0u);
  EXPECT_EQ(h.counts.open.load(), 0u);
  EXPECT_EQ(h.counts.ingest.load(), 0u);
}

TEST(ServeConn, IdleMidRecordDeadLettersExactlyOnce) {
  Harness h(/*idle_timeout_s=*/0.2);
  Fd text = h.connect(false);
  Fd binary = h.connect(false);
  ASSERT_TRUE(send_all(text.get(), "check"));
  ASSERT_TRUE(send_all(binary.get(), frame_of(2).substr(0, 9)));
  h.step();
  EXPECT_TRUE(h.handler.lines.empty());
  EXPECT_TRUE(h.handler.frame_errors.empty());

  std::this_thread::sleep_for(300ms);
  h.step();
  h.step();
  ASSERT_EQ(h.handler.lines.size(), 1u);
  EXPECT_EQ(h.handler.lines[0], (std::pair<std::string, bool>{"check", true}));
  ASSERT_EQ(h.handler.frame_errors.size(), 1u);
  EXPECT_EQ(h.handler.frame_errors[0].kind, FrameErrorKind::kTruncated);
  EXPECT_EQ(h.loop.size(), 0u);
  // The swept clients see the close.
  EXPECT_TRUE(recv_all(text.get()).empty());
  EXPECT_TRUE(recv_all(binary.get()).empty());
}

TEST(ServeConn, HttpParseErrorAnswersWithItsStatusAndCloses) {
  Harness h;
  Fd c = h.connect(true);
  ASSERT_TRUE(send_all(c.get(), "garbage\r\n\r\n"));
  h.step();
  ASSERT_EQ(h.handler.answered.size(), 1u);
  EXPECT_EQ(h.handler.answered[0],
            (std::pair<std::string, int>{"other", 400}));
  const std::string response = recv_all(c.get());  // ends at the close
  EXPECT_EQ(response.rfind("HTTP/1.1 400 Bad Request\r\n", 0), 0u)
      << response;
  EXPECT_NE(response.find("malformed request line"), std::string::npos);
  EXPECT_EQ(h.loop.size(), 0u);
  EXPECT_EQ(h.counts.http.load(), 0u);
}

TEST(ServeConn, IdleSweepSparesADrainWaiter) {
  Harness h(/*idle_timeout_s=*/0.2);
  h.handler.reply.route = "/admin/drain";
  h.handler.reply.await_drain = true;
  Fd caller = h.connect(true);
  ASSERT_TRUE(send_all(caller.get(), "POST /admin/drain HTTP/1.1\r\n\r\n"));
  h.step();
  EXPECT_TRUE(h.handler.answered.empty());
  EXPECT_TRUE(h.loop.answering());

  std::this_thread::sleep_for(300ms);
  h.step();
  EXPECT_EQ(h.loop.size(), 1u);  // silent well past the timeout, still open

  h.loop.answer_drain_waiters(200, "{\"status\":\"drained\"}");
  EXPECT_EQ(h.handler.answered,
            (std::vector<std::pair<std::string, int>>{{"/admin/drain", 200}}));
  h.step();  // reaps the answered connection: the caller reads to EOF
  const std::string response = recv_all(caller.get());
  EXPECT_EQ(response.rfind("HTTP/1.1 200 OK\r\n", 0), 0u) << response;
  EXPECT_NE(response.find("{\"status\":\"drained\"}"), std::string::npos);
  EXPECT_FALSE(h.loop.answering());
}

TEST(ServeConn, FirehoseConnectionYieldsAfterItsReadBudget) {
  Harness h;
  Fd firehose = h.connect(false);
  Fd quiet = h.connect(false);
  // Room for well over one budget of queued bytes on the firehose.
  const int sndbuf = 4 * 1024 * 1024;
  ASSERT_EQ(::setsockopt(firehose.get(), SOL_SOCKET, SO_SNDBUF, &sndbuf,
                         sizeof(sndbuf)),
            0);
  set_nonblocking(firehose.get());
  const std::string line = "firehose," + std::string(90, 'x') + "\n";
  std::string burst;
  while (burst.size() < 2 * kReadBudgetBytes) burst += line;
  std::size_t queued = 0;
  while (queued < burst.size()) {
    const ssize_t n = ::send(firehose.get(), burst.data() + queued,
                             burst.size() - queued, MSG_NOSIGNAL);
    if (n <= 0) break;  // the socket buffer is full
    queued += static_cast<std::size_t>(n);
  }
  ASSERT_GT(queued, kReadBudgetBytes + 64 * 1024)
      << "socket buffer too small to queue more than one read budget";
  ASSERT_TRUE(send_all(quiet.get(), "quiet\n"));

  h.step();
  std::size_t firehose_bytes = 0;
  bool quiet_seen = false;
  for (const auto& [text, truncated] : h.handler.lines) {
    if (text == "quiet") {
      quiet_seen = true;
    } else {
      firehose_bytes += text.size() + 1;
    }
  }
  EXPECT_TRUE(quiet_seen);
  EXPECT_GT(firehose_bytes, 0u);
  EXPECT_LE(firehose_bytes, kReadBudgetBytes);

  // The rest arrives on later iterations, nothing lost.
  for (int i = 0; i < 20 && h.handler.lines.size() < queued / line.size() + 1;
       ++i) {
    h.step();
  }
  EXPECT_EQ(h.handler.lines.size(), queued / line.size() + 1);
}

TEST(ServeConn, WakeCutsABlockedPollShort) {
  using Clock = std::chrono::steady_clock;
  Harness h;  // nothing to poll but the wakeup fd: step() sleeps a tick
  Clock::time_point returned;
  std::thread stepper([&] {
    h.step();
    returned = Clock::now();
  });
  std::this_thread::sleep_for(20ms);  // let it block in poll()
  const Clock::time_point woken = Clock::now();
  h.loop.wake();
  stepper.join();
  EXPECT_LT(returned - woken, std::chrono::milliseconds(kPollTimeoutMs / 2));
}

TEST(ServeConn, WakeBeforeStepIsConsumedByTheNextStep) {
  using Clock = std::chrono::steady_clock;
  const auto half_tick = std::chrono::milliseconds(kPollTimeoutMs / 2);
  Harness h;
  h.loop.wake();
  h.loop.wake();  // wakes coalesce into one
  Clock::time_point start = Clock::now();
  h.step();
  EXPECT_LT(Clock::now() - start, half_tick);
  // The step read the eventfd empty: the next one sleeps out its tick.
  start = Clock::now();
  h.step();
  EXPECT_GE(Clock::now() - start, half_tick);
}

TEST(ServeConn, ReapingIngestNotifiesTheHandler) {
  Harness h;
  std::optional<Fd> ingest = h.connect(false);
  std::optional<Fd> http = h.connect(true);
  http.reset();
  h.step();  // the HTTP connection's EOF is no ingest reap
  EXPECT_EQ(h.loop.size(), 1u);
  EXPECT_EQ(h.handler.ingest_reaps, 0u);
  ingest.reset();
  h.step();
  EXPECT_EQ(h.loop.size(), 0u);
  EXPECT_EQ(h.handler.ingest_reaps, 1u);
  EXPECT_EQ(h.counts.ingest.load(), 0u);
}

}  // namespace
}  // namespace geovalid::serve
