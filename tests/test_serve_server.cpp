// The serve daemon end to end, over real loopback sockets: ephemeral-port
// binding, every control-plane route (success and error statuses), hostile
// ingest (malformed, oversized, mid-record disconnects) landing in
// quarantine without poisoning the engine, idle-timeout sweeps, and the
// graceful-stop checkpoint + resume replay-skip contract.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "serve/net.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "stream/engine.h"
#include "stream/quarantine.h"

namespace geovalid::serve {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;

fs::path fresh_dir(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// In-process daemon: start() on construction, run() on a thread, stats
/// captured at exit. Stop via drain_and_join() (POST /admin/drain) or
/// stop_and_join() (the SIGTERM path).
struct TestServer {
  Server server;
  std::atomic<bool> stop{false};
  ServeStats stats;
  std::thread loop;

  explicit TestServer(ServeConfig config) : server(std::move(config)) {
    server.start();
    loop = std::thread([this] { stats = server.run(&stop); });
  }

  ~TestServer() {
    if (loop.joinable()) stop_and_join();
  }

  void stop_and_join() {
    stop.store(true);
    loop.join();
  }

  HttpResponse drain_and_join() {
    const HttpResponse r =
        http_post("127.0.0.1", server.http_port(), "/admin/drain");
    loop.join();
    return r;
  }
};

/// GETs `target` until the predicate accepts the response (the single
/// poll-loop thread needs a beat to read ingest bytes; every query request
/// also drains the engine, so one accepted response is fully consistent).
template <typename Pred>
HttpResponse get_until(std::uint16_t port, const std::string& target,
                       Pred pred) {
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (true) {
    HttpResponse r = http_get("127.0.0.1", port, target);
    if (pred(r)) return r;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "timed out polling " << target << "; last status "
                    << r.status << ", body: " << r.body;
      return r;
    }
    std::this_thread::sleep_for(20ms);
  }
}

TEST(ServeServer, EphemeralPortsResolveDistinctNonZero) {
  ServeConfig config;
  config.metrics = false;
  TestServer ts(std::move(config));
  EXPECT_NE(ts.server.ingest_port(), 0);
  EXPECT_NE(ts.server.http_port(), 0);
  EXPECT_NE(ts.server.ingest_port(), ts.server.http_port());
  ts.stop_and_join();
  EXPECT_EQ(ts.stats.exit, ServeExit::kStopped);
}

TEST(ServeServer, ControlPlaneRoutesAndErrorStatuses) {
  ServeConfig config;
  config.metrics = false;
  TestServer ts(std::move(config));
  const std::uint16_t port = ts.server.http_port();

  const HttpResponse health = http_get("127.0.0.1", port, "/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(health.body, "ok\n");

  EXPECT_EQ(http_get("127.0.0.1", port, "/nope").status, 404);
  EXPECT_EQ(http_post("127.0.0.1", port, "/healthz").status, 405);
  EXPECT_EQ(http_get("127.0.0.1", port, "/admin/drain").status, 405);
  EXPECT_EQ(http_get("127.0.0.1", port, "/admin/checkpoint").status, 405);
  EXPECT_EQ(http_post("127.0.0.1", port, "/v1/summary").status, 405);

  // Checkpoint without a configured directory is a refusal, not a crash.
  EXPECT_EQ(http_post("127.0.0.1", port, "/admin/checkpoint").status, 409);

  const HttpResponse summary = http_get("127.0.0.1", port, "/v1/summary");
  EXPECT_EQ(summary.status, 200);
  EXPECT_NE(summary.body.find("\"partition\""), std::string::npos);

  EXPECT_EQ(http_get("127.0.0.1", port, "/v1/users/abc/verdicts").status,
            400);
  EXPECT_EQ(http_get("127.0.0.1", port, "/v1/users//verdicts").status, 400);
  EXPECT_EQ(http_get("127.0.0.1", port, "/v1/users/999/verdicts").status,
            404);  // never seen
}

TEST(ServeServer, ReadyzIsDistinctFromHealthz) {
  ServeConfig config;
  config.metrics = false;
  TestServer ts(std::move(config));
  const std::uint16_t port = ts.server.http_port();

  const HttpResponse ready = http_get("127.0.0.1", port, "/readyz");
  EXPECT_EQ(ready.status, 200);
  EXPECT_EQ(ready.body, "ready\n");
  EXPECT_EQ(http_post("127.0.0.1", port, "/readyz").status, 405);
}

TEST(ServeServer, ReadyzGoes503WhileDraining) {
  ServeConfig config;
  config.metrics = false;
  TestServer ts(std::move(config));
  const std::uint16_t port = ts.server.http_port();

  // Hold an ingest connection open: the drain defers until we EOF, and in
  // that window the daemon must advertise not-ready while still answering
  // liveness with 200 — the readiness/liveness split that lets a balancer
  // stop routing to a draining backend without declaring it dead.
  std::optional<Fd> c =
      tcp_connect("127.0.0.1", ts.server.ingest_port());
  ASSERT_TRUE(send_all(c->get(), "checkin,1,1000,1,Food,37.0,-122.0\n"));

  HttpResponse drained;
  std::thread drainer([&] {
    drained = http_post("127.0.0.1", port, "/admin/drain");
  });
  const HttpResponse not_ready = get_until(
      port, "/readyz", [](const HttpResponse& r) { return r.status == 503; });
  EXPECT_NE(not_ready.body.find("draining"), std::string::npos);
  EXPECT_EQ(http_get("127.0.0.1", port, "/healthz").status, 200);

  c.reset();  // EOF: the drain can now complete
  drainer.join();
  EXPECT_EQ(drained.status, 200);
  ts.loop.join();
  EXPECT_EQ(ts.stats.exit, ServeExit::kDrained);
}

TEST(ServeServer, MetricsEndpointSpeaksPrometheus) {
  ServeConfig config;  // metrics on: the exporter must show serve_* families
  TestServer ts(std::move(config));
  const HttpResponse r =
      http_get("127.0.0.1", ts.server.http_port(), "/metrics");
  EXPECT_EQ(r.status, 200);
  EXPECT_EQ(r.header("content-type"),
            "text/plain; version=0.0.4; charset=utf-8");
  EXPECT_NE(r.body.find("# TYPE serve_connections_total counter"),
            std::string::npos);
  EXPECT_NE(r.body.find("serve_ingest_records_total"), std::string::npos);
  EXPECT_NE(r.body.find("serve_http_requests_total"), std::string::npos);
  EXPECT_NE(r.body.find("serve_ingest_lag_events"), std::string::npos);
}

TEST(ServeServer, IngestFeedsEngineAndServesVerdicts) {
  ServeConfig config;
  config.metrics = false;
  config.engine.shards = 2;
  TestServer ts(std::move(config));

  {
    Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(),
                         "checkin,7,1000,1,Food,37.0,-122.0\n"
                         "checkin,7,5000,2,Nightlife,37.0,-122.0\n"
                         "gps,9,1000,37.0,-122.0,1,0,0.0\n"));
  }  // close: EOF, no trailing fragment

  const HttpResponse seven = get_until(
      ts.server.http_port(), "/v1/users/7/verdicts",
      [](const HttpResponse& r) { return r.status == 200; });
  EXPECT_NE(seven.body.find("\"user\":7"), std::string::npos);
  // Interarrival statistics update on arrival: two checkins, one gap.
  EXPECT_NE(seven.body.find("\"gaps\":1"), std::string::npos);

  const HttpResponse nine = get_until(
      ts.server.http_port(), "/v1/users/9/verdicts",
      [](const HttpResponse& r) { return r.status == 200; });
  EXPECT_NE(nine.body.find("\"user\":9"), std::string::npos);

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_NE(drained.body.find("\"status\":\"drained\""), std::string::npos);
  EXPECT_EQ(ts.stats.exit, ServeExit::kDrained);
  EXPECT_EQ(ts.stats.records_applied, 3u);
  EXPECT_EQ(ts.stats.records_malformed, 0u);
  EXPECT_EQ(ts.server.engine().partition().checkins, 2u);
}

TEST(ServeServer, HostileIngestQuarantinesWithoutPoisoningTheEngine) {
  ServeConfig config;
  config.metrics = false;
  config.max_line_bytes = 128;  // make "oversized" cheap to trigger
  TestServer ts(std::move(config));

  {
    Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
    std::string payload;
    payload += "checkin,1,1000,1,Food,37.0,-122.0\n";     // good
    payload += "this is not a record\n";                  // malformed
    payload += std::string(500, 'x') + "\n";              // oversized
    payload += "gps,1,2000,999.0,0.0,1,0,0.0\n";  // semantic: bad coords
    payload += "checkin,1,3000,2,Food,37.0,-122.0\n";     // good again
    payload += "checkin,1,4000,3,Fo";                     // cut mid-record
    ASSERT_TRUE(send_all(c.get(), payload));
  }  // abrupt close mid-record

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);

  // Wire-level garbage (malformed + oversized + truncated-by-disconnect)
  // dead-letters as malformed_line; the in-range records still flowed.
  const stream::Quarantine& q = ts.server.quarantine();
  EXPECT_EQ(q.count(stream::QuarantineReason::kMalformedLine), 3u);
  EXPECT_EQ(q.count(stream::QuarantineReason::kBadCoordinates), 1u);
  EXPECT_EQ(ts.stats.records_malformed, 3u);
  EXPECT_EQ(ts.stats.records_parsed, 3u);  // 2 checkins + the bad-coords gps
  // "applied" = handed to the engine; the bad-coords record counts (the
  // engine quarantined it semantically, and the cursor must cover it so a
  // resume skips it rather than re-judging it).
  EXPECT_EQ(ts.stats.records_applied, 3u);
  EXPECT_EQ(ts.server.engine().partition().checkins, 2u);
}

TEST(ServeServer, IdleConnectionsAreSweptAndFragmentsDeadLettered) {
  ServeConfig config;
  config.metrics = false;
  config.idle_timeout_s = 0.3;
  TestServer ts(std::move(config));

  Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
  ASSERT_TRUE(send_all(c.get(), "checkin,5,1000,1,Food,37.0,-122.0\nchec"));
  // Stop talking: the sweep must close us and dead-letter the half record.
  const std::string rest = recv_all(c.get());  // EOF when the server closes
  EXPECT_TRUE(rest.empty());

  const HttpResponse drained = ts.drain_and_join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_EQ(ts.stats.records_applied, 1u);
  EXPECT_EQ(
      ts.server.quarantine().count(stream::QuarantineReason::kMalformedLine),
      1u);
}

TEST(ServeServer, IdleSweepSparesAPendingDrainCaller) {
  ServeConfig config;
  config.metrics = false;
  config.idle_timeout_s = 0.3;
  TestServer ts(std::move(config));

  // An ingest client that keeps streaming for 1 s: the drain waits for
  // its EOF, more than three idle timeouts for the silent drain caller.
  Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
  ASSERT_TRUE(send_all(c.get(), "checkin,7,1000,1,Food,37.0,-122.0\n"));
  std::thread feeder([&c] {
    for (int i = 1; i < 10; ++i) {
      std::this_thread::sleep_for(100ms);
      const std::string t = std::to_string(1000 + 60 * i);
      EXPECT_TRUE(send_all(c.get(),
                           "checkin,7," + t + ",1,Food,37.0,-122.0\n"));
    }
    c.reset();
  });
  HttpResponse drained;
  EXPECT_NO_THROW(
      drained = http_post("127.0.0.1", ts.server.http_port(), "/admin/drain"));
  feeder.join();
  ts.loop.join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_EQ(ts.stats.exit, ServeExit::kDrained);
  EXPECT_EQ(ts.stats.records_applied, 10u);
}

TEST(ServeServer, StopFlagCheckpointsAndResumeSkipsReplayedRecords) {
  const fs::path dir = fresh_dir("serve_stop_resume");
  const std::string trace =
      "checkin,3,1000,1,Food,37.0,-122.0\n"
      "checkin,3,5000,2,Shop,37.1,-122.1\n"
      "checkin,4,2000,3,Arts,37.2,-122.2\n";

  ServeConfig config;
  config.metrics = false;
  config.checkpoint_dir = dir;
  TestServer first(std::move(config));
  {
    Fd c = tcp_connect("127.0.0.1", first.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(), trace));
  }
  (void)get_until(first.server.http_port(), "/v1/users/4/verdicts",
                  [](const HttpResponse& r) { return r.status == 200; });
  first.stop_and_join();  // the SIGTERM path
  ASSERT_EQ(first.stats.exit, ServeExit::kStopped);
  EXPECT_EQ(first.stats.records_applied, 3u);
  EXPECT_EQ(first.stats.cursor, 3u);

  bool have_checkpoint = false;
  for (const auto& entry : fs::directory_iterator(dir)) {
    have_checkpoint |= entry.path().extension() == ".gvck";
  }
  ASSERT_TRUE(have_checkpoint) << "graceful stop must leave a checkpoint";

  // Restart, resume, and let the client re-send its whole trace: the
  // covered prefix is skipped, nothing double-counts.
  ServeConfig resumed;
  resumed.metrics = false;
  resumed.checkpoint_dir = dir;
  resumed.resume = true;
  TestServer second(std::move(resumed));
  EXPECT_EQ(second.server.restored_cursor(), 3u);
  {
    Fd c = tcp_connect("127.0.0.1", second.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(), trace));
  }
  const HttpResponse drained = second.drain_and_join();
  EXPECT_EQ(drained.status, 200);
  EXPECT_EQ(second.stats.records_replayed, 3u);
  EXPECT_EQ(second.stats.records_applied, 0u);
  EXPECT_EQ(second.stats.cursor, 3u);

  // The resumed + drained run must equal a direct engine run over the same
  // records (the resume skip is invisible in the verdicts).
  stream::StreamEngine reference{stream::StreamEngineConfig{}};
  for (std::string_view line :
       {std::string_view("checkin,3,1000,1,Food,37.0,-122.0"),
        std::string_view("checkin,3,5000,2,Shop,37.1,-122.1"),
        std::string_view("checkin,4,2000,3,Arts,37.2,-122.2")}) {
    reference.push(std::get<stream::Event>(parse_wire_record(line)));
  }
  reference.finish();
  const match::Partition expect = reference.partition();
  const match::Partition after = second.server.engine().partition();
  EXPECT_EQ(after.checkins, expect.checkins);
  EXPECT_EQ(after.honest, expect.honest);
  EXPECT_EQ(after.extraneous, expect.extraneous);
  EXPECT_EQ(after.missing, expect.missing);
  EXPECT_EQ(after.by_class, expect.by_class);
}

void expect_partition_eq(const match::Partition& a,
                         const match::Partition& b) {
  EXPECT_EQ(a.checkins, b.checkins);
  EXPECT_EQ(a.visits, b.visits);
  EXPECT_EQ(a.honest, b.honest);
  EXPECT_EQ(a.extraneous, b.extraneous);
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_EQ(a.by_class, b.by_class);
}

TEST(ServeServer, TextReadAppliesLikeOneBinaryFrame) {
  // One write, so the server sees it as one read: its well-formed lines
  // reach the engine as one batch, through the same body as a frame.
  const std::vector<std::string_view> good{
      "checkin,7,1000,1,Food,37.0,-122.0",
      "gps,9,1000,37.0,-122.0,1,0,0.0",
      "checkin,7,5000,2,Nightlife,37.0,-122.0",
      "gps,9,1500,37.0,-122.0,1,0,0.0",
  };
  std::string text;
  text += std::string(good[0]) + "\n";
  text += std::string(good[1]) + "\n";
  text += "this is not a record\n";        // malformed
  text += "\n";                            // blank keepalive
  text += std::string(good[2]) + "\r\n";  // CRLF
  text += std::string(good[3]) + "\n";
  text += "checkin,7,9000,3,Food,37.0,-1";  // unterminated tail, then EOF

  std::vector<stream::Event> events;
  for (const std::string_view line : good) {
    events.push_back(std::get<stream::Event>(parse_wire_record(line)));
  }
  // The binary twin of the same input: the good records as one frame, a
  // corrupted frame and a frame cut by the disconnect.
  std::string wire;
  append_binary_frame(wire, events);
  std::string corrupted;
  append_binary_frame(corrupted, {&events[0], 1});
  corrupted[20] = static_cast<char>(
      static_cast<unsigned char>(corrupted[20]) ^ 0x10);  // CRC mismatch
  std::string cut;
  append_binary_frame(cut, {&events[1], 1});
  wire += corrupted + cut.substr(0, 20);

  ServeStats stats[2];
  match::Partition partition[2];
  for (const int binary : {0, 1}) {
    ServeConfig config;
    config.metrics = false;
    config.engine.shards = 2;
    TestServer ts(std::move(config));
    {
      Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
      ASSERT_TRUE(send_all(c.get(), binary ? wire : text));
    }
    EXPECT_EQ(ts.drain_and_join().status, 200);
    stats[binary] = ts.stats;
    partition[binary] = ts.server.engine().partition();
  }
  EXPECT_EQ(stats[0].records_parsed, 4u);
  EXPECT_EQ(stats[0].records_applied, 4u);
  EXPECT_EQ(stats[0].records_malformed, 2u);
  EXPECT_EQ(stats[0].cursor, 4u);
  EXPECT_EQ(stats[1].records_parsed, stats[0].records_parsed);
  EXPECT_EQ(stats[1].records_applied, stats[0].records_applied);
  EXPECT_EQ(stats[1].records_malformed, stats[0].records_malformed);
  EXPECT_EQ(stats[1].cursor, stats[0].cursor);
  EXPECT_EQ(partition[0].checkins, 2u);
  expect_partition_eq(partition[1], partition[0]);
}

TEST(ServeServer, ResumeSkipsTheCoveredPrefixInsideOneRead) {
  const fs::path dir = fresh_dir("serve_resume_one_read");
  const std::string covered =
      "checkin,3,1000,1,Food,37.0,-122.0\n"
      "checkin,3,5000,2,Shop,37.1,-122.1\n"
      "checkin,4,2000,3,Arts,37.2,-122.2\n";
  const std::string fresh =
      "checkin,4,6000,1,Food,37.0,-122.0\n"
      "checkin,3,9000,3,Arts,37.2,-122.2\n";

  ServeConfig config;
  config.metrics = false;
  config.checkpoint_dir = dir;
  TestServer first(std::move(config));
  {
    Fd c = tcp_connect("127.0.0.1", first.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(), covered));
  }
  (void)get_until(first.server.http_port(), "/v1/users/4/verdicts",
                  [](const HttpResponse& r) { return r.status == 200; });
  first.stop_and_join();
  ASSERT_EQ(first.stats.cursor, 3u);

  // One read holds the whole re-sent trace, the covered prefix of both
  // users interleaved with their new records.
  ServeConfig resumed;
  resumed.metrics = false;
  resumed.checkpoint_dir = dir;
  resumed.resume = true;
  TestServer second(std::move(resumed));
  {
    Fd c = tcp_connect("127.0.0.1", second.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(), covered + fresh));
  }
  EXPECT_EQ(second.drain_and_join().status, 200);
  EXPECT_EQ(second.stats.records_parsed, 5u);
  EXPECT_EQ(second.stats.records_replayed, 3u);
  EXPECT_EQ(second.stats.records_applied, 2u);
  EXPECT_EQ(second.stats.cursor, 5u);

  stream::StreamEngine reference{stream::StreamEngineConfig{}};
  LineDecoder lines;
  lines.feed(covered + fresh);
  while (const auto line = lines.next()) {
    reference.push(std::get<stream::Event>(parse_wire_record(line->text)));
  }
  reference.finish();
  expect_partition_eq(second.server.engine().partition(),
                      reference.partition());
}

TEST(ServeServer, CrashHookExitsWithoutFinalCheckpoint) {
  const fs::path dir = fresh_dir("serve_crash_hook");
  ServeConfig config;
  config.metrics = false;
  config.checkpoint_dir = dir;
  config.crash_after_records = 2;
  TestServer ts(std::move(config));
  {
    Fd c = tcp_connect("127.0.0.1", ts.server.ingest_port());
    ASSERT_TRUE(send_all(c.get(),
                         "checkin,1,1000,1,Food,37.0,-122.0\n"
                         "checkin,1,2000,2,Food,37.0,-122.0\n"
                         "checkin,1,3000,3,Food,37.0,-122.0\n"));
    ts.loop.join();
  }
  EXPECT_EQ(ts.stats.exit, ServeExit::kCrashed);
  EXPECT_EQ(ts.stats.records_parsed, 2u);
  // A simulated SIGKILL leaves no final checkpoint behind.
  EXPECT_TRUE(fs::is_empty(dir));
}

}  // namespace
}  // namespace geovalid::serve
