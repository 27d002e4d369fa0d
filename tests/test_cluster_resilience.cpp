// Self-healing cluster drills (docs/ROBUSTNESS.md): the router's health
// probes detect a dead backend and name it on /readyz; a SIGKILL'd
// backend restarted with --resume on the same ports is re-adopted
// automatically (probe → reconnect → instance change → epoch reset →
// client re-send) with verdicts byte-identical to the batch engine; a
// same-instance connection blip replays from the spool exactly once; a
// spool pushed past its budget backpressures and supersedes instead of
// dropping; and control-plane fan-out against a stalled backend returns
// within the configured deadline naming the stalled backend instead of
// hanging. Kill/restart equivalence runs for N ∈ {2, 4} backends in both
// wire formats.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cluster/router.h"
#include "obs/metrics.h"
#include "serve/client.h"
#include "serve/net.h"
#include "serve/server.h"
#include "stream/engine.h"
#include "stream/faults.h"
#include "stream/replay.h"
#include "synth/config.h"
#include "synth/study_generator.h"

namespace geovalid::cluster {
namespace {

namespace fs = std::filesystem;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

const std::vector<stream::Event>& study_events() {
  static const std::vector<stream::Event> events = [] {
    const synth::GeneratedStudy study =
        synth::generate_study(synth::tiny_preset());
    return stream::flatten_dataset(study.dataset);
  }();
  return events;
}

std::vector<stream::UserVerdicts> batch_verdicts() {
  stream::StreamEngine engine{stream::StreamEngineConfig{}};
  for (const stream::Event& e : study_events()) engine.push(e);
  engine.finish();
  return engine.all_user_verdicts();
}

void expect_identical(const std::vector<stream::UserVerdicts>& cluster,
                      const std::vector<stream::UserVerdicts>& batch) {
  ASSERT_EQ(cluster.size(), batch.size());
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    const stream::UserVerdicts& c = cluster[i];
    const stream::UserVerdicts& b = batch[i];
    ASSERT_EQ(c.id, b.id);
    EXPECT_EQ(c.partition.honest, b.partition.honest) << "user " << c.id;
    EXPECT_EQ(c.partition.extraneous, b.partition.extraneous)
        << "user " << c.id;
    EXPECT_EQ(c.partition.missing, b.partition.missing) << "user " << c.id;
    EXPECT_EQ(c.partition.checkins, b.partition.checkins) << "user " << c.id;
    EXPECT_EQ(c.partition.visits, b.partition.visits) << "user " << c.id;
    EXPECT_EQ(c.partition.by_class, b.partition.by_class) << "user " << c.id;
    EXPECT_EQ(c.checkins_seen, b.checkins_seen) << "user " << c.id;
    EXPECT_EQ(c.gap_count, b.gap_count) << "user " << c.id;
    EXPECT_EQ(c.gap_mean_min, b.gap_mean_min) << "user " << c.id;
    EXPECT_EQ(c.gap_m2, b.gap_m2) << "user " << c.id;
  }
}

struct TestBackend {
  serve::Server server;
  std::atomic<bool> stop{false};
  serve::ServeStats stats;
  std::thread loop;

  explicit TestBackend(serve::ServeConfig config)
      : server(std::move(config)) {
    server.start();
    loop = std::thread([this] { stats = server.run(&stop); });
  }

  ~TestBackend() {
    if (loop.joinable()) {
      stop.store(true);
      loop.join();
    }
  }

  void join() { loop.join(); }
};

std::vector<stream::UserVerdicts> cluster_verdicts(
    const std::vector<std::unique_ptr<TestBackend>>& backends) {
  std::vector<stream::UserVerdicts> all;
  for (const auto& b : backends) {
    const std::vector<stream::UserVerdicts> part =
        b->server.engine().all_user_verdicts();
    all.insert(all.end(), part.begin(), part.end());
  }
  std::sort(all.begin(), all.end(),
            [](const stream::UserVerdicts& a, const stream::UserVerdicts& b) {
              return a.id < b.id;
            });
  return all;
}

/// Probe/backoff timings tight enough that recovery settles in well under
/// a second of wall clock, keeping the drills fast and TSan-friendly.
void fast_heal(RouteConfig& rc) {
  rc.probe_interval_s = 0.05;
  rc.probe_timeout_s = 0.5;
  rc.probe_down_after = 2;
  rc.reconnect_backoff_ms = 20;
  rc.reconnect_backoff_cap_ms = 100;
}

/// Polls the router's /readyz until it reports `want_ready` (200 vs 503)
/// and returns the last response. Fails the test on timeout.
serve::HttpResponse await_readyz(std::uint16_t port, bool want_ready,
                                 std::chrono::seconds budget = 20s) {
  const Clock::time_point deadline = Clock::now() + budget;
  serve::HttpResponse r;
  while (true) {
    r = serve::http_get("127.0.0.1", port, "/readyz");
    if ((r.status == 200) == want_ready) return r;
    if (Clock::now() > deadline) {
      ADD_FAILURE() << "readyz never became "
                    << (want_ready ? "ready" : "not ready") << "; last: "
                    << r.status << " " << r.body;
      return r;
    }
    std::this_thread::sleep_for(20ms);
  }
}

TEST(ClusterResilience, ProbeDetectsDeathAndReadyzNamesTheBackend) {
  std::vector<std::unique_ptr<TestBackend>> backends;
  RouteConfig rc;
  rc.metrics = false;
  fast_heal(rc);
  for (std::size_t i = 0; i < 2; ++i) {
    serve::ServeConfig sc;
    sc.metrics = false;
    backends.push_back(std::make_unique<TestBackend>(std::move(sc)));
    BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = backends.back()->server.ingest_port();
    addr.http_port = backends.back()->server.http_port();
    rc.backends.push_back(std::move(addr));
  }
  Router router(std::move(rc));
  router.start();
  RouteStats stats;
  std::atomic<bool> stop{false};
  std::thread loop([&] { stats = router.run(&stop); });

  EXPECT_EQ(await_readyz(router.http_port(), /*want_ready=*/true).status,
            200);

  // Kill b1: its sockets close, the probe (or the severed forwarder
  // connection) must drive it to down and /readyz must name it with the
  // state machine's verdict, not a generic error.
  backends[1]->stop.store(true);
  backends[1]->join();
  backends[1].reset();
  const serve::HttpResponse down =
      await_readyz(router.http_port(), /*want_ready=*/false);
  EXPECT_EQ(down.status, 503);
  EXPECT_NE(down.body.find("\"not_ready\""), std::string::npos) << down.body;
  EXPECT_NE(down.body.find("\"name\":\"b1\""), std::string::npos)
      << down.body;
  EXPECT_NE(down.body.find("\"state\":\""), std::string::npos) << down.body;
  // The surviving backend is absent from the not-ready list, and the
  // router itself stays alive.
  EXPECT_EQ(down.body.find("\"name\":\"b0\""), std::string::npos)
      << down.body;
  EXPECT_EQ(serve::http_get("127.0.0.1", router.http_port(), "/healthz")
                .status,
            200);

  stop.store(true);
  loop.join();
  EXPECT_EQ(stats.exit, RouteExit::kStopped);
}

/// The tentpole drill: a backend dies mid-stream (simulated SIGKILL — no
/// drain, no final checkpoint), is restarted with --resume on the *same*
/// ports, and the router's probe loop re-adopts it on its own: reconnect
/// with backoff, detect the instance change, start a new epoch, and let
/// the client re-send restore exactly-once. Verdicts must come out
/// byte-identical to the single-process batch engine.
void run_self_heal(std::size_t n_backends, bool binary) {
  const std::vector<stream::Event>& events = study_events();
  ASSERT_GE(events.size(), 1000u);
  const fs::path dir =
      fresh_dir("cluster_self_heal_" + std::to_string(n_backends) +
                (binary ? "_binary" : "_text"));

  HashRing preview;
  for (std::size_t i = 0; i < n_backends; ++i) {
    preview.add_backend("b" + std::to_string(i));
  }
  std::size_t victim_share = 0;
  for (const stream::Event& e : events) {
    if (preview.owner_index(e.user) == 1) ++victim_share;
  }
  ASSERT_GT(victim_share, 10u) << "tiny preset left the victim shard empty";

  std::vector<std::unique_ptr<TestBackend>> backends;
  RouteConfig rc;
  rc.metrics = false;
  fast_heal(rc);
  for (std::size_t i = 0; i < n_backends; ++i) {
    serve::ServeConfig sc;
    sc.metrics = false;
    if (i == 1) {
      sc.checkpoint_dir = dir;
      sc.checkpoint_interval_records = 64;
      sc.crash_after_records = victim_share / 2;
    }
    backends.push_back(std::make_unique<TestBackend>(std::move(sc)));
    BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = backends.back()->server.ingest_port();
    addr.http_port = backends.back()->server.http_port();
    rc.backends.push_back(std::move(addr));
  }
  const std::uint16_t victim_ingest = backends[1]->server.ingest_port();
  const std::uint16_t victim_http = backends[1]->server.http_port();

  Router router(std::move(rc));
  router.start();
  RouteStats stats;
  std::thread loop([&] { stats = router.run(); });

  // First delivery attempt: the victim dies partway through its shard.
  serve::LoadgenConfig lg;
  lg.port = router.ingest_port();
  lg.connections = 2;
  lg.binary = binary;
  (void)serve::run_loadgen(events, lg);
  backends[1]->join();
  ASSERT_EQ(backends[1]->stats.exit, serve::ServeExit::kCrashed);

  // Restart on the same ports with --resume (release them first — the
  // dead process's listeners die with it). No rebalance hook, no config
  // change at the router: the probe loop must do all the adopting.
  backends[1].reset();
  serve::ServeConfig restart;
  restart.metrics = false;
  restart.ingest_port = victim_ingest;
  restart.http_port = victim_http;
  restart.checkpoint_dir = dir;
  restart.resume = true;
  backends[1] = std::make_unique<TestBackend>(std::move(restart));
  ASSERT_GT(backends[1]->server.restored_cursor(), 0u);
  ASSERT_LT(backends[1]->server.restored_cursor(), victim_share);

  // The router reconnects, sees a new Geovalid-Instance, resets the
  // epoch, and reports the whole cluster ready again.
  EXPECT_EQ(await_readyz(router.http_port(), /*want_ready=*/true).status,
            200);

  // Second delivery attempt: clients re-send everything (at-least-once).
  // The router skips the healthy backends' covered prefixes; the
  // restarted process's own resume skip covers its restored records.
  const serve::LoadgenStats resent = serve::run_loadgen(events, lg);
  EXPECT_EQ(resent.failed_connections, 0u);
  EXPECT_EQ(resent.connect_failures, 0u);

  const serve::HttpResponse drained =
      serve::http_post("127.0.0.1", router.http_port(), "/admin/drain");
  loop.join();
  for (auto& b : backends) b->join();
  ASSERT_EQ(drained.status, 200) << drained.body;
  EXPECT_EQ(stats.exit, RouteExit::kDrained);
  EXPECT_EQ(stats.records_malformed, 0u);
  // Silent loss is structurally impossible: nothing was torn down with
  // records still queued, so the only loss counter stays zero.
  EXPECT_EQ(stats.records_dropped, 0u);

  expect_identical(cluster_verdicts(backends), batch_verdicts());
}

TEST(ClusterResilience, SelfHealsKillRestartResumeTwoBackends) {
  run_self_heal(2, /*binary=*/false);
}

TEST(ClusterResilience, SelfHealsKillRestartResumeTwoBackendsBinary) {
  run_self_heal(2, /*binary=*/true);
}

TEST(ClusterResilience, SelfHealsKillRestartResumeFourBackends) {
  run_self_heal(4, /*binary=*/false);
}

TEST(ClusterResilience, SelfHealsKillRestartResumeFourBackendsBinary) {
  run_self_heal(4, /*binary=*/true);
}

/// Polls a backend's /v1/summary until its cursor reaches `want`: the
/// router has read and forwarded every record of a delivery meant for it.
void await_cursor(std::uint16_t http_port, std::uint64_t want,
                  std::chrono::seconds budget = 20s) {
  const Clock::time_point deadline = Clock::now() + budget;
  while (true) {
    const serve::HttpResponse r =
        serve::http_get("127.0.0.1", http_port, "/v1/summary");
    const std::size_t at = r.body.find("\"cursor\":");
    const std::uint64_t cursor =
        at == std::string::npos ? 0 : std::stoull(r.body.substr(at + 9));
    if (cursor >= want) {
      EXPECT_EQ(cursor, want);
      return;
    }
    if (Clock::now() > deadline) {
      ADD_FAILURE() << "cursor stuck at " << cursor << " of " << want;
      return;
    }
    std::this_thread::sleep_for(10ms);
  }
}

/// What one replace drill leaves behind.
struct ReplaceDrill {
  std::vector<std::uint64_t> users_reset;  ///< one per replace, in order
  std::uint64_t records_replayed = 0;
  std::vector<std::uint64_t> applied;  ///< per final backend, ring order
  std::vector<stream::UserVerdicts> verdicts;
};

/// Backends b0 and b1 take one full binary delivery; then, `replaces`
/// times over, b1 is replaced by a fresh process and the client re-sends
/// everything. Each delivery is fully forwarded before the next step, so
/// the router's epoch accounting alone decides every count.
ReplaceDrill run_replace_drill(int replaces) {
  const std::vector<stream::Event>& events = study_events();
  HashRing preview;
  for (const char* name : {"b0", "b1"}) preview.add_backend(name);
  std::uint64_t b1_share = 0;
  for (const stream::Event& e : events) {
    if (preview.owner_index(e.user) == 1) ++b1_share;
  }

  const auto fresh_backend = [] {
    serve::ServeConfig sc;
    sc.metrics = false;
    return std::make_unique<TestBackend>(std::move(sc));
  };
  std::vector<std::unique_ptr<TestBackend>> backends;
  RouteConfig rc;
  rc.metrics = false;
  fast_heal(rc);
  for (std::size_t i = 0; i < 2; ++i) {
    backends.push_back(fresh_backend());
    BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = backends.back()->server.ingest_port();
    addr.http_port = backends.back()->server.http_port();
    rc.backends.push_back(std::move(addr));
  }
  Router router(std::move(rc));
  router.start();
  RouteStats stats;
  std::thread loop([&] { stats = router.run(); });

  serve::LoadgenConfig lg;
  lg.port = router.ingest_port();
  lg.connections = 2;
  lg.binary = true;
  EXPECT_EQ(serve::run_loadgen(events, lg).events_sent, events.size());
  await_cursor(backends[0]->server.http_port(), events.size() - b1_share);
  await_cursor(backends[1]->server.http_port(), b1_share);

  ReplaceDrill drill;
  for (int round = 0; round < replaces; ++round) {
    auto replacement = fresh_backend();
    const serve::HttpResponse swapped = serve::http_post(
        "127.0.0.1", router.http_port(), "/admin/backends/b1",
        "{\"ingest_port\":" +
            std::to_string(replacement->server.ingest_port()) +
            ",\"http_port\":" +
            std::to_string(replacement->server.http_port()) + "}");
    EXPECT_EQ(swapped.status, 200) << swapped.body;
    const std::size_t at = swapped.body.find("\"users_reset\":");
    EXPECT_NE(at, std::string::npos) << swapped.body;
    if (at != std::string::npos) {
      drill.users_reset.push_back(std::stoull(swapped.body.substr(at + 14)));
    }
    backends[1] = std::move(replacement);  // stops the replaced process

    EXPECT_EQ(serve::run_loadgen(events, lg).events_sent, events.size());
    await_cursor(backends[1]->server.http_port(), b1_share);
  }

  const serve::HttpResponse drained =
      serve::http_post("127.0.0.1", router.http_port(), "/admin/drain");
  loop.join();
  for (auto& b : backends) b->join();
  EXPECT_EQ(drained.status, 200) << drained.body;
  EXPECT_EQ(stats.exit, RouteExit::kDrained);
  drill.records_replayed = stats.records_replayed;
  for (const auto& b : backends) {
    drill.applied.push_back(b->stats.records_applied);
  }
  drill.verdicts = cluster_verdicts(backends);
  return drill;
}

TEST(ClusterResilience, SecondReplaceCountsLikeASingleEpoch) {
  // Two epoch changes back to back must account exactly like one: the
  // second replace resets the same users (everyone the replaced backend
  // ever owned), each re-send replays the same healthy prefix, and the
  // backends end with the same partition, equal to batch.
  const ReplaceDrill once = run_replace_drill(1);
  const ReplaceDrill twice = run_replace_drill(2);

  HashRing preview;
  for (const char* name : {"b0", "b1"}) preview.add_backend(name);
  std::vector<trace::UserId> b1_users;
  std::uint64_t b0_share = 0;
  for (const stream::Event& e : study_events()) {
    if (preview.owner_index(e.user) == 1) {
      b1_users.push_back(e.user);
    } else {
      ++b0_share;
    }
  }
  std::sort(b1_users.begin(), b1_users.end());
  b1_users.erase(std::unique(b1_users.begin(), b1_users.end()),
                 b1_users.end());

  ASSERT_EQ(once.users_reset.size(), 1u);
  EXPECT_EQ(once.users_reset[0], b1_users.size());
  EXPECT_EQ(twice.users_reset,
            std::vector<std::uint64_t>(2, once.users_reset[0]));
  EXPECT_EQ(once.records_replayed, b0_share);
  EXPECT_EQ(twice.records_replayed, 2 * once.records_replayed);
  EXPECT_EQ(twice.applied, once.applied);
  expect_identical(once.verdicts, batch_verdicts());
  expect_identical(twice.verdicts, once.verdicts);
}

TEST(ClusterResilience, SameInstanceSeverReplaysFromSpoolExactlyOnce) {
  // Injected network faults sever the router→backend connections
  // mid-stream while both processes stay alive: recovery must come from
  // the spool (same instance — no epoch reset, no client re-send), and
  // the replay must be exactly-once, byte-identical to batch.
  const std::vector<stream::Event>& events = study_events();
  std::vector<std::unique_ptr<TestBackend>> backends;
  RouteConfig rc;
  rc.metrics = false;
  fast_heal(rc);
  rc.net_faults = stream::parse_net_fault_spec(
      "netreset=b0@257,netdrop=b1@101,netstall=b0@400:50,seed=7");
  for (std::size_t i = 0; i < 2; ++i) {
    serve::ServeConfig sc;
    sc.metrics = false;
    backends.push_back(std::make_unique<TestBackend>(std::move(sc)));
    BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = backends.back()->server.ingest_port();
    addr.http_port = backends.back()->server.http_port();
    rc.backends.push_back(std::move(addr));
  }
  Router router(std::move(rc));
  router.start();
  RouteStats stats;
  std::thread loop([&] { stats = router.run(); });

  serve::LoadgenConfig lg;
  lg.port = router.ingest_port();
  lg.connections = 2;
  const serve::LoadgenStats sent = serve::run_loadgen(events, lg);
  EXPECT_EQ(sent.failed_connections, 0u);
  EXPECT_EQ(sent.events_sent, events.size());

  // Let both severed backends recover (reconnect + probe + spool drain)
  // before draining, so the drain sees empty spools.
  EXPECT_EQ(await_readyz(router.http_port(), /*want_ready=*/true).status,
            200);
  const serve::HttpResponse drained =
      serve::http_post("127.0.0.1", router.http_port(), "/admin/drain");
  loop.join();
  for (auto& b : backends) b->join();
  ASSERT_EQ(drained.status, 200) << drained.body;
  EXPECT_EQ(stats.exit, RouteExit::kDrained);
  EXPECT_EQ(stats.records_dropped, 0u);
  // Same instance throughout: nothing was superseded, the spool alone
  // re-delivered, and every record was applied exactly once.
  EXPECT_EQ(stats.records_superseded, 0u);
  std::size_t applied = 0;
  for (const auto& b : backends) applied += b->stats.records_applied;
  EXPECT_EQ(applied, events.size());

  expect_identical(cluster_verdicts(backends), batch_verdicts());
}

TEST(ClusterResilience, SpoolOverflowSupersedesAndNeverDrops) {
  // A tiny spool budget pushed far past its limit while a backend is
  // down: overflow must turn into backpressure + (after the restart)
  // superseded records that the client re-send re-delivers — never into
  // a silent drop.
  std::vector<std::unique_ptr<TestBackend>> backends;
  RouteConfig rc;
  rc.metrics = false;
  fast_heal(rc);
  rc.spool_bytes = 2048;
  for (std::size_t i = 0; i < 2; ++i) {
    serve::ServeConfig sc;
    sc.metrics = false;
    backends.push_back(std::make_unique<TestBackend>(std::move(sc)));
    BackendAddr addr;
    addr.name = "b" + std::to_string(i);
    addr.ingest_port = backends.back()->server.ingest_port();
    addr.http_port = backends.back()->server.http_port();
    rc.backends.push_back(std::move(addr));
  }
  const std::uint16_t victim_ingest = backends[1]->server.ingest_port();
  const std::uint16_t victim_http = backends[1]->server.http_port();
  Router router(std::move(rc));
  router.start();
  RouteStats stats;
  std::thread loop([&] { stats = router.run(); });

  // Records exclusively for users owned by b1 — several times the spool
  // budget's worth.
  std::string payload;
  std::size_t lines = 0;
  for (trace::UserId u = 0; lines < 400; ++u) {
    if (router.ring().owner_index(u) != 1) continue;
    for (int k = 0; k < 5; ++k) {
      payload += "checkin," + std::to_string(u) + "," +
                 std::to_string(1000 + k * 1000) + ",1,Food,37.0,-122.0\n";
      ++lines;
    }
  }
  ASSERT_GT(payload.size(), 4 * rc.spool_bytes);

  // Kill b1, wait for the router to notice, then pour in its records.
  backends[1]->stop.store(true);
  backends[1]->join();
  backends[1].reset();
  EXPECT_EQ(await_readyz(router.http_port(), /*want_ready=*/false).status,
            503);
  {
    serve::Fd c = serve::tcp_connect("127.0.0.1", router.ingest_port());
    ASSERT_TRUE(serve::send_all(c.get(), payload));
  }
  std::this_thread::sleep_for(100ms);

  // Restart b1 fresh on the same ports (no checkpoint): the instance
  // change discards the spool as superseded and starts a new epoch.
  serve::ServeConfig restart;
  restart.metrics = false;
  restart.ingest_port = victim_ingest;
  restart.http_port = victim_http;
  backends[1] = std::make_unique<TestBackend>(std::move(restart));
  EXPECT_EQ(await_readyz(router.http_port(), /*want_ready=*/true).status,
            200);

  // Client re-send (the at-least-once half of the contract), then drain.
  {
    serve::Fd c = serve::tcp_connect("127.0.0.1", router.ingest_port());
    ASSERT_TRUE(serve::send_all(c.get(), payload));
  }
  const serve::HttpResponse drained =
      serve::http_post("127.0.0.1", router.http_port(), "/admin/drain");
  loop.join();
  for (auto& b : backends) b->join();
  ASSERT_EQ(drained.status, 200) << drained.body;
  EXPECT_EQ(stats.records_dropped, 0u);
  EXPECT_GT(stats.records_superseded, 0u);
  // Exactly-once at the restarted owner: every record applied once,
  // nothing at the other backend.
  EXPECT_EQ(backends[1]->stats.records_applied, lines);
  EXPECT_EQ(backends[0]->stats.records_applied, 0u);
}

TEST(ClusterResilience, FanOutAgainstStalledBackendReturnsWithinDeadline) {
  // b1 is a listener that accepts TCP but never answers a byte — the
  // nastiest failure mode, because without deadlines every control-plane
  // fan-out would hang forever. The router must answer /v1/summary within
  // its --fanout-deadline-s, naming the stalled backend as degraded.
  serve::ServeConfig sc;
  sc.metrics = false;
  TestBackend healthy(std::move(sc));
  serve::Fd stalled_ingest = serve::tcp_listen("127.0.0.1", 0);
  serve::Fd stalled_http = serve::tcp_listen("127.0.0.1", 0);

  RouteConfig rc;
  rc.metrics = false;
  rc.fanout_deadline_s = 0.5;
  rc.probe_timeout_s = 0.3;
  rc.probe_interval_s = 60.0;  // keep the async probe loop out of the way
  rc.probe_down_after = 100;
  {
    BackendAddr addr;
    addr.name = "b0";
    addr.ingest_port = healthy.server.ingest_port();
    addr.http_port = healthy.server.http_port();
    rc.backends.push_back(std::move(addr));
  }
  {
    BackendAddr addr;
    addr.name = "b1";
    addr.ingest_port = serve::local_port(stalled_ingest.get());
    addr.http_port = serve::local_port(stalled_http.get());
    rc.backends.push_back(std::move(addr));
  }
  Router router(std::move(rc));
  router.start();
  RouteStats stats;
  std::atomic<bool> stop{false};
  std::thread loop([&] { stats = router.run(&stop); });

  const Clock::time_point t0 = Clock::now();
  const serve::HttpResponse summary =
      serve::http_get("127.0.0.1", router.http_port(), "/v1/summary");
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - t0).count();
  EXPECT_LT(elapsed, 5.0) << "fan-out did not respect the deadline";
  ASSERT_EQ(summary.status, 200) << summary.body;
  EXPECT_NE(summary.body.find("\"degraded\":[\"b1\"]"), std::string::npos)
      << summary.body;

  // /readyz agrees: 503 naming b1 (never probed up), not b0.
  const serve::HttpResponse ready =
      serve::http_get("127.0.0.1", router.http_port(), "/readyz");
  EXPECT_EQ(ready.status, 503);
  EXPECT_NE(ready.body.find("\"name\":\"b1\""), std::string::npos)
      << ready.body;
  EXPECT_EQ(ready.body.find("\"name\":\"b0\""), std::string::npos)
      << ready.body;

  stop.store(true);
  loop.join();
  EXPECT_EQ(stats.exit, RouteExit::kStopped);
}

TEST(ClusterResilience, FanOutDeadlineIsSharedAcrossStalledBackends) {
  // Two backends that accept TCP and never answer. One fan-out calls
  // both at once, so /v1/summary fails after one --fanout-deadline-s,
  // not one per stalled backend, and each failure is counted once.
  const auto backend_errors = [](const std::string& name) {
    return obs::registry()
        .counter("cluster_backend_errors_total",
                 "Failed control-plane calls to a backend (scrapes, "
                 "fan-outs, proxies)",
                 {{"backend", name}})
        .value();
  };
  std::vector<serve::Fd> stalled;
  RouteConfig rc;
  rc.metrics = true;
  rc.fanout_deadline_s = 1.0;
  rc.probe_timeout_s = 0.2;
  rc.probe_interval_s = 60.0;  // keep the async probe loop out of the way
  rc.probe_down_after = 100;
  for (const char* name : {"stall0", "stall1"}) {
    stalled.push_back(serve::tcp_listen("127.0.0.1", 0));
    BackendAddr addr;
    addr.name = name;
    addr.ingest_port = serve::local_port(stalled.back().get());
    addr.http_port = addr.ingest_port;
    rc.backends.push_back(std::move(addr));
  }
  {
    Router router(std::move(rc));
    router.start();
    std::atomic<bool> stop{false};
    std::thread loop([&] { (void)router.run(&stop); });
    const std::uint64_t before0 = backend_errors("stall0");
    const std::uint64_t before1 = backend_errors("stall1");

    const Clock::time_point t0 = Clock::now();
    const serve::HttpResponse summary =
        serve::http_get("127.0.0.1", router.http_port(), "/v1/summary");
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - t0).count();
    EXPECT_EQ(summary.status, 502) << summary.body;
    EXPECT_LT(elapsed, 1.8) << "fan-out waited once per stalled backend";
    EXPECT_EQ(backend_errors("stall0"), before0 + 1);
    EXPECT_EQ(backend_errors("stall1"), before1 + 1);

    stop.store(true);
    loop.join();
  }

  // A backend's own 404 for an unknown user is an answer, not a failure.
  serve::ServeConfig sc;
  sc.metrics = false;
  TestBackend live(std::move(sc));
  RouteConfig live_rc;
  live_rc.metrics = true;
  {
    BackendAddr addr;
    addr.name = "live0";
    addr.ingest_port = live.server.ingest_port();
    addr.http_port = live.server.http_port();
    live_rc.backends.push_back(std::move(addr));
  }
  Router router(std::move(live_rc));
  router.start();
  std::atomic<bool> stop{false};
  std::thread loop([&] { (void)router.run(&stop); });
  const std::uint64_t before = backend_errors("live0");
  EXPECT_EQ(serve::http_get("127.0.0.1", router.http_port(),
                            "/v1/users/999/verdicts")
                .status,
            404);
  EXPECT_EQ(backend_errors("live0"), before);
  stop.store(true);
  loop.join();
}

TEST(ClusterResilience, LoadgenRetriesReconnectAndReportExhaustion) {
  // Exhaustion: nothing ever listens, so every retry burns and the JSON
  // must say so.
  std::uint16_t dead_port = 0;
  {
    serve::Fd listener = serve::tcp_listen("127.0.0.1", 0);
    dead_port = serve::local_port(listener.get());
  }
  serve::LoadgenConfig lg;
  lg.port = dead_port;
  lg.connections = 1;
  lg.retries = 2;
  const std::vector<stream::Event> none;
  const serve::LoadgenStats exhausted = serve::run_loadgen(none, lg);
  EXPECT_EQ(exhausted.connect_failures, 1u);
  EXPECT_EQ(exhausted.reconnects, 2u);
  EXPECT_TRUE(exhausted.retry_exhausted);
  const std::string json = serve::to_json(exhausted);
  EXPECT_NE(json.find("\"reconnects\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"retry_exhausted\":true"), std::string::npos)
      << json;

  // Recovery: a client-side injected reset mid-replay re-dials and
  // re-sends the shard from the beginning against a live server.
  serve::ServeConfig sc;
  sc.metrics = false;
  TestBackend backend(std::move(sc));
  serve::LoadgenConfig retry_lg;
  retry_lg.port = backend.server.ingest_port();
  retry_lg.connections = 1;
  retry_lg.retries = 3;
  retry_lg.net_faults = stream::parse_net_fault_spec("netreset=0@100");
  const std::vector<stream::Event>& events = study_events();
  const serve::LoadgenStats recovered =
      serve::run_loadgen(events, retry_lg);
  EXPECT_EQ(recovered.failed_connections, 0u);
  EXPECT_EQ(recovered.connect_failures, 0u);
  EXPECT_GE(recovered.reconnects, 1u);
  EXPECT_FALSE(recovered.retry_exhausted);
  // events_sent counts across attempts — the at-least-once measure.
  EXPECT_GT(recovered.events_sent, events.size());
}

}  // namespace
}  // namespace geovalid::cluster
