// The geovalid route daemon: a single-threaded poll() event loop that
// fronts N independent `geovalid serve` backends (docs/CLUSTER.md).
//
// Data plane: ingest clients speak either serve wire format, negotiated
// per connection from the first byte exactly as serve does (serve/wire.h).
// Text: the router extracts only the *routing key* from each line — the
// verb and the user id, the first two fields — picks the owning backend
// on a consistent-hash ring (cluster/ring.h), and forwards the raw bytes
// verbatim over a persistent per-backend TCP connection
// (cluster/forwarder.h). Full parsing and validation stay on the
// backends; that asymmetry is what lets one router outrun one serve
// process, whose ceiling is single-threaded record parsing. Lines whose
// routing key cannot be extracted dead-letter at the router through the
// usual quarantine path.
//
// Binary frames carry many users' records in one columnar unit, so
// verbatim forwarding cannot shard them: the router decodes each frame,
// runs the same per-record epoch accounting as the text path, partitions
// the surviving events by ring owner and re-encodes one sub-frame per
// backend (serve/wire.h append_binary_frame), queued on the forwarder's
// dedicated binary channel. Frames the codec rejects dead-letter here as
// `malformed_frame` with the same hex-prefix detail serve uses.
//
// Control plane: merged or fanned-out views over the backends' own
// endpoints — /healthz (router liveness), /readyz (every backend ready),
// GET /metrics (summed families plus the router's cluster_*), GET
// /v1/summary (user-weighted merge), /v1/users/{id}/verdicts (proxied to
// the ring owner), POST /admin/checkpoint and /admin/drain (fan-out,
// all-or-error), and POST /admin/backends/{name} — the rebalance hook
// that points a ring name at a replacement process.
//
// Exactly-once across rebalance: the router keeps per-user counts of
// records forwarded to each user's owner. Replacing a backend starts a
// new *epoch*: clients re-send their full traces, the router silently
// skips each healthy user's already-applied prefix, and the replacement
// process's own checkpoint-resume skip (serve/server.h) deduplicates the
// records its restored snapshot already covers. At-least-once delivery
// in, exactly-once application out — the cluster-level restatement of
// the serve resume contract.
//
// Self-healing (docs/ROBUSTNESS.md): the loop actively probes each
// backend's /readyz with a connect/read deadline, driving the forwarder
// state machine (up → suspect → down → recovering). A lost connection
// reconnects with capped, jittered exponential backoff instead of
// latching dead; records meanwhile queue in the forwarder's bounded
// spool, overflowing to whole-ingest backpressure, never to a drop. On
// reconnect, the probe's Geovalid-Instance header decides the replay:
// the same instance means the process (and its applied records) survived
// — the spool simply drains; a new instance means only a checkpoint
// survived — the router starts a new epoch, exactly as handle_replace
// does, and the client re-send plus serve's resume skip restore
// exactly-once.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/forwarder.h"
#include "cluster/ring.h"
#include "serve/conn_loop.h"
#include "serve/net.h"
#include "serve/wire.h"
#include "stream/quarantine.h"

namespace geovalid::cluster {

struct RouteConfig {
  std::string host = "127.0.0.1";
  std::uint16_t ingest_port = 0;  ///< 0 = ephemeral
  std::uint16_t http_port = 0;    ///< 0 = ephemeral

  /// The backends to front. Names must be unique; they are the ring
  /// identity and must stay stable across process replacement.
  std::vector<BackendAddr> backends;
  std::size_t vnodes = 128;  ///< ring points per backend

  std::size_t max_connections = 1024;
  double idle_timeout_s = 60.0;
  std::size_t max_line_bytes = serve::kMaxLineBytes;

  /// Per-backend buffer high-water mark: when any backend's queue grows
  /// past this, the router stops reading from ingest clients (TCP
  /// backpressure) until every queue is back under half of it.
  std::size_t backend_buffer_bytes = 4 * 1024 * 1024;

  /// Dead-letter sink for lines rejected at the router.
  stream::QuarantineConfig quarantine;

  /// Register cluster_* metric families in the process registry.
  bool metrics = true;

  /// Health probing: every `probe_interval_s` the router opens a
  /// non-blocking GET /readyz to each backend with `probe_timeout_s` as
  /// the combined connect/read deadline. `probe_down_after` consecutive
  /// failures sever a still-connected backend (a hung process will not
  /// flush its queue; the spool reclaims it).
  double probe_interval_s = 2.0;
  double probe_timeout_s = 1.0;
  std::size_t probe_down_after = 3;

  /// Reconnect backoff (jittered exponential, stream::backoff_with_jitter,
  /// seeded from `net_faults.seed` so chaos drills replay identically).
  std::uint32_t reconnect_backoff_ms = 100;
  std::uint32_t reconnect_backoff_cap_ms = 5000;

  /// Per-backend spool byte budget: records owned by a not-up backend
  /// queue here; past the budget the router stops reading ingest (the
  /// same whole-ingest backpressure as backend_buffer_bytes) — overflow
  /// is never a drop.
  std::size_t spool_bytes = 16 * 1024 * 1024;

  /// Deadline for one control-plane fan-out: every backend is called at
  /// once and the whole fan-out ends within it, however many backends
  /// stall (not one deadline per backend). It also bounds the forwarder
  /// flush before checkpoint/drain. The CLI flag is --fanout-deadline-s.
  double fanout_deadline_s = 30.0;

  /// Deterministic network fault injection (--inject-net-faults,
  /// stream/faults.h net grammar); empty = off.
  stream::NetFaultPlan net_faults;
};

enum class RouteExit : std::uint8_t {
  kStopped,  ///< stop flag (SIGTERM path): buffers flushed, backends left up
  kDrained,  ///< POST /admin/drain completed across every backend
};

struct RouteStats {
  RouteExit exit = RouteExit::kStopped;
  std::uint64_t records_forwarded = 0;  ///< routed toward the owning backend
  std::uint64_t records_replayed = 0;   ///< skipped as epoch-covered
  std::uint64_t records_malformed = 0;  ///< no routing key; dead-lettered
  /// Counted loss — only possible at deliberate teardown with records
  /// still queued (spool overflow backpressures instead of dropping).
  std::uint64_t records_dropped = 0;
  /// Spooled records discarded because a backend restart made the client
  /// re-send authoritative (not loss; the re-send re-delivers them).
  std::uint64_t records_superseded = 0;
  std::uint64_t http_requests = 0;
  std::uint64_t connections = 0;
};

/// The connection handling (accept, reads, wire sniff, idle sweep, drain
/// waiters) is serve's ConnLoop; the Router is its policy.
class Router final : private serve::ConnHandler {
 public:
  /// Validates the backend list and builds the ring. Throws
  /// std::invalid_argument on an empty list or duplicate names.
  explicit Router(RouteConfig config);
  ~Router() override;

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Connects every backend's forwarder (all must be reachable — a
  /// router with a known-dead backend should fail loudly at startup, not
  /// drop a shard silently; throws serve::NetError) and binds both
  /// listeners. Call once, before run().
  void start();

  [[nodiscard]] std::uint16_t ingest_port() const { return ingest_port_; }
  [[nodiscard]] std::uint16_t http_port() const { return http_port_; }

  /// The event loop: routes until `stop` becomes true (flushes and
  /// closes forwarder connections; backends keep running) or an
  /// /admin/drain completes across the cluster.
  RouteStats run(const std::atomic<bool>* stop = nullptr);

  [[nodiscard]] const HashRing& ring() const { return ring_; }
  [[nodiscard]] const stream::Quarantine& quarantine() const {
    return *quarantine_;
  }

 private:
  struct Metrics;
  using Clock = std::chrono::steady_clock;

  void register_metrics();
  // serve::ConnHandler: the routing policy over the shared connection core.
  void on_line(std::string_view text, bool truncated) override;
  /// One decoded binary frame: per-record epoch accounting, then the
  /// surviving events are partitioned by ring owner, re-encoded as one
  /// sub-frame per backend and queued on the binary channels.
  void on_frame(serve::BinaryFrameDecoder::Frame& frame) override;
  /// One rejected binary frame: counted as a single malformed record and
  /// dead-lettered (hex-prefix detail) as `malformed_frame`.
  void on_frame_error(const serve::FrameError& error) override;
  serve::HttpReply on_request(const serve::HttpRequest& req) override;
  void on_answered(std::string_view route, int status) override;

  /// Poll events on one forwarder channel (text, or the binary one).
  void forwarder_io(Forwarder& f, bool binary, short revents);
  void update_backend_gauges();

  /// Drives every pending forwarder buffer to the kernel, polling up to
  /// `deadline_ms`; a backend that cannot absorb its queue in time is
  /// severed (its remainder salvaged into the spool). Returns true when
  /// everything flushed.
  bool flush_all_blocking(int deadline_ms);

  // -- Self-healing (probe loop + reconnect + recovery protocol) --------

  /// Health bookkeeping for one backend. The in-flight GET /readyz probe
  /// is an HttpExchange the router's poll loop drives as an extra fd.
  struct BackendHealth {
    std::optional<serve::HttpExchange> probe;
    Clock::time_point probe_deadline{};
    Clock::time_point next_probe_at{};  ///< epoch start = immediately due

    std::size_t consecutive_failures = 0;
    std::uint32_t reconnect_attempts = 0;
    Clock::time_point next_reconnect_at{};
    /// Geovalid-Instance from the last passing probe; a change across a
    /// recovery means the process restarted and replay must come from
    /// the clients, not the spool.
    std::string instance;
  };

  /// Due-time driving: start/expire probes, attempt backoff reconnects.
  void check_health_timers(Clock::time_point now);
  void start_probe(std::size_t index, Clock::time_point now);
  /// Poll-event hook for a probe fd; advances the probe exchange.
  void probe_io(std::size_t index, short revents);
  /// Settles a finished (or expired) probe: 200 passes, all else fails.
  void finish_probe(std::size_t index);
  void on_probe_success(std::size_t index, std::string instance);
  void on_probe_failure(std::size_t index);

  /// The epoch reset handle_replace pioneered, shared with instance-change
  /// recovery: sever ingest clients, fold each user's `sent` into
  /// `covered`, zero the covered prefix for users owned by `index`, and
  /// clear `arrived` and `sent`, all in one pass over `epochs_`.
  /// Returns how many users' coverage was reset.
  std::uint64_t begin_new_epoch(std::size_t index);

  [[nodiscard]] int fanout_deadline_ms() const;

  /// One answer slot per backend, in ring order; empty when the backend
  /// was not called or its call failed.
  using Answers = std::vector<std::optional<serve::HttpResponse>>;
  /// Sends `method path` to the backends at ring indices `backends`, all
  /// at once under one `timeout_ms` deadline. Transport failures are
  /// counted in cluster_backend_errors_total here, once per backend.
  Answers fan_out(const char* method, const std::string& path,
                  const std::vector<std::size_t>& backends, int timeout_ms);
  /// A write fan-out's outcome (checkpoint, drain): each 200 joins
  /// `ok_entries` as {"name":N,"response":BODY}, every other backend
  /// joins `failed` once, in ring order.
  void collect_writes(const Answers& answers,
                      std::vector<std::string>& failed,
                      std::string& ok_entries) const;
  /// Ring indices of every backend, for a fan-out to the whole cluster.
  [[nodiscard]] std::vector<std::size_t> all_backends() const;

  /// The admission step both ingest formats share: counts the record's
  /// arrival this epoch and skips it as replayed when the owner already
  /// applied it; otherwise counts it as sent and returns its ring owner.
  [[nodiscard]] std::optional<std::size_t> admit(trace::UserId user);
  /// Counts `records` forwarded to `owner`, then flushes its buffer once a
  /// chunk has queued up.
  void forwarded(std::size_t owner, std::uint64_t records);

  // Control-plane handlers: each backend call is one fan_out, which
  // blocks the loop for at most one deadline.
  void handle_readyz(int& status, std::string& content_type,
                     std::string& body);
  void handle_metrics(int& status, std::string& content_type,
                      std::string& body);
  void handle_summary(int& status, std::string& body);
  /// GET /v1/users/{id}`what` (/verdicts, or /score — docs/DETECTION.md)
  /// proxied to the ring owner.
  void handle_proxy(std::string_view id_text, std::string_view what,
                    int& status, std::string& body);
  /// /v1/suspects[?k=N] (`k_text`, "10" by default): fan out, merge the
  /// per-backend top-k lists into one ranking (score desc, user id asc;
  /// score bytes re-emitted verbatim), lead the body with "backends":N.
  void handle_suspects(std::string_view k_text, int& status,
                       std::string& body);
  void handle_checkpoint(int& status, std::string& body);
  void handle_replace(const std::string& name, const std::string& json,
                      int& status, std::string& body);
  void complete_drain();

  RouteConfig config_;
  HashRing ring_;
  std::vector<std::unique_ptr<Forwarder>> forwarders_;  ///< ring order
  std::vector<BackendHealth> health_;                   ///< parallel to ^
  std::optional<stream::NetFaultInjector> fault_injector_;
  std::optional<stream::Quarantine> quarantine_;

  serve::Fd ingest_listener_;
  serve::Fd http_listener_;
  std::uint16_t ingest_port_ = 0;
  std::uint16_t http_port_ = 0;
  bool started_ = false;

  serve::ConnCounts counts_;
  serve::ConnLoop loop_;
  bool paused_ = false;  ///< backpressure: ingest reads suspended

  /// Epoch accounting for one user (see the header comment).
  struct UserEpoch {
    std::uint64_t arrived = 0;  ///< records received this epoch
    std::uint64_t covered = 0;  ///< prefix applied at the owner as of the
                                ///< last epoch change
    std::uint64_t sent = 0;     ///< records forwarded on top of `covered`
                                ///< this epoch
    std::size_t owner = 0;      ///< ring index; the ring never changes
                                ///< membership, so it is looked up once
  };
  /// Every user the router has forwarded for, in any epoch: one hash
  /// lookup per admitted record, and no ring search after the first.
  std::unordered_map<trace::UserId, UserEpoch> epochs_;

  /// Reused per-frame partition scratch: one event bucket per backend
  /// (ring order) plus the re-encode buffer — no allocation per frame
  /// once warm.
  std::vector<std::vector<stream::Event>> route_scratch_;
  std::string frame_scratch_;

  bool drain_requested_ = false;
  bool drain_done_ = false;
  std::string drain_body_;  ///< response for (late) drain callers
  int drain_status_ = 200;

  RouteStats stats_;
  std::unique_ptr<Metrics> metrics_;
};

}  // namespace geovalid::cluster
