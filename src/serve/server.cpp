#include "serve/server.h"

#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/parallel.h"
#include "match/classifier.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/http.h"
#include "stream/checkpoint.h"
#include "stream/snapshot_io.h"

namespace geovalid::serve {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t ns_since(Clock::time_point start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - start)
                      .count();
  return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
}

void append_partition_json(std::string& out, const match::Partition& p) {
  out += "{\"honest\":";
  append_json_number(out, static_cast<std::uint64_t>(p.honest));
  out += ",\"extraneous\":";
  append_json_number(out, static_cast<std::uint64_t>(p.extraneous));
  out += ",\"missing\":";
  append_json_number(out, static_cast<std::uint64_t>(p.missing));
  out += ",\"checkins\":";
  append_json_number(out, static_cast<std::uint64_t>(p.checkins));
  out += ",\"visits\":";
  append_json_number(out, static_cast<std::uint64_t>(p.visits));
  out += ",\"by_class\":{";
  for (std::size_t c = 0; c < match::kCheckinClassCount; ++c) {
    if (c > 0) out += ',';
    out += '"';
    out += match::to_string(static_cast<match::CheckinClass>(c));
    out += "\":";
    append_json_number(out, static_cast<std::uint64_t>(p.by_class[c]));
  }
  out += "}}";
}

std::string user_verdicts_json(const stream::UserVerdicts& v) {
  std::string out = "{\"user\":";
  append_json_number(out, static_cast<std::uint64_t>(v.id));
  out += ",\"partition\":";
  append_partition_json(out, v.partition);
  out += ",\"extraneous_ratio\":";
  append_json_number(out, v.extraneous_ratio());
  out += ",\"interarrival\":{\"gaps\":";
  append_json_number(out, v.gap_count);
  out += ",\"mean_min\":";
  append_json_number(out, v.gap_mean_min);
  out += ",\"stddev_min\":";
  append_json_number(out, v.gap_stddev_min());
  out += ",\"burstiness\":";
  append_json_number(out, v.burstiness());
  out += "}}";
  return out;
}

}  // namespace

/// Cached serve_* metric handles (null when ServeConfig::metrics is off).
struct Server::Metrics {
  ConnMetrics conn;  ///< the serve_connections/bytes/idle families
  obs::Counter* records_applied = nullptr;
  obs::Counter* records_replayed = nullptr;
  obs::Counter* records_malformed = nullptr;
  obs::Gauge* ingest_lag = nullptr;
  obs::Counter* accept_backpressure = nullptr;
  obs::Counter* wire_frames = nullptr;       ///< serve_wire_frames_total
  obs::Histogram* wire_batch_records = nullptr;
  obs::Histogram* quiesce_wait_ns = nullptr;  ///< serve_quiesce_wait_ns
  /// serve_wire_malformed_frames_total{reason=...}, indexed by
  /// FrameErrorKind — the vocabulary is fixed and pre-registered.
  std::array<obs::Counter*, kFrameErrorKindCount> wire_malformed{};

  /// serve_http_requests_total{route,status}; statuses appear lazily, the
  /// route vocabulary is fixed (serve::Route).
  obs::Counter& http_requests(const std::string& route, int status) {
    return obs::registry().counter(
        "serve_http_requests_total",
        "Control-plane requests served, by route and response status",
        {{"route", route}, {"status", std::to_string(status)}});
  }
};

/// One event-loop thread's private world: the connections it accepted
/// (its ConnLoop, with this reactor as the handler), its engine producer
/// handle, and its serve_reactor_* metric handles. Nothing here is ever
/// touched by another reactor.
struct Server::Reactor final : ConnHandler {
  Server& server;
  std::size_t index = 0;
  ConnLoop loop;
  stream::StreamEngine::Producer producer;
  /// The well-formed records of the text read being handled, applied as
  /// one batch when the read ends (on_read_end).
  std::vector<stream::Event> text_batch;
  /// Reusable scratch: the non-replayed slice of a batch, handed to the
  /// engine in one stage_batch call.
  std::vector<stream::Event> fresh;

  obs::Counter* m_events = nullptr;       ///< serve_reactor_events_total
  obs::Counter* m_stalls = nullptr;       ///< serve_reactor_stalls_total
  obs::Histogram* m_loop_ns = nullptr;    ///< serve_reactor_loop_ns
  std::uint64_t stalls_synced = 0;  ///< producer stalls already mirrored

  Reactor(Server& s, std::size_t i)
      : server(s),
        index(i),
        loop(*this,
             {s.config_.max_connections, s.config_.idle_timeout_s,
              s.config_.max_line_bytes},
             s.conns_, &s.crash_pending_),
        producer(*s.engine_) {}

  void on_line(std::string_view text, bool truncated) override {
    server.process_ingest_line(*this, text, truncated);
  }
  void on_read_end() override {
    server.apply_batch(*this, text_batch);
    text_batch.clear();
  }
  void on_frame(BinaryFrameDecoder::Frame& frame) override {
    server.process_ingest_frame(*this, frame);
  }
  void on_frame_error(const FrameError& error) override {
    server.process_frame_error(error);
  }
  HttpReply on_request(const HttpRequest& request) override {
    return server.route_request(*this, request);
  }
  void on_answered(std::string_view route, int status) override {
    server.http_requests_.fetch_add(1, std::memory_order_relaxed);
    if (server.metrics_) {
      server.metrics_->http_requests(std::string(route), status).inc();
    }
  }
  /// The leader's drain check reads the shared ingest count after its own
  /// step; a reap elsewhere wakes it so the check runs now. Each ingest
  /// connection is reaped once, after its decrement, so no wake is lost.
  void on_ingest_reaped() override {
    if (index != 0) server.reactors_[0]->loop.wake();
  }
};

Server::Server(ServeConfig config) : config_(std::move(config)) {
  config_.reactors = core::resolve_threads(config_.reactors);
  // Distinct across processes (pid) and across Servers within one process
  // (counter) — in-process cluster tests restart "backends" without
  // forking, and a restart must present a new instance.
  static std::atomic<std::uint64_t> instance_counter{0};
  instance_id_ =
      std::to_string(static_cast<std::uint64_t>(::getpid())) + "." +
      std::to_string(instance_counter.fetch_add(1, std::memory_order_relaxed));
  quarantine_.emplace(config_.quarantine);
  // A network feed is never trusted: the quarantine path is always on, so
  // malformed payloads degrade to dead letters instead of poisoning the
  // engine (ISSUE: "typed rejection into the quarantine path").
  config_.engine.quarantine = &*quarantine_;
  if (!config_.model_path.empty()) {
    model_.emplace(score::load_model(config_.model_path));
    config_.engine.model = &*model_;
  }
  engine_.emplace(config_.engine);
  reactors_.reserve(config_.reactors);
  for (std::size_t i = 0; i < config_.reactors; ++i) {
    reactors_.push_back(std::make_unique<Reactor>(*this, i));
  }
  if (config_.metrics) register_metrics();
}

Server::~Server() = default;

void Server::register_metrics() {
  obs::Registry& r = obs::registry();
  metrics_ = std::make_unique<Metrics>();
  Metrics& m = *metrics_;
  for (const bool http : {false, true}) {
    const obs::Labels kind{{"kind", http ? "http" : "ingest"}};
    m.conn.accepted[http] = &r.counter(
        "serve_connections_total", "Connections accepted, by listener kind",
        kind);
    m.conn.active[http] = &r.gauge(
        "serve_connections_active",
        "Currently open connections, by listener kind", kind);
    m.conn.bytes_read[http] = &r.counter(
        "serve_bytes_read_total",
        "Bytes received from clients, by listener kind", kind);
    m.conn.bytes_written[http] = &r.counter(
        "serve_bytes_written_total", "Bytes sent to clients, by listener kind",
        kind);
  }
  static constexpr std::string_view kRecordHelp =
      "Ingest records, by outcome: applied to the engine, replayed "
      "(checkpoint-covered prefix after a resume), malformed "
      "(dead-lettered)";
  m.records_applied = &r.counter("serve_ingest_records_total", kRecordHelp,
                                 {{"result", "applied"}});
  m.records_replayed = &r.counter("serve_ingest_records_total", kRecordHelp,
                                  {{"result", "replayed"}});
  m.records_malformed = &r.counter("serve_ingest_records_total", kRecordHelp,
                                   {{"result", "malformed"}});
  m.ingest_lag = &r.gauge(
      "serve_ingest_lag_events",
      "Events accepted by the server but not yet processed by the engine "
      "workers (in-flight depth)");
  m.conn.idle_timeouts = &r.counter(
      "serve_idle_timeouts_total",
      "Connections closed by the idle sweep");
  m.accept_backpressure = &r.counter(
      "serve_accept_backpressure_total",
      "Times the listeners left the poll set because the connection cap "
      "was reached (new clients wait in the kernel backlog)");
  m.wire_frames = &r.counter(
      "serve_wire_frames_total",
      "Binary wire frames decoded and applied to the ingest path");
  for (const bool binary : {false, true}) {
    m.conn.wire_bytes[binary] = &r.counter(
        "serve_wire_bytes_total",
        "Ingest bytes received, by negotiated wire format",
        {{"format", binary ? "binary" : "text"}});
  }
  m.wire_batch_records = &r.histogram(
      "serve_wire_batch_records",
      "Records per decoded binary frame (columnar batch size)");
  m.quiesce_wait_ns = &r.histogram(
      "serve_quiesce_wait_ns",
      "Pause-gate rendezvous: time from raising the gate until every other "
      "running reactor has parked (nanoseconds; only with 2+ reactors)");
  // Pre-register every frame rejection reason, mirroring the quarantine
  // counters: absence means "no binary ingest", not "no rejects".
  for (std::size_t i = 0; i < kFrameErrorKindCount; ++i) {
    m.wire_malformed[i] = &r.counter(
        "serve_wire_malformed_frames_total",
        "Binary wire frames rejected and dead-lettered, by reason",
        {{"reason",
          std::string(to_string(static_cast<FrameErrorKind>(i)))}});
  }
  // Pre-register the fixed route vocabulary with the success status, so a
  // scrape (and the obs-docs test) sees the family before any request.
  // Unknown targets collapse into "other", so hostile clients cannot mint
  // unbounded label values.
  for (std::size_t i = 0; i < kRouteCount; ++i) {
    const auto route = static_cast<Route>(i);
    if (route != Route::kBackends) {
      m.http_requests(std::string(route_label(route)), 200);
    }
  }
  // Per-reactor families, registered for every reactor up front so a
  // scrape always sees the full {reactor="0".."N-1"} vocabulary.
  for (auto& reactor : reactors_) {
    const obs::Labels label{{"reactor", std::to_string(reactor->index)}};
    reactor->m_events = &r.counter(
        "serve_reactor_events_total",
        "Well-formed wire records decoded, per reactor thread", label);
    reactor->loop.metrics = m.conn;
    reactor->loop.metrics.accepted_here = &r.counter(
        "serve_reactor_connections_total",
        "Connections accepted, per reactor thread", label);
    reactor->m_stalls = &r.counter(
        "serve_reactor_stalls_total",
        "Times this reactor's engine producer found a shard mailbox full "
        "and had to wait (engine backpressure, per reactor)", label);
    reactor->m_loop_ns = &r.histogram(
        "serve_reactor_loop_ns",
        "One event-loop iteration's service time after poll() returns "
        "(nanoseconds), per reactor", label);
  }
}

void Server::start() {
  if (started_) throw std::logic_error("Server::start called twice");
  if (config_.resume && !config_.checkpoint_dir.empty()) {
    restore_from_checkpoint();
  }
  ingest_listener_ = tcp_listen(config_.host, config_.ingest_port);
  ingest_port_ = local_port(ingest_listener_.get());
  http_listener_ = tcp_listen(config_.host, config_.http_port);
  http_port_ = local_port(http_listener_.get());
  started_ = true;
}

void Server::restore_from_checkpoint() {
  const auto restored = stream::restore_latest(config_.checkpoint_dir);
  if (!restored) return;
  // Serve payload: per-user accepted-record coverage, then the engine
  // payload as an opaque blob.
  stream::SnapshotReader r(restored->payload);
  const std::uint64_t users = r.u64();
  for (std::uint64_t i = 0; i < users; ++i) {
    const trace::UserId id = r.u32();
    const std::uint64_t count = r.u64();
    if (count == 0 || !resumed_.emplace(id, count).second) {
      throw stream::SnapshotError(
          "snapshot: malformed serve coverage table");
    }
  }
  const std::string engine_payload = r.blob();
  if (!r.exhausted()) {
    throw stream::SnapshotError(
        "snapshot: trailing bytes after serve state");
  }
  engine_->load_state(engine_payload);
  cursor_.store(restored->cursor, std::memory_order_relaxed);
  restored_cursor_ = restored->cursor;
}

std::uint64_t Server::resumed_count(trace::UserId user) const {
  const auto it = resumed_.find(user);
  return it == resumed_.end() ? 0 : it->second;
}

std::uint64_t Server::arrive(trace::UserId user) {
  // Same splitmix64 multiplier the engine shards with; the top bits keep
  // sequential ids from piling onto one stripe.
  const std::size_t stripe = static_cast<std::size_t>(
      (static_cast<std::uint64_t>(user) * 0x9E3779B97F4A7C15ULL) >> 58);
  CoverageStripe& s = arrived_[stripe % kCoverageStripes];
  std::lock_guard<std::mutex> lock(s.mu);
  return ++s.counts[user];
}

std::filesystem::path Server::write_checkpoint_now() {
  // Coverage per user: everything arrived this lifetime, or restored from
  // the previous one — whichever is further (a user may not have re-sent
  // its full prefix yet when a checkpoint fires mid-replay). The stripe
  // locks make the snapshot consistent against record arrivals, though
  // run_quiesced has already parked every other reactor anyway.
  std::vector<std::pair<trace::UserId, std::uint64_t>> coverage;
  for (CoverageStripe& stripe : arrived_) {
    std::lock_guard<std::mutex> lock(stripe.mu);
    coverage.insert(coverage.end(), stripe.counts.begin(),
                    stripe.counts.end());
  }
  for (const auto& [id, count] : resumed_) {
    bool merged = false;
    for (auto& [cid, ccount] : coverage) {
      if (cid == id) {
        ccount = std::max(ccount, count);
        merged = true;
        break;
      }
    }
    if (!merged) coverage.emplace_back(id, count);
  }
  std::sort(coverage.begin(), coverage.end());

  stream::SnapshotWriter w;
  w.u64(coverage.size());
  for (const auto& [id, count] : coverage) {
    w.u32(id);
    w.u64(count);
  }
  w.blob(engine_->save_state());  // drains; quarantine flushed with it
  return stream::write_checkpoint(
      config_.checkpoint_dir,
      {cursor_.load(std::memory_order_relaxed), w.take()});
}

void Server::process_ingest_line(Reactor& r, std::string_view text,
                                 bool truncated) {
  if (!truncated && text.empty()) return;  // blank keepalive line
  // A truncated line is dead-lettered unparsed.
  const WireResult result =
      truncated ? WireResult{WireError{}} : parse_wire_record(text);
  if (std::holds_alternative<WireError>(result)) {
    records_malformed_.fetch_add(1, std::memory_order_relaxed);
    if (metrics_) metrics_->records_malformed->inc();
    quarantine_->record_raw(text, stream::QuarantineReason::kMalformedLine);
    return;
  }
  r.text_batch.push_back(std::get<stream::Event>(result));
  // The crash hook lands exactly on its record: the loop stops reading at
  // once, and the read's batch applies up to and including this line.
  if (config_.crash_after_records != 0 &&
      records_parsed_.load(std::memory_order_relaxed) + r.text_batch.size() >=
          config_.crash_after_records) {
    crash_pending_.store(true, std::memory_order_relaxed);
  }
}

void Server::process_ingest_frame(Reactor& r,
                                  BinaryFrameDecoder::Frame& frame) {
  if (metrics_) {
    metrics_->wire_frames->inc();
    metrics_->wire_batch_records->observe(frame.events.size());
  }
  apply_batch(r, frame.events);
}

void Server::apply_batch(Reactor& r, std::span<const stream::Event> events) {
  if (events.empty()) return;
  const std::uint64_t count = events.size();
  const std::uint64_t parsed =
      records_parsed_.fetch_add(count, std::memory_order_relaxed) + count;
  if (r.m_events != nullptr) r.m_events->inc(count);

  // Coverage first, record by record: checkpoint-covered records re-sent
  // after a resume are skipped, because the engine state already includes
  // them. That skip turns the clients' at-least-once redelivery into
  // exactly-once application.
  r.fresh.clear();
  for (const stream::Event& e : events) {
    if (arrive(e.user) > resumed_count(e.user)) r.fresh.push_back(e);
  }
  const std::uint64_t applied = r.fresh.size();
  if (applied < count) {
    records_replayed_.fetch_add(count - applied, std::memory_order_relaxed);
    if (metrics_) metrics_->records_replayed->inc(count - applied);
  }
  if (applied > 0) {
    // stage_batch may block on engine backpressure — that is the design:
    // TCP receive buffers fill and the feed slows to what the shards
    // sustain.
    routed_.fetch_add(r.producer.stage_batch(r.fresh),
                      std::memory_order_relaxed);
    cursor_.fetch_add(applied, std::memory_order_relaxed);
    records_since_checkpoint_.fetch_add(applied, std::memory_order_relaxed);
    records_applied_.fetch_add(applied, std::memory_order_relaxed);
    if (metrics_) metrics_->records_applied->inc(applied);
  }
  if (config_.crash_after_records != 0 &&
      parsed >= config_.crash_after_records) {
    crash_pending_.store(true, std::memory_order_relaxed);
  }
}

void Server::process_frame_error(const FrameError& error) {
  // One rejected frame counts as one malformed ingest record (its claimed
  // record count is exactly what cannot be trusted).
  records_malformed_.fetch_add(1, std::memory_order_relaxed);
  if (metrics_) {
    metrics_->records_malformed->inc();
    metrics_->wire_malformed[static_cast<std::size_t>(error.kind)]->inc();
  }
  // The detail is already printable (reason + byte count + hex prefix) —
  // raw frame bytes never reach the dead-letter CSV.
  quarantine_->record_raw(error.detail,
                          stream::QuarantineReason::kMalformedFrame);
}

HttpReply Server::route_request(Reactor& r, const HttpRequest& req) {
  const auto [route, param] = match_route(req.target, /*backends=*/false);
  HttpReply reply = route_reply(route, req.method);
  if (reply.status != 200) return reply;
  const auto fail = [&reply](int status, const char* body) {
    reply.status = status;
    reply.body = body;
  };
  // The queries drain the engine, which requires the single-producer
  // window of the pause gate. When the crash hook fires during the
  // rendezvous the connection dies with the daemon.
  const auto quiesced = [&](const std::function<void()>& op) {
    if (run_quiesced(r, op)) return true;
    fail(503, "{\"error\":\"shutting down\"}");
    return false;
  };

  switch (route) {
    case Route::kHealthz:
      reply.content_type = "text/plain";
      reply.body = "ok\n";
      break;
    case Route::kReadyz:
      // Readiness, as distinct from /healthz liveness: a draining daemon
      // is alive but must not receive new traffic, which is what a router
      // or orchestrator keys on. The other not-ready phase — checkpoint
      // restore — runs synchronously in start() before the listeners bind,
      // so it is correctly reported by connection refusal. The instance
      // header travels on both outcomes so a router probe can learn the
      // nonce even while the daemon drains.
      reply.headers.emplace_back("Geovalid-Instance", instance_id_);
      if (drain_requested_.load(std::memory_order_relaxed)) {
        fail(503, "{\"error\":\"draining\"}");
      } else {
        reply.content_type = "text/plain";
        reply.body = "ready\n";
      }
      break;
    case Route::kMetrics:
      update_lag_gauge();
      reply.content_type = std::string(obs::kPrometheusContentType);
      reply.body = obs::to_prometheus(obs::registry());
      break;
    case Route::kSummary:
      quiesced([&] { reply.body = summary_json(); });
      break;
    case Route::kVerdicts: {
      const auto id = parse_decimal<trace::UserId>(param);
      std::optional<stream::UserVerdicts> verdicts;
      if (!id) {
        fail(400, "{\"error\":\"bad user id\"}");
      } else if (quiesced([&] { verdicts = engine_->user_verdicts(*id); })) {
        if (verdicts) {
          reply.body = user_verdicts_json(*verdicts);
        } else {
          fail(404, "{\"error\":\"unknown user\"}");
        }
      }
      break;
    }
    case Route::kScore: {
      const auto id = parse_decimal<trace::UserId>(param);
      std::optional<score::UserScoreSnapshot> snap;
      if (!engine_->scoring_enabled()) {
        fail(409, "{\"error\":\"serving without a model\"}");
      } else if (!id) {
        fail(400, "{\"error\":\"bad user id\"}");
      } else if (quiesced([&] { snap = engine_->user_score(*id); })) {
        if (!snap) {
          fail(404, "{\"error\":\"unknown user\"}");
          break;
        }
        reply.body = "{\"user\":" + std::to_string(*id) + ",\"score\":";
        append_json_number(reply.body, snap->score);
        reply.body += ",\"live_score\":";
        append_json_number(reply.body, snap->live_score);
        reply.body += ",\"checkins\":";
        append_json_number(reply.body, snap->checkins);
        reply.body += "}";
      }
      break;
    }
    case Route::kSuspects: {
      const auto k = parse_decimal<std::size_t>(param);
      std::vector<score::SuspectEntry> suspects;
      if (!engine_->scoring_enabled()) {
        fail(409, "{\"error\":\"serving without a model\"}");
      } else if (!k) {
        fail(400, "{\"error\":\"bad k\"}");
      } else if (quiesced([&] { suspects = engine_->top_suspects(*k); })) {
        reply.body = "{\"k\":" + std::to_string(*k) + ",\"suspects\":[";
        for (std::size_t i = 0; i < suspects.size(); ++i) {
          if (i > 0) reply.body += ",";
          reply.body += "{\"user\":" + std::to_string(suspects[i].user) +
                        ",\"score\":";
          append_json_number(reply.body, suspects[i].score);
          reply.body += ",\"checkins\":";
          append_json_number(reply.body, suspects[i].checkins);
          reply.body += "}";
        }
        reply.body += "]}";
      }
      break;
    }
    case Route::kCheckpoint: {
      std::filesystem::path path;
      if (config_.checkpoint_dir.empty()) {
        fail(409, "{\"error\":\"serving without a checkpoint directory\"}");
      } else if (quiesced([&] { path = write_checkpoint_now(); })) {
        records_since_checkpoint_.store(0, std::memory_order_relaxed);
        reply.body = "{\"cursor\":" +
                     std::to_string(cursor_.load(std::memory_order_relaxed)) +
                     ",\"path\":\"" + path.string() + "\"}";
      }
      break;
    }
    case Route::kDrain:
      if (drain_done_.load(std::memory_order_relaxed)) {
        // A drain already completed; answer straight away (the loop is
        // about to exit).
        reply.body =
            "{\"status\":\"drained\",\"cursor\":" +
            std::to_string(cursor_.load(std::memory_order_relaxed)) + "}";
      } else {
        // Deferred response: every reactor stops accepting ingest,
        // finishes reading its connected streams to EOF, then reactor 0
        // quiesces all reactors, drains the engine, writes a final
        // checkpoint and only then answers — so a 200 here means "all
        // records you sent are in the verdicts". The loop exits once the
        // answer is flushed.
        drain_requested_.store(true, std::memory_order_relaxed);
        reply.await_drain = true;
      }
      break;
    case Route::kBackends:
    case Route::kOther:
      break;  // unmatched: route_reply already answered 404
  }
  return reply;
}

void Server::park_if_paused(Reactor& r) {
  if (!pause_flag_.load(std::memory_order_acquire)) return;
  // Hand every staged event to the shard mailboxes before reporting
  // parked: once reactor 0 proceeds, the engine must see a complete,
  // single-producer view of everything this reactor has read.
  r.producer.flush();
  std::unique_lock<std::mutex> lock(gate_mu_);
  if (!pause_requested_) return;  // raced with the release
  ++parked_;
  gate_cv_.notify_all();
  gate_cv_.wait(lock, [&] { return !pause_requested_; });
  --parked_;
}

bool Server::run_quiesced(Reactor& r0, const std::function<void()>& op) {
  if (reactors_.size() > 1) {
    const Clock::time_point raised = Clock::now();
    pause_flag_.store(true, std::memory_order_release);
    std::unique_lock<std::mutex> lock(gate_mu_);
    pause_requested_ = true;
    // Reactors park at their loop top; the wake cuts their poll() short,
    // so the rendezvous costs one loop iteration, not a poll tick. Exiting
    // reactors decrement running_others_ under gate_mu_, so the wait also
    // unblocks when a reactor leaves instead of parking.
    wake_others();
    gate_cv_.wait(lock, [&] { return parked_ >= running_others_; });
    if (metrics_) metrics_->quiesce_wait_ns->observe(ns_since(raised));
  }
  r0.producer.flush();
  if (crash_pending_.load(std::memory_order_relaxed)) {
    // A reactor took the simulated SIGKILL while we gathered the
    // rendezvous: it exited without flushing, so the arrived-coverage
    // table now overstates what the engine holds. Running the operation
    // (a checkpoint, a finalize, a query drain) would persist or serve
    // that inconsistent view — bail out and let the crash teardown run.
    // (The running_others_ decrement happens under gate_mu_ after the
    // crash flag is set, so the wait above cannot miss this store.)
    release_gate();
    return false;
  }
  try {
    op();
  } catch (...) {
    release_gate();
    throw;
  }
  release_gate();
  return true;
}

void Server::release_gate() {
  if (reactors_.size() <= 1) return;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    pause_requested_ = false;
  }
  pause_flag_.store(false, std::memory_order_release);
  gate_cv_.notify_all();
}

void Server::wake_others() {
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    reactors_[i]->loop.wake();
  }
}

void Server::update_lag_gauge() {
  if (!metrics_) return;
  const std::uint64_t routed = routed_.load(std::memory_order_relaxed);
  const std::uint64_t processed = engine_->events_processed();
  metrics_->ingest_lag->set(static_cast<std::int64_t>(
      routed > processed ? routed - processed : 0));
}

std::string Server::summary_json() {
  // drain() inside all_user_verdicts() makes every number exact for the
  // records applied so far — the serve analogue of finish()-then-report.
  // Caller must hold the pause gate (run_quiesced).
  const std::vector<stream::UserVerdicts> users =
      engine_->all_user_verdicts();
  const match::Partition totals = engine_->partition();

  std::uint64_t users_with_checkins = 0;
  double ratio_sum = 0.0;
  std::uint64_t users_with_gaps = 0;
  double burstiness_sum = 0.0;
  for (const stream::UserVerdicts& v : users) {
    if (v.partition.checkins > 0) {
      ++users_with_checkins;
      ratio_sum += v.extraneous_ratio();
    }
    if (v.gap_count > 0) {
      ++users_with_gaps;
      burstiness_sum += v.burstiness();
    }
  }

  std::string out = "{\"users\":";
  append_json_number(out, static_cast<std::uint64_t>(users.size()));
  out += ",\"events_processed\":";
  append_json_number(out,
                     static_cast<std::uint64_t>(engine_->events_processed()));
  out += ",\"records_parsed\":";
  append_json_number(out,
                     records_parsed_.load(std::memory_order_relaxed));
  out += ",\"cursor\":";
  append_json_number(out, cursor_.load(std::memory_order_relaxed));
  out += ",\"partition\":";
  append_partition_json(out, totals);
  out += ",\"prevalence\":{\"users_with_checkins\":";
  append_json_number(out, users_with_checkins);
  out += ",\"mean_extraneous_ratio\":";
  append_json_number(out, users_with_checkins == 0
                              ? 0.0
                              : ratio_sum / static_cast<double>(
                                                users_with_checkins));
  out += "},\"burstiness\":{\"users_with_gaps\":";
  append_json_number(out, users_with_gaps);
  out += ",\"mean\":";
  append_json_number(
      out, users_with_gaps == 0
               ? 0.0
               : burstiness_sum / static_cast<double>(users_with_gaps));
  out += "},\"quarantined\":";
  append_json_number(out, quarantine_->total());
  out += "}";
  return out;
}

void Server::reactor_loop(Reactor& r, const std::atomic<bool>* stop,
                          bool* stopped_out) {
  const bool leader = (r.index == 0);
  while (true) {
    if (stop_all_.load(std::memory_order_relaxed)) break;
    if (crash_pending_.load(std::memory_order_relaxed)) break;
    if (leader) {
      if (stop != nullptr && stop->load(std::memory_order_relaxed)) {
        if (stopped_out != nullptr) *stopped_out = true;
        break;
      }
      // Leave once every drain caller has its answer (or is gone).
      if (drain_done_.load(std::memory_order_relaxed) && !r.loop.answering()) {
        break;
      }
    } else {
      // Non-zero reactors have no HTTP conns; once the drain completed
      // their remaining work is zero (all ingest conns hit EOF before the
      // drain could finish).
      if (drain_done_.load(std::memory_order_relaxed) && r.loop.size() == 0) {
        break;
      }
      park_if_paused(r);
    }

    if (leader) {
      const bool at_cap = r.loop.at_cap();
      if (at_cap && !was_at_cap_ && metrics_) {
        metrics_->accept_backpressure->inc();
      }
      was_at_cap_ = at_cap;
    }
    // Shared accept: every reactor polls the one ingest listener. The
    // control plane is pinned to reactor 0, and only the ingest listener
    // leaves the poll sets on drain: probes must see /readyz flip to 503
    // and a fronting router can keep fanning out admin calls.
    const Clock::time_point iteration_start = r.loop.step(
        drain_requested_.load(std::memory_order_relaxed)
            ? -1
            : ingest_listener_.get(),
        leader ? http_listener_.get() : -1);

    // Drain completion (leader only): every ingest stream everywhere has
    // been read to EOF and reaped (clients either closed or were
    // idle-swept), so the record set is final — park all reactors, flush
    // every producer, quiesce the engine, persist, finalize, and answer
    // the waiting caller(s).
    if (leader && drain_requested_.load(std::memory_order_relaxed) &&
        !drain_done_.load(std::memory_order_relaxed) &&
        conns_.ingest.load(std::memory_order_relaxed) == 0) {
      // Checkpoint first (resumable, pre-finalization state), then
      // finish(): finalization resolves the matcher's pending tail exactly
      // like end-of-stream in the batch pipeline, so the partition and the
      // per-user verdicts served after a drain equal a batch run bit for
      // bit.
      const bool finalized = run_quiesced(r, [&] {
        if (!config_.checkpoint_dir.empty()) {
          write_checkpoint_now();
          records_since_checkpoint_.store(0, std::memory_order_relaxed);
        }
        engine_->finish();
      });
      if (finalized) {
        drain_done_.store(true, std::memory_order_release);
        wake_others();  // their exit check is at the loop top
        r.loop.answer_drain_waiters(
            200, "{\"status\":\"drained\",\"cursor\":" +
                     std::to_string(cursor_.load(std::memory_order_relaxed)) +
                     "}");
      }  // else: the crash hook fired mid-drain; the loop top exits next.
    }

    if (leader && !config_.checkpoint_dir.empty() &&
        config_.checkpoint_interval_records != 0 &&
        records_since_checkpoint_.load(std::memory_order_relaxed) >=
            config_.checkpoint_interval_records) {
      if (run_quiesced(r, [&] { write_checkpoint_now(); })) {
        records_since_checkpoint_.store(0, std::memory_order_relaxed);
      }
    }

    if (leader) update_lag_gauge();

    // Mirror producer stalls into the per-reactor counter and sample the
    // iteration's service time (poll wait excluded).
    if (r.m_stalls != nullptr) {
      const std::uint64_t stalls = r.producer.stalls();
      if (stalls > r.stalls_synced) {
        r.m_stalls->inc(stalls - r.stalls_synced);
        r.stalls_synced = stalls;
      }
    }
    if (r.m_loop_ns != nullptr) {
      r.m_loop_ns->observe(ns_since(iteration_start));
    }
  }

  // Loop exit: on the graceful paths, staged events must reach the engine
  // before the teardown drain/checkpoint. On the crash path everything
  // staged is lost, exactly as a real SIGKILL would lose it. (After a
  // completed drain the staging is already empty — flushed at the
  // rendezvous before finish().)
  if (!crash_pending_.load(std::memory_order_relaxed)) {
    r.producer.flush();
  }
}

ServeStats Server::run(const std::atomic<bool>* stop) {
  if (!started_) throw std::logic_error("Server::run before start()");

  bool stopped = false;
  {
    std::lock_guard<std::mutex> lock(gate_mu_);
    running_others_ = reactors_.size() - 1;
    parked_ = 0;
  }
  std::vector<std::thread> threads;
  threads.reserve(reactors_.size() - 1);
  for (std::size_t i = 1; i < reactors_.size(); ++i) {
    threads.emplace_back([this, i] {
      try {
        reactor_loop(*reactors_[i], nullptr, nullptr);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mu_);
          if (!reactor_error_) reactor_error_ = std::current_exception();
        }
        // A dead reactor cannot keep its conns or staging honest; treat
        // it as a crash so teardown abandons instead of checkpointing a
        // partial view.
        crash_pending_.store(true, std::memory_order_relaxed);
      }
      {
        std::lock_guard<std::mutex> lock(gate_mu_);
        --running_others_;
      }
      gate_cv_.notify_all();
    });
  }

  try {
    reactor_loop(*reactors_[0], stop, &stopped);
  } catch (...) {
    std::lock_guard<std::mutex> lock(error_mu_);
    if (!reactor_error_) reactor_error_ = std::current_exception();
    crash_pending_.store(true, std::memory_order_relaxed);
  }
  stop_all_.store(true, std::memory_order_relaxed);
  wake_others();
  for (std::thread& t : threads) t.join();

  // Teardown. Crash simulation abandons everything in flight (recovery
  // must come from the last periodic checkpoint, as after a real SIGKILL);
  // the graceful paths quiesce and persist. All reactor threads are
  // joined, so the engine is single-producer again from here on.
  ingest_listener_.reset();
  http_listener_.reset();
  for (auto& reactor : reactors_) reactor->loop.close_all();
  if (crash_pending_.load(std::memory_order_relaxed)) {
    engine_->shutdown();
    stats_.exit = ServeExit::kCrashed;
  } else if (drain_done_.load(std::memory_order_relaxed)) {
    // Already checkpointed and finalized in the drain-completion step.
    stats_.exit = ServeExit::kDrained;
  } else {
    engine_->drain();
    if (!config_.checkpoint_dir.empty()) write_checkpoint_now();
    stats_.exit = stopped ? ServeExit::kStopped : ServeExit::kDrained;
  }
  stats_.records_parsed = records_parsed_.load(std::memory_order_relaxed);
  stats_.records_applied = records_applied_.load(std::memory_order_relaxed);
  stats_.records_replayed =
      records_replayed_.load(std::memory_order_relaxed);
  stats_.records_malformed =
      records_malformed_.load(std::memory_order_relaxed);
  stats_.http_requests = http_requests_.load(std::memory_order_relaxed);
  stats_.connections = conns_.accepted.load(std::memory_order_relaxed);
  stats_.cursor = cursor_.load(std::memory_order_relaxed);
  stats_.restored_cursor = restored_cursor_;

  // A reactor-thread failure is a runtime error, not a clean exit: report
  // it exactly like the single-threaded loop reported a poll failure.
  std::exception_ptr error;
  {
    std::lock_guard<std::mutex> lock(error_mu_);
    error = reactor_error_;
  }
  if (error) std::rethrow_exception(error);
  return stats_;
}

}  // namespace geovalid::serve
