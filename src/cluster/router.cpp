#include "cluster/router.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "cluster/aggregate.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "serve/http.h"

namespace geovalid::cluster {
namespace {

using serve::HttpRequest;
using serve::NetError;

/// Opportunistic flush threshold: a forwarder buffer past this tries the
/// socket immediately instead of waiting for the next POLLOUT round.
constexpr std::size_t kFlushChunkBytes = 64 * 1024;

/// Sanity cap on a /readyz probe response; anything bigger is a protocol
/// violation, not a slow header.
constexpr std::size_t kMaxProbeResponseBytes = 64 * 1024;

/// Seconds-to-ms for the config's double-valued deadlines, clamped so a
/// tiny-but-positive value still polls.
int to_ms(double seconds) {
  return std::max(1, static_cast<int>(seconds * 1000.0));
}

/// Routing key: verb + user id, the first two wire fields. Everything
/// after the second comma is the backend's business — this is the only
/// parsing the router does per record.
std::optional<trace::UserId> route_key(std::string_view line) {
  std::string_view rest;
  if (line.rfind("gps,", 0) == 0) {
    rest = line.substr(4);
  } else if (line.rfind("checkin,", 0) == 0) {
    rest = line.substr(8);
  } else {
    return std::nullopt;
  }
  const std::size_t comma = rest.find(',');
  if (comma == 0 || comma == std::string_view::npos) return std::nullopt;
  trace::UserId id = 0;
  const char* begin = rest.data();
  const auto [ptr, ec] = std::from_chars(begin, begin + comma, id);
  if (ec != std::errc{} || ptr != begin + comma) return std::nullopt;
  return id;
}

void append_json_string_array(std::string& out,
                              const std::vector<std::string>& items) {
  out += '[';
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += items[i];
    out += '"';
  }
  out += ']';
}

/// A control-plane error answer: `code` with {"error":"<message>"}.
void set_error(int& status, std::string& body, int code,
               std::string_view message) {
  status = code;
  body = "{\"error\":\"" + std::string(message) + "\"}";
}

/// A failed fan-out: 502 naming the failed backends.
void set_fan_out_error(int& status, std::string& body, std::string_view what,
                       const std::vector<std::string>& failed) {
  status = 502;
  body = "{\"error\":\"" + std::string(what) +
         " fan-out failed\",\"failed\":";
  append_json_string_array(body, failed);
  body += '}';
}

/// One row of a backend's /v1/suspects answer, kept textual.
struct SuspectToken {
  trace::UserId user = 0;
  double score_value = 0.0;   ///< parsed copy, ordering only
  std::string score_text;     ///< verbatim backend token
  std::string checkins_text;  ///< verbatim backend token
};

/// Pulls the suspect rows out of one backend body
/// ({"k":K,"suspects":[{"user":U,"score":S,"checkins":C},...]}). Rows
/// that fail to parse are dropped — a malformed backend degrades the
/// merge, it does not poison it.
void extract_suspects(std::string_view body,
                      std::vector<SuspectToken>& out) {
  std::size_t p = body.find("\"suspects\":[");
  if (p == std::string_view::npos) return;
  p += 12;
  while (p < body.size() && body[p] != ']') {
    const std::size_t open = body.find('{', p);
    if (open == std::string_view::npos) return;
    const std::size_t close = body.find('}', open);
    if (close == std::string_view::npos) return;
    p = close + 1;
    std::vector<JsonLeaf> row;
    try {
      row = flatten_json(body.substr(open, close - open + 1));
    } catch (const std::invalid_argument&) {
      continue;
    }
    const auto number = [&row](std::string_view key) -> const JsonLeaf* {
      for (const JsonLeaf& leaf : row) {
        if (leaf.path == key && leaf.number) return &leaf;
      }
      return nullptr;
    };
    const JsonLeaf* user = number("user");
    const JsonLeaf* score = number("score");
    const JsonLeaf* checkins = number("checkins");
    if (user == nullptr || score == nullptr || checkins == nullptr) continue;
    const auto id = serve::parse_decimal<trace::UserId>(user->text);
    if (!id) continue;
    out.push_back({*id, *score->number, score->text, checkins->text});
  }
}

}  // namespace

/// Cached cluster_* metric handles; per-backend vectors are ring-ordered
/// and stay valid across replace() because labels key on the stable name.
struct Router::Metrics {
  obs::Gauge* backends = nullptr;
  std::vector<obs::Gauge*> up;
  std::vector<obs::Gauge*> state;
  std::vector<obs::Gauge*> buffered;
  std::vector<obs::Gauge*> spool_bytes;
  std::vector<obs::Gauge*> spool_records;
  std::vector<obs::Gauge*> spool_age;
  std::vector<obs::Counter*> fwd_records;
  std::vector<obs::Counter*> fwd_dropped;
  std::vector<obs::Counter*> superseded;
  std::vector<obs::Counter*> reconnects;
  std::vector<obs::Counter*> probe_failures;
  std::vector<obs::Counter*> backend_errors;
  std::vector<std::uint64_t> dropped_seen;     ///< reconcile watermark
  std::vector<std::uint64_t> superseded_seen;  ///< reconcile watermark
  std::vector<std::uint64_t> reconnects_seen;  ///< reconcile watermark
  obs::Counter* rec_forwarded = nullptr;
  obs::Counter* rec_replayed = nullptr;
  obs::Counter* rec_malformed = nullptr;
  obs::Counter* pauses = nullptr;
  obs::Histogram* loop_ns = nullptr;

  obs::Counter& http_requests(const std::string& route, int status) {
    return obs::registry().counter(
        "cluster_http_requests_total",
        "Router control-plane requests, by route and response status",
        {{"route", route}, {"status", std::to_string(status)}});
  }
};

Router::Router(RouteConfig config)
    : config_(std::move(config)),
      ring_(RingConfig{config_.vnodes}),
      loop_(*this,
            {config_.max_connections, config_.idle_timeout_s,
             config_.max_line_bytes},
            counts_) {
  if (config_.backends.empty()) {
    throw std::invalid_argument("Router: at least one backend is required");
  }
  for (BackendAddr& b : config_.backends) {
    if (b.name.empty()) {
      b.name = b.host + ":" + std::to_string(b.ingest_port);
    }
    ring_.add_backend(b.name);  // rejects duplicates
    forwarders_.push_back(std::make_unique<Forwarder>(b));
  }
  route_scratch_.resize(forwarders_.size());
  health_.resize(forwarders_.size());
  if (!config_.net_faults.empty()) {
    fault_injector_.emplace(config_.net_faults);
  }
  for (const auto& f : forwarders_) {
    if (fault_injector_) f->set_fault_injector(&*fault_injector_);
    f->set_connect_timeout_ms(to_ms(config_.probe_timeout_s));
  }
  quarantine_.emplace(config_.quarantine);
  if (config_.metrics) register_metrics();
}

Router::~Router() = default;

void Router::register_metrics() {
  obs::Registry& r = obs::registry();
  metrics_ = std::make_unique<Metrics>();
  Metrics& m = *metrics_;
  m.backends = &r.gauge("cluster_backends",
                        "Backends configured on the hash ring");
  m.backends->set(static_cast<std::int64_t>(forwarders_.size()));
  for (const auto& f : forwarders_) {
    const std::string& name = f->addr().name;
    m.up.push_back(&r.gauge(
        "cluster_backend_up",
        "Forwarder connection state per backend (1 up, 0 down)",
        {{"backend", name}}));
    m.state.push_back(&r.gauge(
        "cluster_backend_state",
        "Health state machine per backend (0 down, 1 recovering, "
        "2 suspect, 3 up)",
        {{"backend", name}}));
    m.buffered.push_back(&r.gauge(
        "cluster_backend_buffered_bytes",
        "Bytes queued for a backend, waiting on its ingest socket",
        {{"backend", name}}));
    m.spool_bytes.push_back(&r.gauge(
        "cluster_spool_bytes",
        "Bytes spooled for a backend that is not up",
        {{"backend", name}}));
    m.spool_records.push_back(&r.gauge(
        "cluster_spool_records",
        "Records spooled for a backend that is not up",
        {{"backend", name}}));
    m.spool_age.push_back(&r.gauge(
        "cluster_spool_age_seconds",
        "Age of the oldest spooled entry per backend (0 when empty)",
        {{"backend", name}}));
    m.fwd_records.push_back(&r.counter(
        "cluster_forward_records_total",
        "Records forwarded to each backend", {{"backend", name}}));
    m.fwd_dropped.push_back(&r.counter(
        "cluster_forward_dropped_total",
        "Records lost at deliberate teardown with the backend still "
        "unable to absorb them (the only counted-loss path; spool "
        "overflow backpressures instead)",
        {{"backend", name}}));
    m.superseded.push_back(&r.counter(
        "cluster_spool_superseded_total",
        "Spooled records discarded because a backend restart made the "
        "client re-send authoritative (re-delivered, not lost)",
        {{"backend", name}}));
    m.reconnects.push_back(&r.counter(
        "cluster_reconnects_total",
        "Successful forwarder reconnects after a severed connection",
        {{"backend", name}}));
    m.probe_failures.push_back(&r.counter(
        "cluster_probe_failures_total",
        "Health probes that failed (connect/read deadline, non-200, or "
        "malformed response)",
        {{"backend", name}}));
    m.backend_errors.push_back(&r.counter(
        "cluster_backend_errors_total",
        "Failed control-plane calls to a backend (scrapes, fan-outs, "
        "proxies)",
        {{"backend", name}}));
    m.dropped_seen.push_back(0);
    m.superseded_seen.push_back(0);
    m.reconnects_seen.push_back(0);
  }
  static constexpr std::string_view kRecordHelp =
      "Ingest records seen by the router, by outcome: forwarded to the "
      "owning backend, replayed (epoch-covered prefix of a client "
      "re-send), malformed (no routing key; dead-lettered)";
  m.rec_forwarded = &r.counter("cluster_ingest_records_total", kRecordHelp,
                               {{"result", "forwarded"}});
  m.rec_replayed = &r.counter("cluster_ingest_records_total", kRecordHelp,
                              {{"result", "replayed"}});
  m.rec_malformed = &r.counter("cluster_ingest_records_total", kRecordHelp,
                               {{"result", "malformed"}});
  m.pauses = &r.counter(
      "cluster_backpressure_pauses_total",
      "Times ingest reads were suspended because a backend buffer "
      "crossed the high-water mark");
  m.loop_ns = &r.histogram(
      "cluster_loop_ns",
      "One router event-loop iteration's service time after poll() "
      "returns (nanoseconds)");
  static constexpr std::string_view kConnHelp =
      "Connections accepted by the router, by listener kind";
  loop_.metrics.accepted = {
      &r.counter("cluster_connections_total", kConnHelp, {{"kind", "ingest"}}),
      &r.counter("cluster_connections_total", kConnHelp, {{"kind", "http"}})};
  for (std::size_t i = 0; i < serve::kRouteCount; ++i) {
    m.http_requests(
        std::string(serve::route_label(static_cast<serve::Route>(i))), 200);
  }
}

void Router::start() {
  if (started_) throw std::logic_error("Router::start called twice");
  for (const auto& f : forwarders_) {
    if (!f->connect()) {
      throw NetError("route: backend '" + f->addr().name +
                     "' unreachable at " + f->addr().host + ":" +
                     std::to_string(f->addr().ingest_port));
    }
  }
  // Learn each backend's instance id synchronously (one probe-deadline
  // fan-out) so a ready backend is up before the first ingest byte, and
  // the very first asynchronous probe can already distinguish a restart
  // from a blip. A backend not ready yet stays recovering; the probe loop
  // promotes it.
  const Answers probes = fan_out("GET", "/readyz", all_backends(),
                                 to_ms(config_.probe_timeout_s));
  const Clock::time_point now = Clock::now();
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    if (probes[i] && probes[i]->status == 200) {
      forwarders_[i]->set_state(BackendState::kUp);
      health_[i].instance = probes[i]->header("Geovalid-Instance");
    }
    health_[i].next_probe_at =
        now + std::chrono::milliseconds(to_ms(config_.probe_interval_s));
  }
  ingest_listener_ = serve::tcp_listen(config_.host, config_.ingest_port);
  ingest_port_ = serve::local_port(ingest_listener_.get());
  http_listener_ = serve::tcp_listen(config_.host, config_.http_port);
  http_port_ = serve::local_port(http_listener_.get());
  started_ = true;
}

std::optional<std::size_t> Router::admit(trace::UserId user) {
  const auto [it, first_seen] = epochs_.try_emplace(user);
  UserEpoch& epoch = it->second;
  if (first_seen) epoch.owner = ring_.owner_index(user);
  if (++epoch.arrived <= epoch.covered) {
    // Epoch-covered prefix of a full re-send after a rebalance: the
    // owning backend already applied it. This skip is what keeps healthy
    // backends from double-applying while a replaced one catches up.
    ++stats_.records_replayed;
    if (metrics_) metrics_->rec_replayed->inc();
    return std::nullopt;
  }
  ++epoch.sent;
  return epoch.owner;
}

void Router::forwarded(std::size_t owner, std::uint64_t records) {
  stats_.records_forwarded += records;
  if (metrics_) {
    metrics_->rec_forwarded->inc(records);
    metrics_->fwd_records[owner]->inc(records);
  }
  Forwarder& f = *forwarders_[owner];
  if (f.buffered() >= kFlushChunkBytes) f.flush();
}

void Router::on_line(std::string_view text, bool truncated) {
  if (!truncated && text.empty()) return;  // blank keepalive line
  // A truncated line is dead-lettered without a routing attempt.
  const std::optional<trace::UserId> user =
      truncated ? std::nullopt : route_key(text);
  if (!user) {
    ++stats_.records_malformed;
    if (metrics_) metrics_->rec_malformed->inc();
    quarantine_->record_raw(text, stream::QuarantineReason::kMalformedLine);
    return;
  }
  const std::optional<std::size_t> owner = admit(*user);
  if (!owner) return;
  // enqueue() cannot lose the record: a not-up owner spools it (bounded
  // by the backpressure check in run()) until recovery settles replay.
  forwarders_[*owner]->enqueue(text);
  forwarded(*owner, 1);
}

void Router::on_frame(serve::BinaryFrameDecoder::Frame& frame) {
  // Same per-record admission as the text path — the frame is just a
  // denser envelope. Admitted events are bucketed by ring owner; each
  // touched backend then gets exactly one re-encoded sub-frame on its
  // binary channel.
  for (auto& bucket : route_scratch_) bucket.clear();
  for (const stream::Event& e : frame.events) {
    if (const auto owner = admit(e.user)) route_scratch_[*owner].push_back(e);
  }
  for (std::size_t owner = 0; owner < route_scratch_.size(); ++owner) {
    const std::vector<stream::Event>& bucket = route_scratch_[owner];
    if (bucket.empty()) continue;
    frame_scratch_.clear();
    serve::append_binary_frame(frame_scratch_, bucket);
    forwarders_[owner]->enqueue_frame(frame_scratch_, bucket.size());
    forwarded(owner, bucket.size());
  }
}

void Router::on_frame_error(const serve::FrameError& error) {
  // One rejected frame = one malformed ingest record: its claimed record
  // count is exactly what cannot be trusted.
  ++stats_.records_malformed;
  if (metrics_) metrics_->rec_malformed->inc();
  quarantine_->record_raw(error.detail,
                          stream::QuarantineReason::kMalformedFrame);
}

void Router::handle_readyz(int& status, std::string& content_type,
                           std::string& body) {
  // Per-backend verdict: the probe-driven state machine first (a backend
  // the router cannot forward to is not ready, whatever its own /readyz
  // says), then a live probe-deadline fan-out to the up backends.
  std::vector<std::size_t> up;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    if (forwarders_[i]->state() == BackendState::kUp) up.push_back(i);
  }
  const Answers live =
      fan_out("GET", "/readyz", up, to_ms(config_.probe_timeout_s));
  std::string not_ready;
  std::size_t count = 0;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    const Forwarder& f = *forwarders_[i];
    std::string why;
    if (f.state() != BackendState::kUp) {
      why = to_string(f.state());
    } else if (!live[i]) {
      why = "unreachable";
    } else if (live[i]->status != 200) {
      why = "not_ready";
    }
    if (why.empty()) continue;
    if (count++ > 0) not_ready += ',';
    not_ready += "{\"name\":\"" + f.addr().name + "\",\"state\":\"" + why +
                 "\"}";
  }
  if (count == 0) {
    status = 200;
    content_type = "text/plain";
    body = "ready\n";
  } else {
    status = 503;
    body = "{\"not_ready\":[" + not_ready + "]}";
  }
}

void Router::handle_metrics(int& status, std::string& content_type,
                            std::string& body) {
  update_backend_gauges();
  std::vector<std::string> texts;
  const Answers scrapes =
      fan_out("GET", "/metrics", all_backends(), fanout_deadline_ms());
  for (std::size_t i = 0; i < scrapes.size(); ++i) {
    // Degraded scrape: a missing backend is visible through the router's
    // own cluster_backend_state gauge, so a partial merge is still
    // truthful. A non-200 answer counts as a backend error too.
    if (scrapes[i] && scrapes[i]->status == 200) {
      texts.push_back(strip_prometheus(scrapes[i]->body, "cluster_"));
    } else if (scrapes[i] && metrics_) {
      metrics_->backend_errors[i]->inc();
    }
  }
  // Only the router's own cluster_* families join the merge: in-process
  // deployments (tests, bench) share one registry with the backends, and
  // re-adding their serve_* families here would double-count them.
  texts.push_back(filter_prometheus(obs::to_prometheus(obs::registry()),
                                    "cluster_"));
  status = 200;
  content_type = std::string(obs::kPrometheusContentType);
  body = merge_prometheus(texts);
}

void Router::handle_summary(int& status, std::string& body) {
  std::vector<std::string> bodies;
  std::vector<std::string> failed;
  Answers calls =
      fan_out("GET", "/v1/summary", all_backends(), fanout_deadline_ms());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (calls[i] && calls[i]->status == 200) {
      bodies.push_back(std::move(calls[i]->body));
    } else {
      failed.push_back(forwarders_[i]->addr().name);
    }
  }
  if (bodies.empty()) {
    // Nothing to merge: the whole cluster is unreachable, error out.
    return set_fan_out_error(status, body, "summary", failed);
  }
  status = 200;
  body = merge_summaries(bodies);
  if (!failed.empty()) {
    // Partial sum: a partially-down cluster degrades instead of erroring,
    // and the annotation keeps the understatement explicit.
    std::string annotation = "\"degraded\":";
    append_json_string_array(annotation, failed);
    annotation += ',';
    body.insert(1, annotation);
  }
}

void Router::handle_proxy(std::string_view id_text, std::string_view what,
                          int& status, std::string& body) {
  const auto id = serve::parse_decimal<trace::UserId>(id_text);
  if (!id) return set_error(status, body, 400, "bad user id");
  // The ring owner holds every record of this user, so its answer — the
  // verdicts or the score, 404 for an unknown user, 409 without a model —
  // is the cluster's.
  const std::size_t owner = ring_.owner_index(*id);
  std::optional<serve::HttpResponse> resp = std::move(
      fan_out("GET", "/v1/users/" + std::to_string(*id) + std::string(what),
              {owner}, fanout_deadline_ms())[owner]);
  if (!resp) {
    status = 502;
    body = "{\"error\":\"backend unreachable\",\"backend\":\"" +
           forwarders_[owner]->addr().name + "\"}";
    return;
  }
  status = resp->status;
  body = std::move(resp->body);
}

void Router::handle_suspects(std::string_view k_text, int& status,
                             std::string& body) {
  const std::optional<std::size_t> parsed =
      serve::parse_decimal<std::size_t>(k_text);
  if (!parsed) return set_error(status, body, 400, "bad k");
  const std::size_t k = *parsed;
  // Every backend's top-k is a superset of its contribution to the
  // cluster top-k (users never span backends), so fan out the same k and
  // re-rank the union with the backends' own total order.
  const std::string path = "/v1/suspects?k=" + std::to_string(k);
  std::vector<SuspectToken> merged;
  std::vector<std::string> failed;
  std::size_t answered = 0;
  bool saw_no_model = false;
  const Answers calls =
      fan_out("GET", path, all_backends(), fanout_deadline_ms());
  for (std::size_t i = 0; i < calls.size(); ++i) {
    if (calls[i] && calls[i]->status == 200) {
      ++answered;
      extract_suspects(calls[i]->body, merged);
    } else {
      if (calls[i] && calls[i]->status == 409) saw_no_model = true;
      failed.push_back(forwarders_[i]->addr().name);
    }
  }
  if (answered == 0) {
    if (saw_no_model) {
      // Uniform config case: the cluster serves without a model.
      return set_error(status, body, 409, "serving without a model");
    }
    return set_fan_out_error(status, body, "suspects", failed);
  }
  std::sort(merged.begin(), merged.end(),
            [](const SuspectToken& a, const SuspectToken& b) {
              if (a.score_value != b.score_value) {
                return a.score_value > b.score_value;
              }
              return a.user < b.user;
            });
  if (merged.size() > k) merged.resize(k);
  status = 200;
  body = "{\"backends\":" + std::to_string(answered);
  if (!failed.empty()) {
    body += ",\"degraded\":";
    append_json_string_array(body, failed);
  }
  body += ",\"k\":" + std::to_string(k) + ",\"suspects\":[";
  for (std::size_t i = 0; i < merged.size(); ++i) {
    if (i > 0) body += ',';
    body += "{\"user\":" + std::to_string(merged[i].user) + ",\"score\":" +
            merged[i].score_text + ",\"checkins\":" +
            merged[i].checkins_text + "}";
  }
  body += "]}";
}

void Router::handle_checkpoint(int& status, std::string& body) {
  // Buffered records must reach the backends first, or the fanned-out
  // checkpoints would not cover everything the router has accepted.
  flush_all_blocking(fanout_deadline_ms());
  // A backend that is down, flush-expired or still holding spooled
  // records could not cover its shard: it is not called, and fails.
  std::vector<std::size_t> covered;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    const Forwarder& f = *forwarders_[i];
    if (f.sending() && f.spool_records() == 0) covered.push_back(i);
  }
  std::vector<std::string> failed;
  std::string ok_entries;
  collect_writes(
      fan_out("POST", "/admin/checkpoint", covered, fanout_deadline_ms()),
      failed, ok_entries);
  if (!failed.empty()) {
    return set_fan_out_error(status, body, "checkpoint", failed);
  }
  status = 200;
  body = "{\"status\":\"ok\",\"backends\":[" + ok_entries + "]}";
}

void Router::handle_replace(const std::string& name,
                            const std::string& json, int& status,
                            std::string& body) {
  std::size_t index = forwarders_.size();
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    if (forwarders_[i]->addr().name == name) {
      index = i;
      break;
    }
  }
  if (index == forwarders_.size()) {
    return set_error(status, body, 404, "unknown backend");
  }

  // Ports are whole decimals read from their verbatim tokens, so 8080.9
  // or 1e3 is refused rather than truncated; "host" must be a top-level
  // string.
  BackendAddr addr;
  addr.name = name;
  addr.host = forwarders_[index]->addr().host;
  std::optional<std::uint16_t> ingest;
  std::optional<std::uint16_t> http;
  try {
    for (const JsonLeaf& leaf : flatten_json(json)) {
      if (leaf.path == "host" && !leaf.number) addr.host = leaf.text;
      if (leaf.path == "ingest_port" && leaf.number) {
        ingest = serve::parse_decimal<std::uint16_t>(leaf.text);
      }
      if (leaf.path == "http_port" && leaf.number) {
        http = serve::parse_decimal<std::uint16_t>(leaf.text);
      }
    }
  } catch (const std::invalid_argument&) {
    return set_error(status, body, 400, "malformed body");
  }
  if (ingest.value_or(0) == 0 || http.value_or(0) == 0) {
    return set_error(status, body, 400,
                     "body must carry ingest_port and http_port (1-65535)");
  }
  addr.ingest_port = *ingest;
  addr.http_port = *http;

  if (!forwarders_[index]->replace(addr)) {
    return set_error(status, body, 502, "replacement unreachable");
  }

  const std::uint64_t reset_users = begin_new_epoch(index);

  // Fresh health episode for the replacement process: forget the old
  // instance and probe immediately, so the promotion to up (and the
  // spool drain that comes with it) happens within one loop iteration.
  BackendHealth& h = health_[index];
  h.instance.clear();
  h.consecutive_failures = 0;
  h.reconnect_attempts = 0;
  h.probe.reset();
  h.next_probe_at = Clock::now();

  status = 200;
  body = "{\"status\":\"replaced\",\"backend\":\"" + name +
         "\",\"users_reset\":" + std::to_string(reset_users) + "}";
}

std::uint64_t Router::begin_new_epoch(std::size_t index) {
  // New epoch. Everything forwarded so far is folded into the covered
  // prefix for users on healthy backends; users owned by backend `index`
  // reset to zero — its process's own checkpoint-resume skip deduplicates
  // whatever its restored snapshot already covers. Clients must now
  // re-send their full traces (docs/CLUSTER.md runbook).
  //
  // Sever every ingest connection first: bytes still queued on them
  // (kernel buffers, half-decoded lines or frames) are deliveries of the
  // epoch being invalidated. Interpreting them under the cleared arrival
  // table would re-forward an arbitrary mid-trace suffix as if it were a
  // fresh prefix and corrupt the resume skip — the exact at-least-once
  // hole the re-send protocol exists to close.
  loop_.close_ingest();
  std::uint64_t reset_users = 0;
  for (auto& [user, epoch] : epochs_) {
    epoch.covered += epoch.sent;
    if (epoch.owner == index) {
      epoch.covered = 0;
      ++reset_users;
    }
    epoch.arrived = 0;
    epoch.sent = 0;
  }
  return reset_users;
}

int Router::fanout_deadline_ms() const {
  return to_ms(config_.fanout_deadline_s);
}

Router::Answers Router::fan_out(const char* method, const std::string& path,
                                const std::vector<std::size_t>& backends,
                                int timeout_ms) {
  std::vector<serve::HttpExchange> calls;
  calls.reserve(backends.size());
  for (const std::size_t i : backends) {
    const BackendAddr& addr = forwarders_[i]->addr();
    calls.emplace_back(addr.host, addr.http_port, method, path);
  }
  serve::run_http_exchanges(calls, timeout_ms);
  Answers answers(forwarders_.size());
  for (std::size_t k = 0; k < calls.size(); ++k) {
    answers[backends[k]] = std::move(calls[k].response());
    if (!answers[backends[k]] && metrics_) {
      metrics_->backend_errors[backends[k]]->inc();
    }
  }
  return answers;
}

void Router::collect_writes(const Answers& answers,
                            std::vector<std::string>& failed,
                            std::string& ok_entries) const {
  for (std::size_t i = 0; i < answers.size(); ++i) {
    const std::string& name = forwarders_[i]->addr().name;
    if (!answers[i] || answers[i]->status != 200) {
      if (std::find(failed.begin(), failed.end(), name) == failed.end()) {
        failed.push_back(name);
      }
      continue;
    }
    if (!ok_entries.empty()) ok_entries += ',';
    ok_entries += "{\"name\":\"" + name + "\",\"response\":" +
                  answers[i]->body + "}";
  }
}

std::vector<std::size_t> Router::all_backends() const {
  std::vector<std::size_t> all(forwarders_.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  return all;
}

void Router::check_health_timers(Clock::time_point now) {
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    BackendHealth& h = health_[i];
    Forwarder& f = *forwarders_[i];
    if (h.probe && now >= h.probe_deadline) {
      h.probe->expire();
      finish_probe(i);
    }
    if (!h.probe && now >= h.next_probe_at) start_probe(i, now);
    if (!f.connected() && !drain_requested_ && now >= h.next_reconnect_at) {
      if (f.connect()) {
        // Probe immediately: the instance comparison decides whether the
        // spool drains (same process) or a new epoch starts (restart).
        // Only a probe issued after this connect may decide it: one still
        // in flight can carry the dead process's instance, and would
        // drain the spool into the restarted one.
        h.probe.reset();
        h.next_probe_at = now;
      } else {
        const std::uint32_t delay = stream::backoff_with_jitter(
            config_.reconnect_backoff_ms, config_.reconnect_backoff_cap_ms,
            h.reconnect_attempts, config_.net_faults.seed, i);
        ++h.reconnect_attempts;
        h.next_reconnect_at = now + std::chrono::milliseconds(delay);
      }
    }
  }
}

void Router::start_probe(std::size_t index, Clock::time_point now) {
  BackendHealth& h = health_[index];
  const BackendAddr& addr = forwarders_[index]->addr();
  // Interval runs probe-start to probe-start, independent of outcome.
  h.next_probe_at =
      now + std::chrono::milliseconds(to_ms(config_.probe_interval_s));
  h.probe_deadline =
      now + std::chrono::milliseconds(to_ms(config_.probe_timeout_s));
  h.probe.emplace(addr.host, addr.http_port, "GET", "/readyz", "", "",
                  kMaxProbeResponseBytes);
  if (h.probe->done()) finish_probe(index);  // the connect failed at once
}

void Router::probe_io(std::size_t index, short revents) {
  BackendHealth& h = health_[index];
  if (!h.probe) return;
  h.probe->step(revents);
  if (h.probe->done()) finish_probe(index);
}

void Router::finish_probe(std::size_t index) {
  BackendHealth& h = health_[index];
  // serve stamps Geovalid-Instance on /readyz so the router can tell a
  // connection blip from a process restart.
  const std::optional<serve::HttpResponse>& resp = h.probe->response();
  const bool ok = resp && resp->status == 200;
  std::string instance = ok ? resp->header("Geovalid-Instance") : "";
  h.probe.reset();
  if (ok) {
    on_probe_success(index, std::move(instance));
  } else {
    on_probe_failure(index);
  }
}

void Router::on_probe_success(std::size_t index, std::string instance) {
  BackendHealth& h = health_[index];
  Forwarder& f = *forwarders_[index];
  h.consecutive_failures = 0;

  const bool restarted = !h.instance.empty() && !instance.empty() &&
                         instance != h.instance;
  if (restarted) {
    // The process behind this name changed: the spool's records were
    // applied (at most) by the dead instance, and the new one resumes
    // from its checkpoint. The client re-send is authoritative —
    // discard the spool (counted superseded, not dropped) and start a
    // new epoch so re-sent prefixes replay correctly everywhere.
    if (f.state() == BackendState::kUp ||
        f.state() == BackendState::kSuspect) {
      // A restart that beat our EOF detection: the live-looking
      // connection belongs to a dead process. Drop it and reconnect.
      f.sever();
    }
    (void)f.discard_spool();
    begin_new_epoch(index);
  }
  if (!instance.empty()) h.instance = std::move(instance);

  if (!f.connected()) {
    // Probes pass but the forwarder is not connected yet (e.g. the
    // ingest listener came up a beat after /readyz): reconnect now.
    h.next_reconnect_at = Clock::now();
    return;
  }
  if (f.state() != BackendState::kUp) {
    // Same instance (or first sighting): the backend's applied state
    // includes everything we ever flushed, so the spool simply drains in
    // arrival order behind whatever is still buffered.
    if (f.drain_spool()) {
      f.set_state(BackendState::kUp);
      h.reconnect_attempts = 0;
      f.flush();
    }
    // drain_spool() failure re-severed; the reconnect timer retries.
  }
}

void Router::on_probe_failure(std::size_t index) {
  BackendHealth& h = health_[index];
  Forwarder& f = *forwarders_[index];
  ++h.consecutive_failures;
  if (metrics_) metrics_->probe_failures[index]->inc();
  if (!f.connected()) {
    f.set_state(BackendState::kDown);
    return;
  }
  if (h.consecutive_failures >= config_.probe_down_after) {
    // The connection still looks live but the process has stopped
    // answering: a hung backend will never flush its queue. Sever so the
    // records move to the spool and recovery owns them.
    f.sever();
    h.reconnect_attempts = 0;
    h.next_reconnect_at = Clock::now();
  } else if (f.state() == BackendState::kUp) {
    f.set_state(BackendState::kSuspect);
  }
}

void Router::on_answered(std::string_view route, int status) {
  ++stats_.http_requests;
  if (metrics_) metrics_->http_requests(std::string(route), status).inc();
}

serve::HttpReply Router::on_request(const HttpRequest& req) {
  using serve::Route;
  const auto [route, param] = serve::match_route(req.target, /*backends=*/true);
  serve::HttpReply reply = serve::route_reply(route, req.method);
  if (reply.status != 200) return reply;
  switch (route) {
    case Route::kHealthz:
      reply.content_type = "text/plain";
      reply.body = "ok\n";
      break;
    case Route::kReadyz:
      if (drain_requested_) {
        reply.status = 503;
        reply.body = "{\"error\":\"draining\"}";
      } else {
        handle_readyz(reply.status, reply.content_type, reply.body);
      }
      break;
    case Route::kMetrics:
      handle_metrics(reply.status, reply.content_type, reply.body);
      break;
    case Route::kSummary:
      handle_summary(reply.status, reply.body);
      break;
    case Route::kVerdicts:
      handle_proxy(param, "/verdicts", reply.status, reply.body);
      break;
    case Route::kScore:
      handle_proxy(param, "/score", reply.status, reply.body);
      break;
    case Route::kSuspects:
      handle_suspects(param, reply.status, reply.body);
      break;
    case Route::kCheckpoint:
      handle_checkpoint(reply.status, reply.body);
      break;
    case Route::kDrain:
      if (drain_done_) {
        reply.status = drain_status_;
        reply.body = drain_body_;
      } else {
        // Deferred: the router stops accepting ingest, reads the connected
        // streams to EOF, pushes every buffered record, closes the
        // forwarder connections (EOF to the backends) and fans the drain
        // out — the caller is answered only when the whole cluster has
        // quiesced (complete_drain()).
        drain_requested_ = true;
        reply.await_drain = true;
      }
      break;
    case Route::kBackends:
      handle_replace(std::string(param), req.body, reply.status, reply.body);
      break;
    case Route::kOther:
      break;  // unmatched: route_reply already answered 404
  }
  return reply;
}

void Router::update_backend_gauges() {
  const Clock::time_point now = Clock::now();
  std::uint64_t dropped_total = 0;
  std::uint64_t superseded_total = 0;
  for (std::size_t i = 0; i < forwarders_.size(); ++i) {
    const Forwarder& f = *forwarders_[i];
    dropped_total += f.dropped;
    superseded_total += f.superseded;
    if (!metrics_) continue;
    metrics_->up[i]->set(f.connected() ? 1 : 0);
    metrics_->state[i]->set(static_cast<std::int64_t>(f.state()));
    metrics_->buffered[i]->set(static_cast<std::int64_t>(f.buffered()));
    metrics_->spool_bytes[i]->set(
        static_cast<std::int64_t>(f.spool_bytes()));
    metrics_->spool_records[i]->set(
        static_cast<std::int64_t>(f.spool_records()));
    metrics_->spool_age[i]->set(
        static_cast<std::int64_t>(f.spool_age_seconds(now)));
    const std::uint64_t delta = f.dropped - metrics_->dropped_seen[i];
    if (delta > 0) {
      metrics_->fwd_dropped[i]->inc(delta);
      metrics_->dropped_seen[i] = f.dropped;
    }
    const std::uint64_t sup = f.superseded - metrics_->superseded_seen[i];
    if (sup > 0) {
      metrics_->superseded[i]->inc(sup);
      metrics_->superseded_seen[i] = f.superseded;
    }
    const std::uint64_t rec = f.reconnects - metrics_->reconnects_seen[i];
    if (rec > 0) {
      metrics_->reconnects[i]->inc(rec);
      metrics_->reconnects_seen[i] = f.reconnects;
    }
  }
  stats_.records_dropped = dropped_total;
  stats_.records_superseded = superseded_total;
}

bool Router::flush_all_blocking(int deadline_ms) {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(deadline_ms);
  bool all = true;
  for (const auto& f : forwarders_) {
    while (f->wants_write() || f->wants_binary_write()) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - Clock::now())
              .count();
      if (remaining <= 0) {
        f->sever();
        all = false;
        break;
      }
      pollfd ps[2];
      nfds_t nfds = 0;
      if (f->wants_write()) ps[nfds++] = {f->fd(), POLLOUT, 0};
      if (f->wants_binary_write()) {
        ps[nfds++] = {f->binary_fd(), POLLOUT, 0};
      }
      if (::poll(ps, nfds, static_cast<int>(remaining)) < 0 &&
          errno != EINTR) {
        f->sever();
        all = false;
        break;
      }
      f->flush();
      if (!f->sending()) {
        all = false;
        break;
      }
    }
  }
  update_backend_gauges();
  return all;
}

void Router::complete_drain() {
  flush_all_blocking(fanout_deadline_ms());
  std::vector<std::string> failed;
  for (const auto& f : forwarders_) {
    // A backend that still holds queued or spooled records at drain time
    // cannot have applied them: name it failed (close() counts the loss).
    if (f->buffered() > 0 || f->spool_records() > 0) {
      failed.push_back(f->addr().name);
    }
    f->close();  // EOF: the backend's drain can now see ingest quiesce
  }
  std::string ok_entries;
  collect_writes(
      fan_out("POST", "/admin/drain", all_backends(), fanout_deadline_ms()),
      failed, ok_entries);
  if (failed.empty()) {
    drain_status_ = 200;
    drain_body_ =
        "{\"status\":\"drained\",\"backends\":[" + ok_entries + "]}";
  } else {
    // Not atomic: backends that answered 200 have drained and exited;
    // the rest are listed for the operator (docs/CLUSTER.md, failure
    // semantics).
    set_fan_out_error(drain_status_, drain_body_, "drain", failed);
  }
  drain_done_ = true;
  loop_.answer_drain_waiters(drain_status_, drain_body_);
}

void Router::forwarder_io(Forwarder& f, bool binary, short revents) {
  if (!f.connected()) return;
  if ((revents & (POLLERR | POLLNVAL | POLLHUP)) != 0) {
    f.sever();
    return;
  }
  if ((revents & POLLIN) != 0) {
    // The backend never sends on its ingest sockets; readable here means
    // EOF or reset (either channel — one dead channel means the process
    // behind both is gone).
    char probe[256];
    const ssize_t n =
        ::recv(binary ? f.binary_fd() : f.fd(), probe, sizeof(probe), 0);
    if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR)) {
      f.sever();
      return;
    }
  }
  if ((revents & POLLOUT) != 0) f.flush();
}

RouteStats Router::run(const std::atomic<bool>* stop) {
  if (!started_) throw std::logic_error("Router::run before start()");

  // Extra fds for the connection core's poll step, with who owns each:
  // a forwarder channel (text or binary) or an in-flight health probe.
  enum class ExtraKind : std::uint8_t { kText, kBinary, kProbe };
  std::vector<pollfd> extra;
  std::vector<std::pair<ExtraKind, std::size_t>> extra_owner;
  const auto on_extra = [&](std::size_t i, short revents) {
    const auto [kind, index] = extra_owner[i];
    if (kind == ExtraKind::kProbe) {
      probe_io(index, revents);
    } else {
      forwarder_io(*forwarders_[index], kind == ExtraKind::kBinary, revents);
    }
  };

  while (true) {
    if (stop != nullptr && stop->load(std::memory_order_relaxed)) break;
    if (drain_done_ && !loop_.answering()) break;
    // Backpressure with hysteresis: pause client reads when any backend
    // queue crosses the high-water mark — the socket buffer or the spool
    // (a long outage fills the spool budget instead of router memory; the
    // overflow is backpressure, never a drop) — resume once all are
    // under half of each.
    bool over = false;
    bool under = true;
    for (const auto& f : forwarders_) {
      if (f->buffered() > config_.backend_buffer_bytes ||
          f->spool_bytes() > config_.spool_bytes) {
        over = true;
      }
      if (f->buffered() > config_.backend_buffer_bytes / 2 ||
          f->spool_bytes() > config_.spool_bytes / 2) {
        under = false;
      }
    }
    if (!paused_ && over) {
      paused_ = true;
      if (metrics_) metrics_->pauses->inc();
    } else if (paused_ && under) {
      paused_ = false;
    }

    extra.clear();
    extra_owner.clear();
    const auto watch = [&](int fd, int events, ExtraKind kind, std::size_t i) {
      extra.push_back({fd, static_cast<short>(events), 0});
      extra_owner.emplace_back(kind, i);
    };
    for (std::size_t i = 0; i < forwarders_.size(); ++i) {
      const Forwarder& f = *forwarders_[i];
      if (!f.connected()) continue;
      // POLLIN watches for the backend closing its end (drain/death);
      // POLLOUT drains the queue. The binary channel, once open, gets
      // the same treatment.
      watch(f.fd(), f.wants_write() ? POLLIN | POLLOUT : POLLIN,
            ExtraKind::kText, i);
      if (f.binary_fd() >= 0) {
        watch(f.binary_fd(), f.wants_binary_write() ? POLLIN | POLLOUT : POLLIN,
              ExtraKind::kBinary, i);
      }
    }
    for (std::size_t i = 0; i < health_.size(); ++i) {
      if (const auto& probe = health_[i].probe) {
        watch(probe->fd(), probe->events(), ExtraKind::kProbe, i);
      }
    }

    const Clock::time_point iteration_start = loop_.step(
        drain_requested_ || paused_ ? -1 : ingest_listener_.get(),
        http_listener_.get(), /*read_ingest=*/!paused_, extra, on_extra);

    if (!drain_done_) check_health_timers(Clock::now());

    if (drain_requested_ && !drain_done_ &&
        counts_.ingest.load(std::memory_order_relaxed) == 0) {
      complete_drain();
    }

    update_backend_gauges();

    // The iteration's service time, poll wait excluded: decode, re-frame
    // and forward on the data plane, plus any control-plane work.
    if (metrics_) {
      const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - iteration_start)
                          .count();
      metrics_->loop_ns->observe(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
    }
  }

  // Teardown. The drain path already flushed and closed everything; the
  // stop path (SIGTERM) pushes what it can and leaves the backends up.
  ingest_listener_.reset();
  http_listener_.reset();
  loop_.close_all();
  stats_.connections = counts_.accepted.load(std::memory_order_relaxed);
  if (drain_done_) {
    stats_.exit = RouteExit::kDrained;
  } else {
    flush_all_blocking(5'000);
    for (const auto& f : forwarders_) f->close();
    stats_.exit = RouteExit::kStopped;
  }
  update_backend_gauges();
  quarantine_->flush();
  return stats_;
}

}  // namespace geovalid::cluster
