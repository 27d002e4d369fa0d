// Load-generator client for the serve daemon: replays a trace over N
// concurrent ingest connections and (optionally) probes the control plane.
//
// Events are partitioned by `user % connections` — the same stable rule a
// real fleet of per-device feeders would induce — so each user's records
// travel one connection in order, which is exactly the ordering contract
// the engine's verdicts depend on. Throughput is measured from the first
// byte sent to the last connection's orderly shutdown.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "stream/engine.h"
#include "stream/faults.h"

namespace geovalid::serve {

struct LoadgenConfig {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;       ///< ingest port (required)
  std::uint16_t http_port = 0;  ///< 0 = skip the control-plane probe
  std::size_t connections = 1;
  /// Per-connection pacing in events/s; 0 = full speed.
  double rate_events_per_sec = 0.0;
  /// Replay in the columnar binary frame format (serve/wire.h) instead
  /// of text lines. The server negotiates per connection from the first
  /// byte, so no flag or handshake travels on the wire.
  bool binary = false;
  /// Records per binary frame (0 = the 512-record default; capped there
  /// too). Smaller frames trade throughput for delivery granularity —
  /// a feeder that must bound how many records sit in one undecoded
  /// frame, or a test that needs server-side progress in fine steps,
  /// lowers this.
  std::size_t frame_records = 0;
  /// Reconnect attempts per connection after a refused connect or a peer
  /// that vanished mid-replay (EPIPE). Each retry waits a jittered
  /// exponential backoff, reconnects, and re-sends the shard *from the
  /// beginning* — the full re-send the cluster's epoch protocol expects;
  /// the router and serve's resume skip deduplicate the replayed prefix.
  /// 0 = the old measure-don't-retry behaviour.
  std::size_t retries = 0;
  /// Client-side deterministic fault injection (stream/faults.h net
  /// grammar); the target name is the zero-based connection index
  /// ("0", "1", ...). netreset/netdrop abort the connection mid-replay
  /// (exercising the retry path), netstall sleeps the sender.
  stream::NetFaultPlan net_faults;
  /// Probe the scoring control plane while the replay runs (requires
  /// http_port): periodic GET /v1/suspects?k=5 plus a score lookup for a
  /// deterministically-chosen user from the trace, with one final probe
  /// after the replay completes. Counts and latency land in the stats.
  bool probe_suspects = false;
};

struct LoadgenStats {
  std::size_t connections = 0;
  std::string format = "text";  ///< wire format replayed: text | binary
  std::uint64_t events_sent = 0;
  std::uint64_t bytes_sent = 0;
  double send_seconds = 0.0;  ///< first send to last connection closed
  /// events_sent / send_seconds: timed to the last socket write, not to a
  /// drain, so it says how fast the client wrote, not how fast the daemon
  /// applied the records (e2e_bench measures that).
  double send_events_per_sec = 0.0;
  /// Client-side serialization throughput (events per second spent in
  /// encode calls, summed across connections, socket time excluded) —
  /// the format A/B's sender-cost axis.
  double encode_events_per_sec = 0.0;
  std::size_t failed_connections = 0;  ///< peer vanished mid-replay (EPIPE)
  std::size_t connect_failures = 0;    ///< never connected (ECONNREFUSED)
  /// Re-dials made by the retry loop (--retries), across connections.
  std::uint64_t reconnects = 0;
  /// True when at least one connection used up every retry and still
  /// failed — the replay is known incomplete.
  bool retry_exhausted = false;

  // Control-plane probe (only when http_port was set):
  bool healthz_ok = false;
  bool metrics_ok = false;  ///< 200 + Prometheus content type on /metrics
  double summary_latency_s = 0.0;  ///< /v1/summary round trip (incl. drain)
  std::string summary_json;        ///< /v1/summary body, verbatim

  // Scoring probe (only when probe_suspects was set):
  std::uint64_t suspect_probes = 0;     ///< /v1/suspects requests issued
  std::uint64_t suspect_probes_ok = 0;  ///< ... answered 200
  std::uint64_t score_probes = 0;       ///< /v1/users/{id}/score requests
  std::uint64_t score_probes_ok = 0;    ///< ... answered 200
  double suspect_latency_s = 0.0;  ///< mean /v1/suspects round trip
  std::string suspects_json;       ///< last /v1/suspects 200 body, verbatim
};

/// Replays `events` against a running server. Never throws on per-
/// connection failures: a refused connection counts in connect_failures
/// and a peer that disconnects mid-replay in failed_connections, so a
/// replay against a dying or recovering cluster measures its loss window
/// instead of aborting. Control-plane probes fail soft the same way
/// (flags stay false, summary stays empty).
[[nodiscard]] LoadgenStats run_loadgen(std::span<const stream::Event> events,
                                       const LoadgenConfig& config);

/// One-line JSON rendering of the stats (the loadgen tool's output).
[[nodiscard]] std::string to_json(const LoadgenStats& stats);

}  // namespace geovalid::serve
