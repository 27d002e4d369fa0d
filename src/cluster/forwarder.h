// Per-backend forwarding connection for the cluster router.
//
// One Forwarder owns the persistent TCP ingest connection to one
// `geovalid serve` backend. Routed wire records append to an in-memory
// buffer and drip out non-blocking under the router's poll loop — the
// same wbuf discipline serve uses for HTTP responses, pointed the other
// way. The buffer doubles as the backpressure signal: when any backend's
// buffer crosses the router's high-water mark, the router stops reading
// from ingest clients until the slow backend catches up, so a stalled
// backend translates into TCP backpressure on the producers instead of
// unbounded router memory.
//
// Failure no longer drops records. Each forwarder carries the router's
// per-backend health state machine (up → suspect → down → recovering,
// docs/ROBUSTNESS.md) and a bounded spool: while the backend is anything
// but up, routed records queue in the spool instead of the socket buffer,
// and a send failure *salvages* every byte from the last full-record
// boundary back into the spool. Record boundaries are tracked per channel
// (Pending entries), so the record the kernel accepted half of is
// re-queued whole — the backend dead-letters the delivered fragment as
// truncated, then applies the replayed copy exactly once. The spool's
// byte budget feeds the router's whole-ingest backpressure: overflow
// pauses reads, it never discards. Records are *counted* as dropped only
// at deliberate teardown (close() with the spool non-empty), when the
// router is exiting and re-delivery is the clients' re-send.
//
// Binary ingest rides a second, lazily-opened connection per backend: the
// serve daemon negotiates text vs. binary per connection from the first
// byte, so one socket can never carry both formats. Per-user ordering is
// safe across the pair because a client connection speaks one format for
// its lifetime, so any given user's records travel one channel per run.
// The spool is a single FIFO holding both kinds of entry, so drain order
// per channel equals arrival order.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>

#include "serve/net.h"
#include "stream/faults.h"

namespace geovalid::cluster {

/// Address of one backend. `name` is the ring identity (stable across
/// process replacement); host/ports are the current process.
struct BackendAddr {
  std::string name;
  std::string host = "127.0.0.1";
  std::uint16_t ingest_port = 0;
  std::uint16_t http_port = 0;
};

/// Per-backend health, driven by the router's probe loop plus the
/// forwarder's own connection events. Ordered by declining health so the
/// exported gauge (`cluster_backend_state`) reads naturally.
enum class BackendState : std::uint8_t {
  kDown = 0,        ///< connection lost (or probes hard-failed); reconnecting
  kRecovering = 1,  ///< reconnected, awaiting a passing probe + replay choice
  kSuspect = 2,     ///< connection live but the last probe failed
  kUp = 3,          ///< connection live, probes passing
};

[[nodiscard]] const char* to_string(BackendState state);

class Forwarder {
 public:
  explicit Forwarder(BackendAddr addr) : addr_(std::move(addr)) {}

  /// Connects with `connect_timeout_ms` and leaves the socket
  /// non-blocking. On success the state becomes recovering (the router
  /// promotes to up once a probe passes and replay is settled); on
  /// failure it stays down. Never throws.
  bool connect() noexcept;

  [[nodiscard]] BackendState state() const { return state_; }
  /// True while records may be written to the sockets (up or suspect —
  /// a suspect backend's connection still works; only the probe failed).
  [[nodiscard]] bool sending() const {
    return state_ == BackendState::kUp || state_ == BackendState::kSuspect;
  }
  [[nodiscard]] bool connected() const { return fd_.valid(); }

  /// Router-driven transitions (probe results / recovery protocol).
  void set_state(BackendState state) { state_ = state; }

  [[nodiscard]] const BackendAddr& addr() const { return addr_; }
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// The binary channel's socket; -1 until the first enqueue_frame().
  [[nodiscard]] int binary_fd() const { return bfd_.get(); }
  /// Pending socket-buffer bytes across both channels (the high-water
  /// backpressure signal; the spool has its own budget).
  [[nodiscard]] std::size_t buffered() const {
    return (buf_.size() - off_) + (bbuf_.size() - boff_);
  }
  [[nodiscard]] bool wants_write() const {
    return sending() && (buf_.size() - off_) > 0;
  }
  [[nodiscard]] bool wants_binary_write() const {
    return sending() && bfd_.valid() && (bbuf_.size() - boff_) > 0;
  }

  // -- Spool (records held while the backend is not up) ------------------

  [[nodiscard]] std::size_t spool_bytes() const { return spool_bytes_; }
  [[nodiscard]] std::uint64_t spool_records() const { return spool_records_; }
  /// Age of the oldest spooled entry, 0 when empty.
  [[nodiscard]] double spool_age_seconds(
      std::chrono::steady_clock::time_point now) const;

  /// Queues one wire record (`line` without its newline; the forwarder
  /// appends the delimiter). While the backend is not up the record goes
  /// to the spool instead. Always succeeds — loss is not an outcome of
  /// enqueueing.
  void enqueue(std::string_view line);

  /// Queues one complete binary frame (raw bytes, no delimiter) carrying
  /// `records` records (at most serve::kMaxFrameRecords; more throws
  /// std::logic_error), opening the binary channel on first use. A frame
  /// that cannot reach a socket spools; otherwise always succeeds.
  void enqueue_frame(std::string_view frame, std::uint64_t records);

  /// Sends as much of both buffers as the sockets accept right now. A
  /// send failure salvages everything from the last full-record boundary
  /// into the spool and transitions to down.
  void flush();

  /// Recovery for a backend whose process survived (same instance): move
  /// every spooled entry back onto the socket buffers, oldest first.
  /// Returns false (and re-severs, spool intact) when the binary channel
  /// cannot reopen.
  bool drain_spool();

  /// Recovery for a replaced/restarted process (new instance): the
  /// spooled records are superseded by the client re-send the epoch reset
  /// triggers. Returns how many records were discarded (they are *not*
  /// lost — the re-send re-delivers them; exported as
  /// cluster_spool_superseded_total).
  std::uint64_t discard_spool();

  /// Severs the connection now: salvages both channels into the spool and
  /// transitions to down. The router calls this on peer EOF/reset and on
  /// flush-deadline expiry; flush() calls it on send failure.
  void sever();

  /// Deliberate teardown (drain EOF or router exit): closes both channels
  /// and counts any still-buffered or spooled records as dropped — at
  /// this point nothing will re-deliver them.
  void close();

  /// Points the forwarder at a replacement process for the same ring
  /// name and reconnects. Buffered/spooled records for the old process
  /// are superseded by the rebalance re-send, so they are discarded
  /// (returned via discard_spool() semantics), not counted dropped.
  bool replace(BackendAddr addr) noexcept;

  /// Deterministic network-fault hooks (`--inject-net-faults`): consulted
  /// per enqueue by ring name; triggers simulate reset/drop/stall at the
  /// next flush. Not owned.
  void set_fault_injector(stream::NetFaultInjector* injector) {
    fault_injector_ = injector;
  }

  void set_connect_timeout_ms(int ms) { connect_timeout_ms_ = ms; }

  std::uint64_t forwarded = 0;      ///< records written toward a socket
  std::uint64_t dropped = 0;        ///< records lost at teardown, counted
  std::uint64_t spooled_total = 0;  ///< records that ever entered the spool
  std::uint64_t reconnects = 0;     ///< successful connect() after a sever
  /// Records discarded because a process restart made the client re-send
  /// authoritative (discard_spool/replace) — re-delivered, not lost.
  std::uint64_t superseded = 0;

 private:
  /// One enqueued record group with bytes still pending on a channel:
  /// `size` total bytes, `left` unsent. Text queues one entry per record;
  /// the binary channel one per frame. Kept until *fully* sent so a
  /// partially-sent entry can be salvaged whole.
  struct Pending {
    std::uint32_t size = 0;
    std::uint32_t left = 0;
    std::uint32_t records = 0;
  };

  /// One spooled record group, FIFO. Text entries coalesce many records;
  /// frame entries are exactly one frame.
  struct SpoolEntry {
    std::string bytes;
    std::uint64_t records = 0;
    bool frame = false;
    std::chrono::steady_clock::time_point queued_at;
  };

  bool flush_channel(serve::Fd& fd, std::string& buf, std::size_t& off,
                     std::deque<Pending>& pending);
  void salvage_channel(std::string& buf, std::size_t& off,
                       std::deque<Pending>& pending, bool frame,
                       std::deque<SpoolEntry>& out);
  bool ensure_binary_channel() noexcept;
  void spool_push(std::string bytes, std::uint64_t records, bool frame);
  void on_injected(const stream::NetFaultInjector::Triggered& t);

  BackendAddr addr_;
  serve::Fd fd_;
  std::string buf_;
  std::size_t off_ = 0;
  std::deque<Pending> tpending_;  ///< unsent-byte accounting per text record
  serve::Fd bfd_;      ///< binary channel, opened on first enqueue_frame()
  std::string bbuf_;
  std::size_t boff_ = 0;
  std::deque<Pending> bpending_;  ///< unsent-byte accounting per frame
  BackendState state_ = BackendState::kDown;
  bool ever_connected_ = false;

  std::deque<SpoolEntry> spool_;
  std::size_t spool_bytes_ = 0;
  std::uint64_t spool_records_ = 0;

  stream::NetFaultInjector* fault_injector_ = nullptr;
  bool inject_reset_ = false;
  bool inject_drop_ = false;
  std::chrono::steady_clock::time_point stall_until_{};
  int connect_timeout_ms_ = 1000;
};

}  // namespace geovalid::cluster
