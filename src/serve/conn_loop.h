// The connection core shared by the serve reactors and the cluster
// router: one accept path, one read path, one write path, the idle sweep,
// reaping and the /admin/drain waiter bookkeeping.
//
// A ConnLoop owns the sockets one event-loop thread accepted (either
// listener kind) and everything about them that does not depend on which
// daemon it is:
//   - accept under a connection cap shared by every loop of the daemon —
//     the slot is reserved (CAS) before accept4, so loops racing on one
//     listener never overshoot it;
//   - reads of at most kReadBudgetBytes per connection per iteration (one
//     firehose client cannot starve the others), the first-byte wire sniff
//     (0xB1 selects binary frames for the connection's lifetime, anything
//     else the text grammar), line/frame decoding, HTTP request parsing
//     with the parse-error reply;
//   - response bytes queued per connection and flushed under POLLOUT, so a
//     slow reader never blocks the loop;
//   - the idle sweep, which dead-letters the partial line or frame an idle
//     ingest client left behind — exactly like a mid-record EOF — and
//     never closes a caller waiting for its /admin/drain answer;
//   - a wakeup eventfd, always in the poll set, so another thread can cut
//     a blocked poll() short (wake()) instead of waiting out the tick.
//
// What a record or a request *means* stays with the daemon, behind the
// ConnHandler interface: serve applies records to its engine, the router
// forwards them to the ring owner.
#pragma once

#include <poll.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "serve/http.h"
#include "serve/net.h"
#include "serve/wire.h"

namespace geovalid::obs {
class Counter;
class Gauge;
}  // namespace geovalid::obs

namespace geovalid::serve {

/// Per-connection read budget per loop iteration.
inline constexpr std::size_t kReadBudgetBytes = 256 * 1024;

/// Poll tick: the idle-sweep and timer granularity only. Cross-thread
/// hand-offs (the pause gate, the drain, shutdown) wake the loop through
/// ConnLoop::wake() instead of waiting for the tick.
inline constexpr int kPollTimeoutMs = 100;

/// The daemon's decisions. Every callback runs on the loop's thread.
class ConnHandler {
 public:
  virtual ~ConnHandler() = default;
  /// One ingest text line (without its newline). `truncated` lines — over
  /// the line cap, or the unterminated tail of a connection that hit EOF
  /// or the idle sweep — must be dead-lettered, never parsed. The handler
  /// may hold good lines back and apply them together at on_read_end().
  virtual void on_line(std::string_view text, bool truncated) = 0;
  /// The text lines of one read (or the EOF / idle-sweep fragment) have
  /// all been handed to on_line. Called before the loop touches any other
  /// connection, so whatever on_line held back never outlives the read.
  virtual void on_read_end() {}
  virtual void on_frame(BinaryFrameDecoder::Frame& frame) = 0;
  /// A rejected binary frame, or the incomplete tail of one.
  virtual void on_frame_error(const FrameError& error) = 0;
  virtual HttpReply on_request(const HttpRequest& request) = 0;
  /// An HTTP answer was queued — replies, parse errors and deferred drain
  /// answers alike; the one place requests are counted.
  virtual void on_answered(std::string_view route, int status) = 0;
  /// Ingest connections were reaped; ConnCounts::ingest already excludes
  /// them.
  virtual void on_ingest_reaped() {}
};

/// Connection counts shared by every loop of one daemon.
struct ConnCounts {
  std::atomic<std::size_t> open{0};  ///< both kinds; held under the cap
  std::atomic<std::size_t> ingest{0};
  std::atomic<std::size_t> http{0};
  std::atomic<std::uint64_t> accepted{0};  ///< lifetime
};

/// Optional metric handles (null = not counted). Pairs are indexed by
/// listener kind ([0] ingest, [1] http), except `wire_bytes`, which splits
/// ingest bytes by negotiated format ([0] text, [1] binary).
struct ConnMetrics {
  std::array<obs::Counter*, 2> accepted{};
  std::array<obs::Gauge*, 2> active{};
  std::array<obs::Counter*, 2> bytes_read{};
  std::array<obs::Counter*, 2> bytes_written{};
  std::array<obs::Counter*, 2> wire_bytes{};
  obs::Counter* accepted_here = nullptr;  ///< this loop's accepts only
  obs::Counter* idle_timeouts = nullptr;
};

class ConnLoop {
 public:
  using Clock = std::chrono::steady_clock;
  /// Per-iteration hook for the caller's extra fds (index into `extra`,
  /// revents); called only for fds with events.
  using ExtraFn = std::function<void(std::size_t, short)>;

  struct Limits {
    std::size_t max_connections = 1024;  ///< shared cap (ConnCounts::open)
    double idle_timeout_s = 60.0;        ///< <= 0 disables the sweep
    std::size_t max_line_bytes = kMaxLineBytes;
  };

  /// `stop_reading`, when given, is checked before every read and after
  /// every record: once true, reading stops at once (serve's crash hook).
  ConnLoop(ConnHandler& handler, Limits limits, ConnCounts& counts,
           const std::atomic<bool>* stop_reading = nullptr);
  ~ConnLoop();
  ConnLoop(const ConnLoop&) = delete;
  ConnLoop& operator=(const ConnLoop&) = delete;

  /// One loop iteration's I/O. Polls the wakeup fd, the listeners that are
  /// valid (-1 = not accepting; both drop out while the shared count is at
  /// the cap), the caller's `extra` fds and every connection — ingest
  /// connections only for their pending writes when `read_ingest` is
  /// false. Then, in that order: empties the wakeup fd, accepts, hands
  /// extra revents to `on_extra`, flushes and reads connections, sweeps
  /// idle ones and reaps the dead. Returns when poll() returned, the start
  /// of the iteration's service time. Throws NetError when poll() fails.
  Clock::time_point step(int ingest_listener, int http_listener,
                         bool read_ingest = true,
                         std::span<const pollfd> extra = {},
                         const ExtraFn& on_extra = {});

  /// Makes the current or next step() return from poll() at once. Safe
  /// from any thread (and from a signal handler: one write(2)); wakes
  /// coalesce until the step that consumes them.
  void wake();

  /// Takes ownership of an already-connected non-blocking socket, counted
  /// like an accepted one (tests drive the core over socketpairs).
  void adopt(Fd fd, bool is_http);

  /// Answers every connection waiting on a deferred /admin/drain.
  void answer_drain_waiters(int status, std::string_view body);
  /// True while a drain caller still waits or any answer is unflushed.
  [[nodiscard]] bool answering() const;

  /// Closes every ingest connection without dead-lettering their partial
  /// input (it belongs to an invalidated delivery); reaped next step.
  void close_ingest();
  /// Closes and reaps everything (teardown).
  void close_all();

  [[nodiscard]] bool at_cap() const;
  [[nodiscard]] std::size_t size() const { return conns_.size(); }

  /// Optional metric handles; set before the first step.
  ConnMetrics metrics;

 private:
  struct Conn;

  [[nodiscard]] bool stopped() const {
    return stop_reading_ != nullptr &&
           stop_reading_->load(std::memory_order_relaxed);
  }
  void accept_ready(int listener, bool is_http);
  void track(Fd fd, bool is_http);
  void handle_read(Conn& c);
  void handle_ingest_eof(Conn& c);
  void answer(Conn& c, std::string_view route, int status,
              std::string_view content_type, std::string_view body,
              const std::vector<std::pair<std::string, std::string>>&
                  headers = {});
  void flush_write(Conn& c);
  void sweep_idle(Clock::time_point now);
  void reap();

  ConnHandler& handler_;
  Limits limits_;
  ConnCounts& counts_;
  const std::atomic<bool>* stop_reading_;
  Fd wake_fd_;  ///< eventfd; counts pending wake() calls
  std::vector<std::unique_ptr<Conn>> conns_;
  std::vector<pollfd> pollfds_;           ///< per-step scratch
  std::vector<std::size_t> conn_of_pollfd_;  ///< parallel to the conn tail
};

}  // namespace geovalid::serve
