#include "serve/conn_loop.h"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <variant>

#include "obs/metrics.h"

namespace geovalid::serve {
namespace {

void add(obs::Counter* counter, std::uint64_t n = 1) {
  if (counter != nullptr) counter->inc(n);
}

void set(obs::Gauge* gauge, std::size_t value) {
  if (gauge != nullptr) gauge->set(static_cast<std::int64_t>(value));
}

}  // namespace

/// One accepted socket, either protocol.
struct ConnLoop::Conn {
  enum class WireMode : std::uint8_t { kUndecided, kText, kBinary };

  Fd fd;
  bool is_http = false;
  bool dead = false;
  bool close_after_write = false;
  bool awaiting_drain = false;  ///< deferred /admin/drain caller
  WireMode mode = WireMode::kUndecided;
  LineDecoder decoder;
  BinaryFrameDecoder frame_decoder;
  HttpRequestParser parser;
  std::string wbuf;
  std::size_t woff = 0;
  Clock::time_point last_activity = Clock::now();

  Conn(Fd socket, bool http, std::size_t max_line_bytes)
      : fd(std::move(socket)), is_http(http), decoder(max_line_bytes) {}
};

ConnLoop::ConnLoop(ConnHandler& handler, Limits limits, ConnCounts& counts,
                   const std::atomic<bool>* stop_reading)
    : handler_(handler),
      limits_(limits),
      counts_(counts),
      stop_reading_(stop_reading),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {
  if (!wake_fd_.valid()) {
    throw NetError(std::string("eventfd: ") + std::strerror(errno));
  }
}

ConnLoop::~ConnLoop() = default;

void ConnLoop::wake() {
  // EAGAIN means the counter is saturated: a wake is pending anyway.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_.get(), &one, sizeof(one));
}

bool ConnLoop::at_cap() const {
  return counts_.open.load(std::memory_order_relaxed) >=
         limits_.max_connections;
}

void ConnLoop::adopt(Fd fd, bool is_http) {
  counts_.open.fetch_add(1, std::memory_order_relaxed);
  track(std::move(fd), is_http);
}

void ConnLoop::track(Fd fd, bool is_http) {
  conns_.push_back(
      std::make_unique<Conn>(std::move(fd), is_http, limits_.max_line_bytes));
  counts_.accepted.fetch_add(1, std::memory_order_relaxed);
  (is_http ? counts_.http : counts_.ingest)
      .fetch_add(1, std::memory_order_relaxed);
  add(metrics.accepted[is_http]);
  add(metrics.accepted_here);
}

void ConnLoop::accept_ready(int listener, bool is_http) {
  while (true) {
    // Reserve the slot under the shared cap *before* accepting, so loops
    // racing on one listener can never overshoot it.
    std::size_t cur = counts_.open.load(std::memory_order_relaxed);
    do {
      if (cur >= limits_.max_connections) return;
    } while (!counts_.open.compare_exchange_weak(cur, cur + 1,
                                                 std::memory_order_relaxed));
    int cfd = -1;
    do {
      cfd = ::accept4(listener, nullptr, nullptr,
                      SOCK_NONBLOCK | SOCK_CLOEXEC);
    } while (cfd < 0 && errno == EINTR);
    if (cfd < 0) {
      const int error = errno;
      counts_.open.fetch_sub(1, std::memory_order_relaxed);
      if (error == ECONNABORTED) continue;
      return;  // EAGAIN (another loop won), or a transient kernel error
    }
    track(Fd(cfd), is_http);
  }
}

void ConnLoop::handle_ingest_eof(Conn& c) {
  // The partial record an abrupt disconnect (or the idle sweep) leaves
  // behind is dead-lettered, never half-decoded into the daemon.
  if (c.mode == Conn::WireMode::kBinary) {
    if (const auto error = c.frame_decoder.finish()) {
      handler_.on_frame_error(*error);
    }
  } else if (const auto fragment = c.decoder.finish()) {
    handler_.on_line(fragment->text, true);
    handler_.on_read_end();
  }
  c.dead = true;
}

void ConnLoop::handle_read(Conn& c) {
  char buf[65536];
  std::size_t budget = kReadBudgetBytes;
  while (budget > 0 && !c.dead && !stopped()) {
    const ssize_t n =
        ::recv(c.fd.get(), buf, std::min(sizeof(buf), budget), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.dead = true;
      return;
    }
    if (n == 0) {  // orderly EOF
      if (!c.is_http) handle_ingest_eof(c);
      c.dead = true;
      return;
    }
    const auto bytes = static_cast<std::size_t>(n);
    budget -= bytes;
    c.last_activity = Clock::now();
    const std::string_view chunk(buf, bytes);
    add(metrics.bytes_read[c.is_http], bytes);
    if (c.is_http) {
      const auto state = c.parser.consume(chunk);
      if (state == HttpRequestParser::State::kDone) {
        const HttpReply reply = handler_.on_request(c.parser.request());
        if (reply.await_drain) {
          c.awaiting_drain = true;
        } else {
          answer(c, reply.route, reply.status, reply.content_type, reply.body,
                 reply.headers);
        }
        return;
      }
      if (state == HttpRequestParser::State::kError) {
        answer(c, "other", c.parser.error_status(), "text/plain",
               c.parser.error() + "\n");
        return;
      }
      continue;
    }
    if (c.mode == Conn::WireMode::kUndecided) {
      // 0xB1 cannot start a text record, so the dispatch is unambiguous.
      c.mode = static_cast<unsigned char>(chunk.front()) == kFrameMagic0
                   ? Conn::WireMode::kBinary
                   : Conn::WireMode::kText;
    }
    const bool binary = c.mode == Conn::WireMode::kBinary;
    add(metrics.wire_bytes[binary], bytes);
    if (binary) {
      c.frame_decoder.feed(chunk);
      while (auto result = c.frame_decoder.next()) {
        if (auto* frame = std::get_if<BinaryFrameDecoder::Frame>(&*result)) {
          handler_.on_frame(*frame);
        } else {
          handler_.on_frame_error(std::get<FrameError>(*result));
        }
        if (stopped()) return;
      }
    } else {
      c.decoder.feed(chunk);
      while (!stopped()) {
        const auto line = c.decoder.next();
        if (!line) break;
        handler_.on_line(line->text, line->truncated);
      }
      // Also when stopped mid-read: the lines handed over so far apply.
      handler_.on_read_end();
    }
  }
}

void ConnLoop::answer(
    Conn& c, std::string_view route, int status,
    std::string_view content_type, std::string_view body,
    const std::vector<std::pair<std::string, std::string>>& headers) {
  handler_.on_answered(route, status);
  c.wbuf += http_response(status, content_type, body, headers);
  c.close_after_write = true;
  flush_write(c);
}

void ConnLoop::answer_drain_waiters(int status, std::string_view body) {
  for (const auto& c : conns_) {
    if (c->dead || !c->awaiting_drain) continue;
    c->awaiting_drain = false;
    answer(*c, "/admin/drain", status, "application/json", body);
  }
}

bool ConnLoop::answering() const {
  return std::any_of(conns_.begin(), conns_.end(), [](const auto& c) {
    return !c->dead && (c->awaiting_drain || !c->wbuf.empty());
  });
}

void ConnLoop::flush_write(Conn& c) {
  while (c.woff < c.wbuf.size()) {
    const ssize_t n = ::send(c.fd.get(), c.wbuf.data() + c.woff,
                             c.wbuf.size() - c.woff, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      // EPIPE / reset: the client is gone.
      if (errno != EAGAIN && errno != EWOULDBLOCK) c.dead = true;
      return;
    }
    c.woff += static_cast<std::size_t>(n);
    add(metrics.bytes_written[c.is_http], static_cast<std::uint64_t>(n));
  }
  c.wbuf.clear();
  c.woff = 0;
  if (c.close_after_write) c.dead = true;
}

void ConnLoop::sweep_idle(Clock::time_point now) {
  if (limits_.idle_timeout_s <= 0) return;
  const auto timeout = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(limits_.idle_timeout_s));
  for (const auto& c : conns_) {
    // A drain caller is silent by protocol until it is answered, however
    // long the ingest side takes to quiesce.
    if (c->dead || c->awaiting_drain || now - c->last_activity <= timeout) {
      continue;
    }
    if (!c->is_http) handle_ingest_eof(*c);
    c->dead = true;
    add(metrics.idle_timeouts);
  }
}

void ConnLoop::reap() {
  std::array<std::size_t, 2> gone{};
  for (const auto& c : conns_) {
    if (c->dead) ++gone[c->is_http];
  }
  if (gone[0] + gone[1] == 0) return;
  counts_.open.fetch_sub(gone[0] + gone[1], std::memory_order_relaxed);
  counts_.ingest.fetch_sub(gone[0], std::memory_order_relaxed);
  counts_.http.fetch_sub(gone[1], std::memory_order_relaxed);
  std::erase_if(conns_, [](const auto& c) { return c->dead; });
  if (gone[0] > 0) handler_.on_ingest_reaped();
}

void ConnLoop::close_ingest() {
  for (const auto& c : conns_) {
    if (!c->is_http) c->dead = true;
  }
}

void ConnLoop::close_all() {
  for (const auto& c : conns_) c->dead = true;
  reap();
}

ConnLoop::Clock::time_point ConnLoop::step(int ingest_listener,
                                           int http_listener,
                                           bool read_ingest,
                                           std::span<const pollfd> extra,
                                           const ExtraFn& on_extra) {
  pollfds_.clear();
  conn_of_pollfd_.clear();
  pollfds_.push_back({wake_fd_.get(), POLLIN, 0});
  if (!at_cap()) {
    if (ingest_listener >= 0) pollfds_.push_back({ingest_listener, POLLIN, 0});
    if (http_listener >= 0) pollfds_.push_back({http_listener, POLLIN, 0});
  }
  const std::size_t extra_at = pollfds_.size();
  pollfds_.insert(pollfds_.end(), extra.begin(), extra.end());
  const std::size_t conns_at = pollfds_.size();
  for (std::size_t i = 0; i < conns_.size(); ++i) {
    const Conn& c = *conns_[i];
    short events = 0;
    if (c.is_http || read_ingest) events |= POLLIN;
    if (c.woff < c.wbuf.size()) events |= POLLOUT;
    if (events == 0) continue;  // paused ingest: leave it queued
    pollfds_.push_back({c.fd.get(), events, 0});
    conn_of_pollfd_.push_back(i);
  }

  const int ready = ::poll(pollfds_.data(),
                           static_cast<nfds_t>(pollfds_.size()),
                           kPollTimeoutMs);
  if (ready < 0 && errno != EINTR) {
    throw NetError(std::string("poll: ") + std::strerror(errno));
  }
  const Clock::time_point polled = Clock::now();

  if (pollfds_[0].revents != 0) {
    // One read returns and resets the whole counter: every wake() so far
    // is consumed by this step.
    std::uint64_t wakes = 0;
    [[maybe_unused]] const ssize_t n =
        ::read(wake_fd_.get(), &wakes, sizeof(wakes));
  }
  for (std::size_t i = 1; i < extra_at; ++i) {
    if (pollfds_[i].revents != 0) {
      accept_ready(pollfds_[i].fd, pollfds_[i].fd == http_listener);
    }
  }
  for (std::size_t i = extra_at; i < conns_at; ++i) {
    if (pollfds_[i].revents != 0) on_extra(i - extra_at, pollfds_[i].revents);
  }
  for (std::size_t i = conns_at; i < pollfds_.size(); ++i) {
    const short revents = pollfds_[i].revents;
    Conn& c = *conns_[conn_of_pollfd_[i - conns_at]];
    if (revents == 0 || c.dead) continue;
    if ((revents & (POLLERR | POLLNVAL)) != 0) {
      c.dead = true;
      continue;
    }
    if ((revents & POLLOUT) != 0) flush_write(c);
    if (!c.dead && (revents & (POLLIN | POLLHUP)) != 0) handle_read(c);
  }

  sweep_idle(Clock::now());
  // Reaped after the revents pass, so indices stay stable while handlers
  // run.
  reap();
  set(metrics.active[0], counts_.ingest.load(std::memory_order_relaxed));
  set(metrics.active[1], counts_.http.load(std::memory_order_relaxed));
  return polled;
}

}  // namespace geovalid::serve
