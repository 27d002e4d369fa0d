#include "cluster/forwarder.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "serve/wire.h"

namespace geovalid::cluster {
namespace {

using Clock = std::chrono::steady_clock;

/// Coalescing cap for text spool entries: big enough to amortize the
/// per-entry overhead, small enough that one entry never dominates the
/// byte budget.
constexpr std::size_t kSpoolCoalesceBytes = 64 * 1024;

}  // namespace

const char* to_string(BackendState state) {
  switch (state) {
    case BackendState::kDown:
      return "down";
    case BackendState::kRecovering:
      return "recovering";
    case BackendState::kSuspect:
      return "suspect";
    case BackendState::kUp:
      return "up";
  }
  return "unknown";
}

bool Forwarder::connect() noexcept {
  try {
    fd_ = serve::tcp_connect_deadline(addr_.host, addr_.ingest_port,
                                      connect_timeout_ms_);
  } catch (const serve::NetError&) {
    fd_.reset();
    state_ = BackendState::kDown;
    return false;
  }
  if (ever_connected_) ++reconnects;
  ever_connected_ = true;
  // Not up yet: the router promotes once a probe passes and the replay
  // decision (drain vs. discard the spool) has been made.
  state_ = BackendState::kRecovering;
  return true;
}

double Forwarder::spool_age_seconds(Clock::time_point now) const {
  if (spool_.empty()) return 0.0;
  return std::chrono::duration<double>(now - spool_.front().queued_at)
      .count();
}

void Forwarder::spool_push(std::string bytes, std::uint64_t records,
                           bool frame) {
  spooled_total += records;
  spool_bytes_ += bytes.size();
  spool_records_ += records;
  if (!frame && !spool_.empty() && !spool_.back().frame &&
      spool_.back().bytes.size() < kSpoolCoalesceBytes) {
    spool_.back().bytes += bytes;
    spool_.back().records += records;
    return;
  }
  SpoolEntry entry;
  entry.bytes = std::move(bytes);
  entry.records = records;
  entry.frame = frame;
  entry.queued_at = Clock::now();
  spool_.push_back(std::move(entry));
}

void Forwarder::on_injected(const stream::NetFaultInjector::Triggered& t) {
  if (t.reset) inject_reset_ = true;
  if (t.drop) inject_drop_ = true;
  if (t.stall_millis > 0) {
    const Clock::time_point until =
        Clock::now() + std::chrono::milliseconds(t.stall_millis);
    if (until > stall_until_) stall_until_ = until;
  }
}

void Forwarder::enqueue(std::string_view line) {
  if (fault_injector_ != nullptr) {
    on_injected(fault_injector_->on_records(addr_.name, 1));
  }
  if (state_ != BackendState::kUp || !fd_.valid()) {
    std::string bytes;
    bytes.reserve(line.size() + 1);
    bytes.append(line.data(), line.size());
    bytes.push_back('\n');
    spool_push(std::move(bytes), 1, /*frame=*/false);
    return;
  }
  ++forwarded;
  buf_.append(line.data(), line.size());
  buf_.push_back('\n');
  const auto size = static_cast<std::uint32_t>(line.size() + 1);
  tpending_.push_back(Pending{size, size, 1});
}

bool Forwarder::ensure_binary_channel() noexcept {
  if (bfd_.valid()) return true;
  // Lazy second connection: the backend negotiates per connection from
  // the first byte, so binary frames need their own socket — the frame
  // magic 0xB1 the first flush sends is the negotiation.
  try {
    bfd_ = serve::tcp_connect_deadline(addr_.host, addr_.ingest_port,
                                       connect_timeout_ms_);
  } catch (const serve::NetError&) {
    bfd_.reset();
    return false;
  }
  return true;
}

void Forwarder::enqueue_frame(std::string_view frame, std::uint64_t records) {
  // Pending keeps 32-bit counts; one frame carries at most
  // kMaxFrameRecords records, so anything above that is a caller bug.
  if (records > serve::kMaxFrameRecords) {
    throw std::logic_error("enqueue_frame: " + std::to_string(records) +
                           " records exceed one frame's limit");
  }
  if (fault_injector_ != nullptr) {
    on_injected(fault_injector_->on_records(addr_.name, records));
  }
  if (state_ != BackendState::kUp || !fd_.valid()) {
    spool_push(std::string(frame), records, /*frame=*/true);
    return;
  }
  if (!ensure_binary_channel()) {
    // The backend accepts no new connections: treat it like any other
    // connection failure — spool the frame and start recovery.
    spool_push(std::string(frame), records, /*frame=*/true);
    sever();
    return;
  }
  forwarded += records;
  bbuf_.append(frame.data(), frame.size());
  const auto size = static_cast<std::uint32_t>(frame.size());
  bpending_.push_back(
      Pending{size, size, static_cast<std::uint32_t>(records)});
}

/// Non-blocking send of one channel's pending bytes, crediting the
/// per-record accounting. Returns false on a fatal socket error
/// (EPIPE/ECONNRESET/anything unexpected) — the caller severs the whole
/// forwarder; a backend that lost one channel has lost the process
/// behind both.
bool Forwarder::flush_channel(serve::Fd& fd, std::string& buf,
                              std::size_t& off,
                              std::deque<Pending>& pending) {
  while (off < buf.size()) {
    const ssize_t n = ::send(fd.get(), buf.data() + off, buf.size() - off,
                             MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      // Credit sent bytes against the oldest pending entries; an entry
      // stays until fully sent so salvage can re-queue it whole.
      std::size_t sent = static_cast<std::size_t>(n);
      while (sent > 0 && !pending.empty()) {
        Pending& p = pending.front();
        const std::uint32_t take = static_cast<std::uint32_t>(
            std::min<std::size_t>(sent, p.left));
        p.left -= take;
        sent -= take;
        if (p.left == 0) pending.pop_front();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (pending.empty()) {
    buf.clear();
    off = 0;
  } else if (off > 256 * 1024) {
    // Compact only up to the first byte of the oldest pending entry: its
    // already-sent head must survive in the buffer for salvage.
    const std::size_t keep_from =
        off - (pending.front().size - pending.front().left);
    if (keep_from > 0) {
      buf.erase(0, keep_from);
      off -= keep_from;
    }
  }
  return true;
}

void Forwarder::flush() {
  if (!sending()) return;
  if (inject_reset_) {
    // Simulated ECONNRESET from `netreset=`: the next flush fails
    // abruptly, exactly as if the kernel reported the peer reset.
    inject_reset_ = false;
    sever();
    return;
  }
  if (inject_drop_) {
    // Simulated severed link from `netdrop=`: FIN both channels without
    // telling the forwarder. The router's normal peer-EOF detection (or
    // the next send's EPIPE) discovers it, exercising the passive path.
    inject_drop_ = false;
    if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);
    if (bfd_.valid()) ::shutdown(bfd_.get(), SHUT_RDWR);
    return;
  }
  if (stall_until_ != Clock::time_point{} && Clock::now() < stall_until_) {
    // Simulated kernel stall from `netstall=`: behave as if every send
    // returned EAGAIN until the window passes.
    return;
  }
  if (!flush_channel(fd_, buf_, off_, tpending_)) {
    sever();
    return;
  }
  if (bfd_.valid() && boff_ < bbuf_.size()) {
    if (!flush_channel(bfd_, bbuf_, boff_, bpending_)) sever();
  }
}

void Forwarder::salvage_channel(std::string& buf, std::size_t& off,
                                std::deque<Pending>& pending, bool frame,
                                std::deque<SpoolEntry>& out) {
  if (!pending.empty()) {
    // The oldest entry may be partially sent; its whole bytes start at
    // off minus the sent head. Everything the kernel accepted before
    // that boundary was a complete record on a connection we are closing
    // in order, so it is the backend's; the partial entry's delivered
    // head dead-letters there as a truncated fragment, and the replayed
    // whole copy is applied exactly once.
    std::size_t pos = off - (pending.front().size - pending.front().left);
    if (frame) {
      for (const Pending& p : pending) {
        SpoolEntry entry;
        entry.bytes = buf.substr(pos, p.size);
        entry.records = p.records;
        entry.frame = true;
        entry.queued_at = Clock::now();
        out.push_back(std::move(entry));
        pos += p.size;
      }
    } else {
      SpoolEntry entry;
      entry.bytes = buf.substr(pos);
      for (const Pending& p : pending) entry.records += p.records;
      entry.frame = false;
      entry.queued_at = Clock::now();
      out.push_back(std::move(entry));
    }
  }
  buf.clear();
  off = 0;
  pending.clear();
}

void Forwarder::sever() {
  std::deque<SpoolEntry> salvaged;
  salvage_channel(buf_, off_, tpending_, /*frame=*/false, salvaged);
  salvage_channel(bbuf_, boff_, bpending_, /*frame=*/true, salvaged);
  // Salvaged bytes predate anything spooled while suspect: front of the
  // FIFO, original order preserved.
  for (auto it = salvaged.rbegin(); it != salvaged.rend(); ++it) {
    spool_bytes_ += it->bytes.size();
    spool_records_ += it->records;
    spooled_total += it->records;
    spool_.push_front(std::move(*it));
  }
  fd_.reset();
  bfd_.reset();
  state_ = BackendState::kDown;
}

bool Forwarder::drain_spool() {
  while (!spool_.empty()) {
    SpoolEntry& e = spool_.front();
    if (e.frame) {
      if (!ensure_binary_channel()) {
        sever();
        return false;
      }
      forwarded += e.records;
      bbuf_.append(e.bytes);
      const auto size = static_cast<std::uint32_t>(e.bytes.size());
      bpending_.push_back(
          Pending{size, size, static_cast<std::uint32_t>(e.records)});
    } else {
      // Re-establish per-record accounting: coalesced text splits back
      // into one pending entry per line, so a later salvage still lands
      // on record boundaries.
      forwarded += e.records;
      buf_.append(e.bytes);
      std::size_t start = 0;
      while (start < e.bytes.size()) {
        const char* nl = static_cast<const char*>(std::memchr(
            e.bytes.data() + start, '\n', e.bytes.size() - start));
        const std::size_t end =
            nl == nullptr ? e.bytes.size()
                          : static_cast<std::size_t>(nl - e.bytes.data()) + 1;
        const auto size = static_cast<std::uint32_t>(end - start);
        tpending_.push_back(Pending{size, size, 1});
        start = end;
      }
    }
    spool_bytes_ -= e.bytes.size();
    spool_records_ -= e.records;
    spool_.pop_front();
  }
  return true;
}

std::uint64_t Forwarder::discard_spool() {
  const std::uint64_t count = spool_records_;
  superseded += count;
  spool_.clear();
  spool_bytes_ = 0;
  spool_records_ = 0;
  return count;
}

void Forwarder::close() {
  // Deliberate teardown: whatever is still queued has no re-delivery
  // path from here, so the loss is counted, never silent.
  for (const Pending& p : tpending_) dropped += p.records;
  for (const Pending& p : bpending_) dropped += p.records;
  dropped += spool_records_;
  fd_.reset();
  bfd_.reset();
  buf_.clear();
  off_ = 0;
  tpending_.clear();
  bbuf_.clear();
  boff_ = 0;
  bpending_.clear();
  spool_.clear();
  spool_bytes_ = 0;
  spool_records_ = 0;
  state_ = BackendState::kDown;
}

bool Forwarder::replace(BackendAddr addr) noexcept {
  // The rebalance re-send supersedes everything queued for the old
  // process: discard without counting dropped.
  fd_.reset();
  bfd_.reset();
  for (const Pending& p : tpending_) superseded += p.records;
  for (const Pending& p : bpending_) superseded += p.records;
  buf_.clear();
  off_ = 0;
  tpending_.clear();
  bbuf_.clear();
  boff_ = 0;
  bpending_.clear();
  (void)discard_spool();
  state_ = BackendState::kDown;
  addr_ = std::move(addr);
  return connect();
}

}  // namespace geovalid::cluster
