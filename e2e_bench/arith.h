// The benchmark's own arithmetic, kept apart from the I/O so that
// selftest.cpp can check it: percentiles and the tail rule, open-loop
// due-time accounting, VmHWM parsing, and the event-stream hash.
#pragma once

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "stream/event.h"

namespace e2e {

/// ceil(p% of n), robust to p/100*n landing a rounding error above an
/// integer (99.9% of 10000 is 9990.000000000002 in doubles).
inline std::size_t nearest_rank(std::size_t n, double p) {
  return static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
}

/// Nearest-rank percentile of `v` (0 < p <= 100): the smallest sample
/// with at least p% of the samples at or below it. Empty input gives 0.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = std::min(v.size(), nearest_rank(v.size(), p));
  return v[rank == 0 ? 0 : rank - 1];
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 50.0);
}

/// Number of samples strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n - std::min(n, nearest_rank(n, p));
}

/// The tail percentile a timing is reported at: the highest of p50, p90,
/// p99 and p99.9 that still has at least ten samples beyond it, so a tail
/// figure never rests on fewer than ten observations. 0 when even the
/// median has fewer than ten samples beyond it (n < 20).
inline double tail_percentile_rank(std::size_t n) {
  constexpr std::array<double, 4> kRanks = {99.9, 99.0, 90.0, 50.0};
  for (const double p : kRanks) {
    if (samples_beyond(n, p) >= 10) return p;
  }
  return 0.0;
}

/// One open-loop request: when it was due, when the generator actually
/// sent it, and when its response was complete (all on one clock).
struct DueSample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

/// Latency as the user sees it under an open loop: from the scheduled
/// send time, so a stall also charges the requests queued behind it.
inline double latency_from_due(const DueSample& s) { return s.done - s.due; }

/// How late the generator itself ran (never negative: early sends wait).
inline double lateness(const DueSample& s) {
  return std::max(0.0, s.sent - s.due);
}

/// The peak resident set ("VmHWM:  123456 kB") from the text of
/// /proc/<pid>/status, in kB. nullopt when the line is missing (a zombie
/// has released its memory map) or malformed.
inline std::optional<std::uint64_t> parse_vmhwm_kb(std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    std::size_t eol = status.find('\n', pos);
    if (eol == std::string_view::npos) eol = status.size();
    std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    line.remove_prefix(kKey.size());
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t')) {
      line.remove_prefix(1);
    }
    std::uint64_t kb = 0;
    const auto [end, ec] =
        std::from_chars(line.data(), line.data() + line.size(), kb);
    if (ec != std::errc{} || end == line.data()) return std::nullopt;
    const std::string_view unit =
        line.substr(static_cast<std::size_t>(end - line.data()));
    if (unit != " kB") return std::nullopt;
    return kb;
  }
  return std::nullopt;
}

/// FNV-1a (64-bit) over every field the system under test receives, in
/// stream order: the provenance fingerprint of a generated workload.
class StreamHash {
 public:
  void add(const geovalid::stream::Event& e) {
    using Kind = geovalid::stream::Event::Kind;
    bytes(static_cast<std::uint8_t>(e.kind));
    bytes(e.user);
    if (e.kind == Kind::kGps) {
      bytes(e.gps.t);
      bytes(e.gps.position.lat_deg);
      bytes(e.gps.position.lon_deg);
      bytes(static_cast<std::uint8_t>(e.gps.has_fix));
      bytes(e.gps.wifi_fingerprint);
      bytes(e.gps.accel_variance);
    } else {
      bytes(e.checkin.t);
      bytes(e.checkin.poi);
      bytes(static_cast<std::uint8_t>(e.checkin.category));
      bytes(e.checkin.location.lat_deg);
      bytes(e.checkin.location.lon_deg);
    }
  }

  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  template <typename T>
  void bytes(const T& v) {
    unsigned char raw[sizeof(T)];
    std::memcpy(raw, &v, sizeof(T));
    for (const unsigned char b : raw) {
      h_ ^= b;
      h_ *= 0x100000001b3ULL;
    }
  }

  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t hash_events(std::span<const geovalid::stream::Event> es) {
  StreamHash h;
  for (const auto& e : es) h.add(e);
  return h.value();
}

}  // namespace e2e
