#include "serve/wire.h"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
#include <type_traits>

#include "stream/snapshot_io.h"
#include "trace/csv.h"
#include "trace/poi.h"

namespace geovalid::serve {
namespace {

// The field grammar shared with the CSV reader (trace/csv.h).
using trace::parse_double_field;
using trace::parse_int_field;

WireError err(const char* what) { return WireError{what}; }

void append_num(std::string& out, double v) {
  char buf[40];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

template <typename T>
void append_num(std::string& out, T v) {
  char buf[24];
  const auto [p, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(p - buf));
}

}  // namespace

WireResult parse_wire_record(std::string_view line) {
  std::array<std::string_view, 9> f;
  const std::size_t n = trace::split_fields(line, f);
  if (n == 0 || f[0].empty()) return err("empty record");
  if (f[0] == "gps") {
    if (n != 8) return err("gps record expects 8 fields");
    trace::UserId user = 0;
    trace::GpsPoint p;
    int has_fix = 0;
    if (!parse_int_field(f[1], user)) return err("bad user field");
    if (!parse_int_field(f[2], p.t)) return err("bad t field");
    if (!parse_double_field(f[3], p.position.lat_deg)) {
      return err("bad lat field");
    }
    if (!parse_double_field(f[4], p.position.lon_deg)) {
      return err("bad lon field");
    }
    if (!parse_int_field(f[5], has_fix)) return err("bad has_fix field");
    p.has_fix = has_fix != 0;
    if (!parse_int_field(f[6], p.wifi_fingerprint)) {
      return err("bad wifi field");
    }
    if (!parse_double_field(f[7], p.accel_variance)) {
      return err("bad accel_var field");
    }
    return stream::Event::gps_sample(user, p);
  }
  if (f[0] == "checkin") {
    if (n != 7) return err("checkin record expects 7 fields");
    trace::UserId user = 0;
    trace::Checkin c;
    if (!parse_int_field(f[1], user)) return err("bad user field");
    if (!parse_int_field(f[2], c.t)) return err("bad t field");
    if (!parse_int_field(f[3], c.poi)) return err("bad poi field");
    const auto category = trace::parse_poi_category(f[4]);
    if (!category) return err("unknown category");
    c.category = *category;
    if (!parse_double_field(f[5], c.location.lat_deg)) {
      return err("bad lat field");
    }
    if (!parse_double_field(f[6], c.location.lon_deg)) {
      return err("bad lon field");
    }
    return stream::Event::checkin_event(user, c);
  }
  return err("unknown record kind");
}

void append_wire_record(std::string& out, const stream::Event& e) {
  if (e.kind == stream::Event::Kind::kGps) {
    out += "gps,";
    append_num(out, e.user);
    out += ',';
    append_num(out, e.gps.t);
    out += ',';
    append_num(out, e.gps.position.lat_deg);
    out += ',';
    append_num(out, e.gps.position.lon_deg);
    out += ',';
    out += e.gps.has_fix ? '1' : '0';
    out += ',';
    append_num(out, e.gps.wifi_fingerprint);
    out += ',';
    append_num(out, e.gps.accel_variance);
  } else {
    out += "checkin,";
    append_num(out, e.user);
    out += ',';
    append_num(out, e.checkin.t);
    out += ',';
    append_num(out, e.checkin.poi);
    out += ',';
    out += trace::to_string(e.checkin.category);
    out += ',';
    append_num(out, e.checkin.location.lat_deg);
    out += ',';
    append_num(out, e.checkin.location.lon_deg);
  }
  out += '\n';
}

std::string format_wire_record(const stream::Event& e) {
  std::string out;
  append_wire_record(out, e);
  return out;
}

void LineDecoder::feed(std::string_view data) {
  // Compact the consumed prefix before growing: the buffer then stays
  // bounded by one partial line plus one recv chunk.
  if (pos_ > 0 && pos_ >= 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

std::optional<LineDecoder::Line> LineDecoder::next() {
  while (true) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (discarding_) {
      if (nl == std::string::npos) {
        // Still inside the oversized line: drop what we have.
        buf_.clear();
        pos_ = 0;
        return std::nullopt;
      }
      pos_ = nl + 1;
      discarding_ = false;
      continue;
    }
    if (nl == std::string::npos) {
      if (buffered() > max_line_bytes_) {
        // Cap blown with no terminator in sight: surface the prefix once,
        // then discard until the line finally ends.
        const Line line{
            std::string_view(buf_).substr(pos_, max_line_bytes_), true};
        pos_ = buf_.size();
        discarding_ = true;
        return line;
      }
      return std::nullopt;
    }
    std::string_view text = std::string_view(buf_).substr(pos_, nl - pos_);
    if (!text.empty() && text.back() == '\r') text.remove_suffix(1);
    pos_ = nl + 1;
    if (text.size() > max_line_bytes_) {
      return Line{text.substr(0, max_line_bytes_), true};
    }
    return Line{text, false};
  }
}

std::optional<LineDecoder::Line> LineDecoder::finish() {
  std::optional<Line> out;
  if (!discarding_ && buffered() > 0) {
    // An unterminated trailing fragment: the peer disconnected mid-record.
    // Reported as truncated — it is not a complete line.
    std::string_view text = std::string_view(buf_).substr(pos_);
    out = Line{text.substr(0, max_line_bytes_), true};
  }
  pos_ = 0;
  discarding_ = false;
  // Note: buf_ must stay alive for the returned view; only the cursor
  // resets here. The next feed() starts clean.
  if (!out) buf_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Binary frames. Byte layout (docs/SERVICE.md is the normative copy):
//
//   offset  size          field
//   0       4             magic 0xB1 'G' 'V' 'F'
//   4       1             version (= 1)
//   5       1             flags (= 0, reserved)
//   6       4             record count, u32 LE, 1..kMaxFrameRecords
//   10      4             payload length, u32 LE, <= kMaxFramePayloadBytes
//   14      payload_len   columnar payload (below)
//   ...     4             CRC32 (IEEE 802.3, snapshot_io's crc32) over
//                         bytes [4, 14 + payload_len) — everything after
//                         the magic, trailer excluded
//
// Payload columns, in order (N = record count, G = gps records, C =
// checkin records, both in wire order):
//
//   kinds      ceil(N/8) bytes, LSB-first; bit set = checkin
//   user       N x varint
//   t          N x zigzag varint, delta vs. the previous record's t
//   gps.lat    G x f64 (bit-cast u64 LE — bit-exact, like snapshot_io)
//   gps.lon    G x f64
//   gps.has_fix   ceil(G/8) bytes, LSB-first
//   gps.wifi   G x varint
//   gps.accel  G x f64
//   ck.poi     C x varint
//   ck.category   C x u8 (< kPoiCategoryCount)
//   ck.lat     C x f64
//   ck.lon     C x f64
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kFrameHeaderBytes = 14;
constexpr std::size_t kFrameTrailerBytes = 4;

/// Hex prefix length of a rejected frame's dead-letter detail.
constexpr std::size_t kHexDetailBytes = 32;

/// Varint bytes an unsigned value of `bits` bits can need: seven per byte.
constexpr std::size_t varint_max_bytes(int bits) {
  return static_cast<std::size_t>(bits + 6) / 7;
}

using WifiFingerprint = decltype(trace::GpsPoint::wifi_fingerprint);
static_assert(std::is_unsigned_v<trace::UserId> &&
                  std::is_unsigned_v<trace::PoiId> &&
                  std::is_unsigned_v<WifiFingerprint>,
              "varint columns carry unsigned ids");

/// The widest bytes one record adds to the payload, from the field types:
/// its user varint, a full 64-bit zigzag time delta, and the wider of a
/// GPS row (three f64 and the wifi varint) and a check-in row (POI
/// varint, category byte, two f64). The bitmaps are counted per frame.
constexpr std::size_t kMaxRecordBytes =
    varint_max_bytes(std::numeric_limits<trace::UserId>::digits) +
    varint_max_bytes(64) +
    std::max(3 * sizeof(double) +
                 varint_max_bytes(std::numeric_limits<WifiFingerprint>::digits),
             varint_max_bytes(std::numeric_limits<trace::PoiId>::digits) + 1 +
                 2 * sizeof(double));

/// Upper bound on an `n`-record payload: both bitmaps at a bit per
/// record plus every record at its widest.
constexpr std::size_t max_payload_bytes(std::size_t n) {
  return 2 * ((n + 7) / 8) + n * kMaxRecordBytes;
}

// Every frame the encoder can write is one the decoder accepts.
static_assert(max_payload_bytes(kMaxFrameRecords) <= kMaxFramePayloadBytes,
              "widest encodable frame exceeds the payload cap");

// The encoder writes through a raw cursor into a buffer already sized to
// the frame's upper bound; each put_* returns the advanced cursor.

char* put_u32(char* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    *p++ = static_cast<char>((v >> (8 * i)) & 0xFF);
  }
  return p;
}

char* put_varint(char* p, std::uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  *p++ = static_cast<char>(v);
  return p;
}

char* put_zigzag(char* p, std::int64_t v) {
  return put_varint(p, (static_cast<std::uint64_t>(v) << 1) ^
                           static_cast<std::uint64_t>(v >> 63));
}

char* put_f64(char* p, double v) {
  auto bits = std::bit_cast<std::uint64_t>(v);
  if constexpr (std::endian::native == std::endian::big) {
    bits = __builtin_bswap64(bits);
  }
  std::memcpy(p, &bits, sizeof(bits));
  return p + sizeof(bits);
}

std::uint32_t read_u32(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

/// Bounds-checked cursor over a frame payload. Every read either succeeds
/// or flips `ok` — the decode loop checks once at the end, so a short or
/// overlong payload surfaces as one `bad_payload` rejection, never a read
/// past the buffer.
struct PayloadReader {
  const unsigned char* p;
  std::size_t n;
  std::size_t off = 0;
  bool ok = true;

  bool need(std::size_t k) {
    if (n - off < k) {
      ok = false;
      return false;
    }
    return true;
  }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return p[off++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (!need(1)) return 0;
      const std::uint8_t byte = p[off++];
      v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        // Reject non-canonical 10th bytes that would shift bits past 63.
        if (shift == 63 && byte > 1) ok = false;
        return v;
      }
    }
    ok = false;  // unterminated varint
    return 0;
  }

  std::int64_t zigzag() {
    const std::uint64_t v = varint();
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
  }

  double f64() {
    if (!need(8)) return 0.0;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(p[off + i]) << (8 * i);
    }
    off += 8;
    return std::bit_cast<double>(bits);
  }
};

std::string hex_prefix(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  const std::size_t n = std::min(bytes.size(), kHexDetailBytes);
  std::string out;
  out.reserve(n * 2);
  for (std::size_t i = 0; i < n; ++i) {
    const auto b = static_cast<unsigned char>(bytes[i]);
    out.push_back(kDigits[b >> 4]);
    out.push_back(kDigits[b & 0xF]);
  }
  return out;
}

std::string frame_detail(FrameErrorKind kind, std::string_view bytes) {
  std::string detail(to_string(kind));
  detail += " bytes=";
  char buf[24];
  const auto [p, ec] =
      std::to_chars(buf, buf + sizeof(buf), bytes.size());
  detail.append(buf, static_cast<std::size_t>(p - buf));
  detail += " hex=";
  detail += hex_prefix(bytes);
  return detail;
}

}  // namespace

std::string_view to_string(FrameErrorKind kind) {
  switch (kind) {
    case FrameErrorKind::kBadMagic:
      return "bad_magic";
    case FrameErrorKind::kBadVersion:
      return "bad_version";
    case FrameErrorKind::kBadHeader:
      return "bad_header";
    case FrameErrorKind::kCrcMismatch:
      return "crc_mismatch";
    case FrameErrorKind::kBadPayload:
      return "bad_payload";
    case FrameErrorKind::kTruncated:
      return "truncated";
  }
  return "unknown";
}

void append_binary_frame(std::string& out,
                         std::span<const stream::Event> events) {
  if (events.empty() || events.size() > kMaxFrameRecords) return;
  const std::size_t n = events.size();

  // Sized once to the widest frame these records could make, filled
  // through a cursor, then trimmed to the bytes actually written.
  const std::size_t header_at = out.size();
  out.resize(header_at + kFrameHeaderBytes + max_payload_bytes(n) +
             kFrameTrailerBytes);
  char* const frame = out.data() + header_at;
  char* const payload = frame + kFrameHeaderBytes;
  char* p = payload;

  // kinds bitmap
  for (std::size_t i = 0; i < n; i += 8) {
    unsigned byte = 0;
    for (std::size_t j = 0; j < 8 && i + j < n; ++j) {
      if (events[i + j].kind == stream::Event::Kind::kCheckin) {
        byte |= 1u << j;
      }
    }
    *p++ = static_cast<char>(byte);
  }
  for (const stream::Event& e : events) p = put_varint(p, e.user);
  std::int64_t prev_t = 0;
  for (const stream::Event& e : events) {
    const std::int64_t t = e.time();
    // Unsigned subtraction: the delta wraps instead of overflowing, and
    // the decoder's matching unsigned addition wraps it back bit-exactly.
    p = put_zigzag(p, static_cast<std::int64_t>(
                          static_cast<std::uint64_t>(t) -
                          static_cast<std::uint64_t>(prev_t)));
    prev_t = t;
  }

  // gps columns
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      p = put_f64(p, e.gps.position.lat_deg);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      p = put_f64(p, e.gps.position.lon_deg);
    }
  }
  {
    unsigned byte = 0;
    std::size_t bit = 0;
    for (const stream::Event& e : events) {
      if (e.kind != stream::Event::Kind::kGps) continue;
      if (e.gps.has_fix) byte |= 1u << (bit % 8);
      if (++bit % 8 == 0) {
        *p++ = static_cast<char>(byte);
        byte = 0;
      }
    }
    if (bit % 8 != 0) *p++ = static_cast<char>(byte);
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      p = put_varint(p, e.gps.wifi_fingerprint);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kGps) {
      p = put_f64(p, e.gps.accel_variance);
    }
  }

  // checkin columns
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      p = put_varint(p, e.checkin.poi);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      *p++ = static_cast<char>(e.checkin.category);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      p = put_f64(p, e.checkin.location.lat_deg);
    }
  }
  for (const stream::Event& e : events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      p = put_f64(p, e.checkin.location.lon_deg);
    }
  }

  // Header last, now that payload_len is known; then seal with the CRC
  // over version..payload.
  const auto payload_len = static_cast<std::uint32_t>(p - payload);
  std::memcpy(frame, kFrameMagic.data(), kFrameMagic.size());
  frame[4] = static_cast<char>(kFrameVersion);
  frame[5] = '\0';  // flags
  put_u32(frame + 6, static_cast<std::uint32_t>(n));
  put_u32(frame + 10, payload_len);
  p = put_u32(p, stream::crc32(std::string_view(frame + 4, 10 + payload_len)));
  out.resize(static_cast<std::size_t>(p - out.data()));
}

void BinaryFrameDecoder::feed(std::string_view data) {
  // Same compaction policy as LineDecoder: the buffer stays bounded by
  // one partial frame plus one recv chunk.
  if (pos_ > 0 && pos_ >= 4096) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data);
}

FrameError BinaryFrameDecoder::resync_error(FrameErrorKind kind) {
  // The header cannot be trusted (wrong magic/version/caps), so its length
  // field cannot either: discard up to the next 0xB1 candidate — exactly
  // how LineDecoder abandons an oversized line at the next newline.
  const std::string_view rest = std::string_view(buf_).substr(pos_);
  const std::size_t next = rest.find(static_cast<char>(kFrameMagic0), 1);
  const std::size_t skip = next == std::string_view::npos ? rest.size() : next;
  FrameError error{kind, frame_detail(kind, rest.substr(0, skip))};
  pos_ += skip;
  return error;
}

std::optional<BinaryFrameDecoder::Result> BinaryFrameDecoder::next() {
  const std::size_t avail = buffered();
  if (avail == 0) return std::nullopt;
  const auto* data =
      reinterpret_cast<const unsigned char*>(buf_.data()) + pos_;

  // Magic: check however much of it has arrived; a mismatch anywhere in
  // the first four bytes means these bytes are not a frame.
  for (std::size_t i = 0; i < std::min(avail, kFrameMagic.size()); ++i) {
    if (data[i] != kFrameMagic[i]) {
      return resync_error(FrameErrorKind::kBadMagic);
    }
  }
  if (avail < kFrameHeaderBytes) return std::nullopt;

  if (data[4] != kFrameVersion) {
    return resync_error(FrameErrorKind::kBadVersion);
  }
  const std::uint32_t count = read_u32(data + 6);
  const std::uint32_t payload_len = read_u32(data + 10);
  if (data[5] != 0 || count == 0 || count > kMaxFrameRecords ||
      payload_len > kMaxFramePayloadBytes) {
    return resync_error(FrameErrorKind::kBadHeader);
  }
  const std::size_t total =
      kFrameHeaderBytes + payload_len + kFrameTrailerBytes;
  if (avail < total) return std::nullopt;

  // From here the length field is covered by the CRC check below, so a
  // rejected frame is skipped wholesale: pos_ advances past `total` on
  // every path, and the next frame decodes untouched.
  const std::string_view frame = std::string_view(buf_).substr(pos_, total);
  pos_ += total;

  const std::uint32_t crc =
      stream::crc32(frame.substr(4, 10 + payload_len));
  if (crc != read_u32(data + kFrameHeaderBytes + payload_len)) {
    return FrameError{FrameErrorKind::kCrcMismatch,
                      frame_detail(FrameErrorKind::kCrcMismatch, frame)};
  }

  // The smallest payload `count` records fit in: the kind bitmap plus one
  // varint byte each for user and timestamp. Checked before sizing the
  // output, so a tiny frame cannot claim an allocation it cannot fill.
  if (payload_len < (count + 7) / 8 + 2 * std::uint64_t{count}) {
    return FrameError{FrameErrorKind::kBadPayload,
                      frame_detail(FrameErrorKind::kBadPayload, frame)};
  }
  PayloadReader r{data + kFrameHeaderBytes, payload_len};
  Frame out;
  out.wire_bytes = total;
  out.events.resize(count);

  const std::size_t kind_bytes = (count + 7) / 8;
  std::size_t checkins = 0;
  if (r.need(kind_bytes)) {
    for (std::size_t i = 0; i < count; ++i) {
      const bool is_checkin =
          (r.p[r.off + i / 8] >> (i % 8)) & 1;
      if (is_checkin) {
        out.events[i] = stream::Event::checkin_event(0, {});
        ++checkins;
      }
    }
    r.off += kind_bytes;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t user = r.varint();
    if (user > std::numeric_limits<trace::UserId>::max()) r.ok = false;
    out.events[i].user = static_cast<trace::UserId>(user);
  }
  std::int64_t prev_t = 0;
  for (std::size_t i = 0; i < count; ++i) {
    prev_t = static_cast<std::int64_t>(static_cast<std::uint64_t>(prev_t) +
                                       static_cast<std::uint64_t>(r.zigzag()));
    stream::Event& e = out.events[i];
    if (e.kind == stream::Event::Kind::kGps) {
      e.gps.t = prev_t;
    } else {
      e.checkin.t = prev_t;
    }
  }

  // gps columns
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kGps) e.gps.position.lat_deg = r.f64();
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kGps) e.gps.position.lon_deg = r.f64();
  }
  {
    const std::size_t gps = count - checkins;
    const std::size_t fix_bytes = (gps + 7) / 8;
    if (r.need(fix_bytes)) {
      std::size_t bit = 0;
      for (stream::Event& e : out.events) {
        if (e.kind != stream::Event::Kind::kGps) continue;
        e.gps.has_fix = (r.p[r.off + bit / 8] >> (bit % 8)) & 1;
        ++bit;
      }
      r.off += fix_bytes;
    }
  }
  for (stream::Event& e : out.events) {
    if (e.kind != stream::Event::Kind::kGps) continue;
    const std::uint64_t wifi = r.varint();
    if (wifi > std::numeric_limits<std::uint32_t>::max()) r.ok = false;
    e.gps.wifi_fingerprint = static_cast<std::uint32_t>(wifi);
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kGps) e.gps.accel_variance = r.f64();
  }

  // checkin columns
  for (stream::Event& e : out.events) {
    if (e.kind != stream::Event::Kind::kCheckin) continue;
    const std::uint64_t poi = r.varint();
    if (poi > std::numeric_limits<trace::PoiId>::max()) r.ok = false;
    e.checkin.poi = static_cast<trace::PoiId>(poi);
  }
  for (stream::Event& e : out.events) {
    if (e.kind != stream::Event::Kind::kCheckin) continue;
    const std::uint8_t category = r.u8();
    if (category >= trace::kPoiCategoryCount) r.ok = false;
    e.checkin.category = static_cast<trace::PoiCategory>(category);
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      e.checkin.location.lat_deg = r.f64();
    }
  }
  for (stream::Event& e : out.events) {
    if (e.kind == stream::Event::Kind::kCheckin) {
      e.checkin.location.lon_deg = r.f64();
    }
  }

  if (!r.ok || r.off != payload_len) {
    return FrameError{FrameErrorKind::kBadPayload,
                      frame_detail(FrameErrorKind::kBadPayload, frame)};
  }
  return Result{std::move(out)};
}

std::optional<FrameError> BinaryFrameDecoder::finish() {
  std::optional<FrameError> out;
  if (buffered() > 0) {
    // An incomplete trailing frame: the peer disconnected mid-frame.
    out = FrameError{
        FrameErrorKind::kTruncated,
        frame_detail(FrameErrorKind::kTruncated,
                     std::string_view(buf_).substr(pos_))};
  }
  buf_.clear();
  pos_ = 0;
  return out;
}

}  // namespace geovalid::serve
