#include "trace/csv.h"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <type_traits>
#include <vector>

#include "geo/latlon.h"
#include "obs/metrics.h"

namespace geovalid::trace {
namespace {

namespace fs = std::filesystem;

std::string sanitize(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

/// The row an error is reported against: file and 1-based line number.
struct Where {
  const fs::path& file;
  std::size_t line;
};

[[noreturn]] void fail(const Where& at, const std::string& what) {
  // Counted before throwing so a long-running service that survives a bad
  // dataset still shows the rejection in its metrics.
  obs::registry()
      .counter("trace_ingest_errors_total",
               "CSV dataset rows rejected with an error, by file",
               {{"file", at.file.filename().string()}})
      .inc();
  std::ostringstream os;
  os << at.file.string() << ":" << at.line << ": " << what;
  throw IngestError(os.str());
}

/// Rejects coordinates that parse but are garbage: NaN (strtod happily
/// accepts "nan"), infinities, |lat| > 90, |lon| > 180. Garbage here would
/// otherwise propagate into every geodesic distance downstream.
geo::LatLon checked_latlon(double lat, double lon, const Where& at) {
  const geo::LatLon p{lat, lon};
  if (!geo::is_valid(p)) fail(at, "non-finite or out-of-range coordinates");
  return p;
}

/// Event timestamps must be plausible: non-negative and at most
/// kMaxEventTime, so the matcher's `t + beta` window arithmetic can never
/// overflow std::int64_t.
TimeSec checked_time(TimeSec t, const Where& at) {
  if (t < 0 || t > kMaxEventTime) {
    fail(at, "timestamp out of range [0, kMaxEventTime]");
  }
  return t;
}

/// Rates and variances must be finite and non-negative.
double checked_nonnegative(double v, const char* what, const Where& at) {
  if (!std::isfinite(v) || v < 0.0) {
    fail(at, std::string(what) + " must be finite and non-negative");
  }
  return v;
}

/// Room for the widest row (gps.csv); a longer row splits to 8 and fails
/// its file's field-count check.
using Row = std::array<std::string_view, 7>;

template <typename T>
T parse_num(std::string_view s, const Where& at) {
  T value{};
  if constexpr (std::is_floating_point_v<T>) {
    if (s.size() >= kMaxNumericField) fail(at, "numeric field too long");
    if (!parse_double_field(s, value)) fail(at, "bad floating-point field");
  } else if (!parse_int_field(s, value)) {
    fail(at, "bad integer field");
  }
  return value;
}

/// Calls on_row(fields, where) for each non-empty row of `file` after the
/// header, once the row is known to have exactly `width` fields. A trailing
/// '\r' is stripped first, so files written on Windows (CRLF line endings)
/// parse identically to LF files.
template <typename OnRow>
void for_each_row(const fs::path& file, std::size_t width, OnRow&& on_row) {
  std::ifstream in(file);
  if (!in) throw IngestError("cannot open for read: " + file.string());
  std::string line;
  Where at{file, 1};
  std::getline(in, line);  // header
  Row f;
  while (std::getline(in, line)) {
    ++at.line;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    if (split_fields(line, f) != width) {
      fail(at, "expected " + std::to_string(width) + " fields");
    }
    on_row(f, at);
  }
}

/// One output CSV file. Rows are rendered with std::to_chars into a buffer
/// that is written out whenever it passes kFlushBytes, so a file of any
/// size costs at most about that much memory. Integers print in decimal,
/// doubles as printf's %.{precision}g, strings verbatim.
class CsvFile {
 public:
  CsvFile(const fs::path& path, int precision)
      : path_(path), out_(path), precision_(precision) {
    if (!out_) {
      throw std::runtime_error("cannot open for write: " + path.string());
    }
    buf_.reserve(kFlushBytes + 4096);
  }

  /// Appends one row: the fields joined by commas, then a newline.
  template <typename First, typename... Rest>
  void row(const First& first, const Rest&... rest) {
    put(first);
    ((buf_.push_back(','), put(rest)), ...);
    buf_.push_back('\n');
    if (buf_.size() >= kFlushBytes) flush();
  }

  /// Flushes and closes; throws when any write failed.
  void close() {
    flush();
    out_.close();
    if (!out_) throw std::runtime_error("write failed: " + path_.string());
  }

 private:
  static constexpr std::size_t kFlushBytes = 64 * 1024;

  void put(std::string_view s) { buf_.append(s); }
  void put(double v) {
    char tmp[32];
    const auto [end, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v,
                                         std::chars_format::general,
                                         precision_);
    buf_.append(tmp, end);
  }
  template <typename T>
    requires std::is_integral_v<T>
  void put(T v) {
    char tmp[24];
    const auto [end, ec] = std::to_chars(tmp, tmp + sizeof(tmp), v);
    buf_.append(tmp, end);
  }

  void flush() {
    out_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
    if (!out_) throw std::runtime_error("write failed: " + path_.string());
    buf_.clear();
  }

  fs::path path_;
  std::ofstream out_;
  int precision_;
  std::string buf_;
};

}  // namespace

bool parse_double_field(std::string_view s, double& out) {
  if (s.empty() || s.size() >= kMaxNumericField) return false;
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  if (ec == std::errc{} && ptr == last && std::isfinite(out)) return true;
  char buf[kMaxNumericField];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + s.size();
}

void write_dataset_csv(const Dataset& ds, const fs::path& dir) {
  fs::create_directories(dir);

  {
    CsvFile out(dir / "pois.csv", 10);
    out.row("id,name,category,lat,lon");
    for (const Poi& p : ds.pois().all()) {
      out.row(p.id, sanitize(p.name), to_string(p.category),
              p.location.lat_deg, p.location.lon_deg);
    }
    out.close();
  }
  {
    CsvFile out(dir / "users.csv", 6);
    out.row("id,friends,badges,mayorships,checkins_per_day");
    for (const UserRecord& u : ds.users()) {
      out.row(u.id, u.profile.friends, u.profile.badges, u.profile.mayorships,
              u.profile.checkins_per_day);
    }
    out.close();
  }
  {
    CsvFile out(dir / "gps.csv", 10);
    out.row("user,t,lat,lon,has_fix,wifi,accel_var");
    for (const UserRecord& u : ds.users()) {
      for (const GpsPoint& p : u.gps.points()) {
        out.row(u.id, p.t, p.position.lat_deg, p.position.lon_deg,
                p.has_fix ? 1 : 0, p.wifi_fingerprint, p.accel_variance);
      }
    }
    out.close();
  }
  {
    CsvFile out(dir / "checkins.csv", 10);
    out.row("user,t,poi,category,lat,lon");
    for (const UserRecord& u : ds.users()) {
      for (const Checkin& c : u.checkins.events()) {
        out.row(u.id, c.t, c.poi, to_string(c.category), c.location.lat_deg,
                c.location.lon_deg);
      }
    }
    out.close();
  }
  {
    CsvFile out(dir / "visits.csv", 10);
    out.row("user,start,end,lat,lon,poi");
    for (const UserRecord& u : ds.users()) {
      for (const Visit& v : u.visits) {
        out.row(u.id, v.start, v.end, v.centroid.lat_deg, v.centroid.lon_deg,
                v.poi);
      }
    }
    out.close();
  }
}

Dataset read_dataset_csv(const fs::path& dir, const std::string& name) {
  std::vector<Poi> pois;
  for_each_row(dir / "pois.csv", 5, [&](const Row& f, const Where& at) {
    Poi p;
    p.id = parse_num<PoiId>(f[0], at);
    p.name = std::string(f[1]);
    const auto cat = parse_poi_category(f[2]);
    if (!cat) fail(at, "unknown POI category");
    p.category = *cat;
    p.location = checked_latlon(parse_num<double>(f[3], at),
                                parse_num<double>(f[4], at), at);
    pois.push_back(std::move(p));
  });

  // Users, keyed for trace attachment.
  std::map<UserId, UserRecord> users;
  for_each_row(dir / "users.csv", 5, [&](const Row& f, const Where& at) {
    UserRecord u;
    u.id = parse_num<UserId>(f[0], at);
    u.profile.friends = parse_num<std::uint32_t>(f[1], at);
    u.profile.badges = parse_num<std::uint32_t>(f[2], at);
    u.profile.mayorships = parse_num<std::uint32_t>(f[3], at);
    u.profile.checkins_per_day = checked_nonnegative(
        parse_num<double>(f[4], at), "checkins_per_day", at);
    const UserId id = u.id;
    if (!users.emplace(id, std::move(u)).second) {
      fail(at, "duplicate user id");
    }
  });

  auto require_user = [&users](UserId id, const Where& at) -> UserRecord& {
    const auto it = users.find(id);
    if (it == users.end()) fail(at, "row references unknown user");
    return it->second;
  };

  // GPS points (file is grouped by user, time-ascending per user).
  for_each_row(dir / "gps.csv", 7, [&](const Row& f, const Where& at) {
    const auto id = parse_num<UserId>(f[0], at);
    GpsPoint p;
    p.t = checked_time(parse_num<TimeSec>(f[1], at), at);
    p.position = checked_latlon(parse_num<double>(f[2], at),
                                parse_num<double>(f[3], at), at);
    p.has_fix = parse_num<int>(f[4], at) != 0;
    p.wifi_fingerprint = parse_num<std::uint32_t>(f[5], at);
    p.accel_variance = checked_nonnegative(parse_num<double>(f[6], at),
                                           "accel_var", at);
    UserRecord& u = require_user(id, at);
    // Surface GpsTrace's ordering invariant with file:line context.
    if (!u.gps.points().empty() && p.t < u.gps.points().back().t) {
      fail(at, "GPS timestamps out of order for user");
    }
    u.gps.append(p);
  });

  for_each_row(dir / "checkins.csv", 6, [&](const Row& f, const Where& at) {
    const auto id = parse_num<UserId>(f[0], at);
    Checkin c;
    c.t = checked_time(parse_num<TimeSec>(f[1], at), at);
    c.poi = parse_num<PoiId>(f[2], at);
    const auto cat = parse_poi_category(f[3]);
    if (!cat) fail(at, "unknown POI category");
    c.category = *cat;
    c.location = checked_latlon(parse_num<double>(f[4], at),
                                parse_num<double>(f[5], at), at);
    UserRecord& u = require_user(id, at);
    if (!u.checkins.events().empty() && c.t < u.checkins.events().back().t) {
      fail(at, "checkin timestamps out of order for user");
    }
    u.checkins.append(c);
  });

  for_each_row(dir / "visits.csv", 6, [&](const Row& f, const Where& at) {
    const auto id = parse_num<UserId>(f[0], at);
    Visit v;
    v.start = checked_time(parse_num<TimeSec>(f[1], at), at);
    v.end = checked_time(parse_num<TimeSec>(f[2], at), at);
    if (v.end < v.start) fail(at, "visit ends before it starts");
    v.centroid = checked_latlon(parse_num<double>(f[3], at),
                                parse_num<double>(f[4], at), at);
    v.poi = parse_num<PoiId>(f[5], at);
    require_user(id, at).visits.push_back(v);
  });

  std::vector<UserRecord> user_list;
  user_list.reserve(users.size());
  for (auto& [id, u] : users) user_list.push_back(std::move(u));

  return Dataset(name, PoiIndex(std::move(pois)), std::move(user_list));
}

}  // namespace geovalid::trace
