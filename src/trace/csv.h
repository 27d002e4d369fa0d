// CSV persistence for datasets.
//
// The on-disk layout is one directory per dataset:
//   pois.csv      id,name,category,lat,lon
//   users.csv     id,friends,badges,mayorships,checkins_per_day
//   gps.csv       user,t,lat,lon,has_fix,wifi,accel_var
//   checkins.csv  user,t,poi,category,lat,lon
//   visits.csv    user,start,end,lat,lon,poi
//
// Values never contain commas (POI names are sanitized on write), so no
// quoting layer is needed.
//
// This header also holds the one field grammar of every text format
// geovalid reads: these CSVs, the serve wire's text records, SNAP imports
// and fault specs all split and parse numbers with the helpers below.
#pragma once

#include <array>
#include <charconv>
#include <cstddef>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <string_view>

#include "trace/dataset.h"

namespace geovalid::trace {

/// A dataset failed to load: missing file, malformed row, or a value that
/// parses but is physically meaningless (NaN/infinite/out-of-range
/// coordinates, timestamps outside [0, kMaxEventTime], negative or
/// non-finite profile rates). The message carries file and line number.
/// Distinct from std::runtime_error so callers (the CLI's exit-code
/// contract) can tell "your input is bad" from "the program failed".
struct IngestError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Longest numeric text field plus one: a field of this many bytes or more
/// is rejected before it is parsed.
inline constexpr std::size_t kMaxNumericField = 64;

/// Parses a whole field as a double. Fields of kMaxNumericField bytes or
/// more and empty fields are rejected. std::from_chars is tried first and
/// taken when it consumes the whole field and the value is finite;
/// anything else goes to std::strtod over a bounded copy, which decides.
/// So the accepted spellings and values are exactly strtod's: a leading
/// '+' or whitespace, hex floats, nan/inf/infinity, and overflow or
/// underflow (1e400 reads as inf, 1e-400 as 0). Both paths round
/// correctly, so the value never depends on which one ran.
[[nodiscard]] bool parse_double_field(std::string_view s, double& out);

/// Parses a whole field as a decimal integer of type T (no sign for
/// unsigned T, no '+', no whitespace, no overflow).
template <typename T>
[[nodiscard]] bool parse_int_field(std::string_view s, T& out) {
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, out);
  return ec == std::errc{} && ptr == last;
}

/// Splits `line` on `sep` into at most N views. Returns the field count,
/// or N + 1 when the line has more than N fields.
template <std::size_t N>
std::size_t split_fields(std::string_view line,
                         std::array<std::string_view, N>& fields,
                         char sep = ',') {
  std::size_t count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t at = line.find(sep, start);
    if (count == N) return N + 1;
    fields[count++] = line.substr(
        start, at == std::string_view::npos ? at : at - start);
    if (at == std::string_view::npos) return count;
    start = at + 1;
  }
}

/// Writes `ds` under `dir` (created if absent). Doubles are written as
/// printf's %.10g (%.6g for users.csv's checkins_per_day). Throws
/// std::runtime_error on I/O failure.
void write_dataset_csv(const Dataset& ds, const std::filesystem::path& dir);

/// Loads a dataset previously written by write_dataset_csv. Throws
/// IngestError on missing files, malformed rows, or implausible values
/// (see IngestError).
[[nodiscard]] Dataset read_dataset_csv(const std::filesystem::path& dir,
                                       const std::string& name);

}  // namespace geovalid::trace
