// Round-trip tests for the CSV dataset codec.
#include <gtest/gtest.h>

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unistd.h>

#include "synth/study_generator.h"
#include "trace/csv.h"

namespace geovalid::trace {
namespace {

namespace fs = std::filesystem;

class CsvRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geovalid_csv_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  fs::path dir_;
};

Dataset tiny_dataset() {
  auto study = synth::generate_study(synth::tiny_preset());
  return std::move(study.dataset);
}

TEST_F(CsvRoundTrip, PreservesEverything) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  const Dataset loaded = read_dataset_csv(dir_, original.name());

  EXPECT_EQ(loaded.name(), original.name());
  ASSERT_EQ(loaded.pois().size(), original.pois().size());
  ASSERT_EQ(loaded.user_count(), original.user_count());

  for (const Poi& p : original.pois().all()) {
    const Poi* q = loaded.pois().find(p.id);
    ASSERT_NE(q, nullptr) << "poi " << p.id;
    EXPECT_EQ(q->name, p.name);
    EXPECT_EQ(q->category, p.category);
    EXPECT_NEAR(q->location.lat_deg, p.location.lat_deg, 1e-6);
    EXPECT_NEAR(q->location.lon_deg, p.location.lon_deg, 1e-6);
  }

  for (std::size_t u = 0; u < original.user_count(); ++u) {
    const UserRecord& a = original.users()[u];
    const UserRecord* b = loaded.find_user(a.id);
    ASSERT_NE(b, nullptr) << "user " << a.id;
    EXPECT_EQ(b->profile.friends, a.profile.friends);
    EXPECT_EQ(b->profile.badges, a.profile.badges);
    EXPECT_EQ(b->profile.mayorships, a.profile.mayorships);
    EXPECT_NEAR(b->profile.checkins_per_day, a.profile.checkins_per_day, 1e-4);

    ASSERT_EQ(b->gps.size(), a.gps.size());
    for (std::size_t i = 0; i < a.gps.size(); i += 97) {  // spot-check
      const GpsPoint& pa = a.gps.points()[i];
      const GpsPoint& pb = b->gps.points()[i];
      EXPECT_EQ(pb.t, pa.t);
      EXPECT_EQ(pb.has_fix, pa.has_fix);
      EXPECT_EQ(pb.wifi_fingerprint, pa.wifi_fingerprint);
      EXPECT_NEAR(pb.position.lat_deg, pa.position.lat_deg, 2e-6);
      EXPECT_NEAR(pb.accel_variance, pa.accel_variance, 1e-4);
    }

    ASSERT_EQ(b->checkins.size(), a.checkins.size());
    for (std::size_t i = 0; i < a.checkins.size(); ++i) {
      const Checkin& ca = a.checkins.at(i);
      const Checkin& cb = b->checkins.at(i);
      EXPECT_EQ(cb.t, ca.t);
      EXPECT_EQ(cb.poi, ca.poi);
      EXPECT_EQ(cb.category, ca.category);
    }

    ASSERT_EQ(b->visits.size(), a.visits.size());
    for (std::size_t i = 0; i < a.visits.size(); ++i) {
      EXPECT_EQ(b->visits[i].start, a.visits[i].start);
      EXPECT_EQ(b->visits[i].end, a.visits[i].end);
      EXPECT_EQ(b->visits[i].poi, a.visits[i].poi);
    }
  }
}

TEST_F(CsvRoundTrip, MissingDirectoryFails) {
  EXPECT_THROW(read_dataset_csv(dir_ / "nope", "x"), std::runtime_error);
}

TEST_F(CsvRoundTrip, MalformedRowReportsFileAndLine) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  // Corrupt one users.csv row.
  {
    std::ofstream out(dir_ / "users.csv");
    out << "id,friends,badges,mayorships,checkins_per_day\n";
    out << "1,2,3\n";  // too few fields
  }
  try {
    read_dataset_csv(dir_, "x");
    FAIL() << "expected malformed-row error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("users.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find(":2"), std::string::npos) << msg;
  }
}

TEST_F(CsvRoundTrip, UnknownUserReferenceFails) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  {
    std::ofstream out(dir_ / "checkins.csv");
    out << "user,t,poi,category,lat,lon\n";
    out << "999999,0,1,Food,0,0\n";
  }
  EXPECT_THROW(read_dataset_csv(dir_, "x"), std::runtime_error);
}

void rewrite_with_crlf(const fs::path& file) {
  std::string text;
  {
    std::ifstream in(file, std::ios::binary);
    ASSERT_TRUE(in.good()) << file;
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  std::string crlf;
  crlf.reserve(text.size() + text.size() / 16);
  for (const char c : text) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  std::ofstream out(file, std::ios::binary);
  out << crlf;
}

TEST_F(CsvRoundTrip, CrlfLineEndingsParseIdentically) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  for (const char* name :
       {"pois.csv", "users.csv", "gps.csv", "checkins.csv", "visits.csv"}) {
    rewrite_with_crlf(dir_ / name);
  }
  const Dataset loaded = read_dataset_csv(dir_, original.name());
  ASSERT_EQ(loaded.pois().size(), original.pois().size());
  ASSERT_EQ(loaded.user_count(), original.user_count());
  for (std::size_t u = 0; u < original.user_count(); ++u) {
    const UserRecord& a = original.users()[u];
    const UserRecord* b = loaded.find_user(a.id);
    ASSERT_NE(b, nullptr) << "user " << a.id;
    EXPECT_EQ(b->gps.size(), a.gps.size());
    EXPECT_EQ(b->checkins.size(), a.checkins.size());
    EXPECT_EQ(b->visits.size(), a.visits.size());
  }
  // The '\r' must not leak into the last field of a row.
  const Poi& first = original.pois().all().front();
  EXPECT_NEAR(loaded.pois().at(first.id).location.lon_deg,
              first.location.lon_deg, 1e-6);
}

TEST_F(CsvRoundTrip, GpsTimestampRegressionReportsFileAndLine) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  const UserId id = original.users().front().id;
  {
    std::ofstream out(dir_ / "gps.csv");
    out << "user,t,lat,lon,has_fix,wifi,accel_var\n";
    out << id << ",100,1.0,2.0,1,0,0.1\n";
    out << id << ",50,1.0,2.0,1,0,0.1\n";  // goes backwards
  }
  try {
    read_dataset_csv(dir_, "x");
    FAIL() << "expected out-of-order error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gps.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find(":3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("out of order"), std::string::npos) << msg;
  }
}

TEST_F(CsvRoundTrip, CheckinTimestampRegressionReportsFileAndLine) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  const UserId id = original.users().front().id;
  {
    std::ofstream out(dir_ / "checkins.csv");
    out << "user,t,poi,category,lat,lon\n";
    out << id << ",200,1,Food,0,0\n";
    out << id << ",100,1,Food,0,0\n";
  }
  try {
    read_dataset_csv(dir_, "x");
    FAIL() << "expected out-of-order error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("checkins.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find(":3"), std::string::npos) << msg;
  }
}

TEST_F(CsvRoundTrip, BadNumericFieldReportsFileAndLine) {
  const Dataset original = tiny_dataset();
  write_dataset_csv(original, dir_);
  {
    std::ofstream out(dir_ / "gps.csv");
    out << "user,t,lat,lon,has_fix,wifi,accel_var\n";
    out << original.users().front().id << ",0,34.4x,2.0,1,0,0.1\n";
  }
  try {
    read_dataset_csv(dir_, "x");
    FAIL() << "expected bad-field error";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("gps.csv"), std::string::npos) << msg;
    EXPECT_NE(msg.find(":2"), std::string::npos) << msg;
  }
}

/// Writes the tiny dataset, then replaces one CSV file with a header plus a
/// single malformed row, and requires ingest to reject the row as a typed
/// IngestError (the CLI maps that type to its own exit code) carrying the
/// file name, the line number (":2") and the human reason.
void expect_row_rejected(const fs::path& dir, const Dataset& original,
                         const char* file, const std::string& header,
                         const std::string& row, const char* reason) {
  write_dataset_csv(original, dir);
  {
    std::ofstream out(dir / file);
    out << header << "\n" << row << "\n";
  }
  try {
    read_dataset_csv(dir, "x");
    FAIL() << "expected IngestError for " << file << " row: " << row;
  } catch (const IngestError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(file), std::string::npos) << msg;
    EXPECT_NE(msg.find(":2"), std::string::npos) << msg;
    EXPECT_NE(msg.find(reason), std::string::npos) << msg;
  }
}

TEST_F(CsvRoundTrip, RejectsNonFiniteCoordinates) {
  const Dataset ds = tiny_dataset();
  const std::string u = std::to_string(ds.users().front().id);
  const char* gps = "user,t,lat,lon,has_fix,wifi,accel_var";
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,nan,0,1,0,0.1",
                      "coordinates");
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,0,inf,1,0,0.1",
                      "coordinates");
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,0,-inf,1,0,0.1",
                      "coordinates");
  expect_row_rejected(dir_, ds, "checkins.csv", "user,t,poi,category,lat,lon",
                      u + ",0,1,Food,nan,0", "coordinates");
}

TEST_F(CsvRoundTrip, RejectsOutOfRangeCoordinates) {
  const Dataset ds = tiny_dataset();
  const std::string u = std::to_string(ds.users().front().id);
  const char* gps = "user,t,lat,lon,has_fix,wifi,accel_var";
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,91.5,0,1,0,0.1",
                      "coordinates");
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,0,-180.5,1,0,0.1",
                      "coordinates");
  expect_row_rejected(dir_, ds, "pois.csv", "id,name,category,lat,lon",
                      "1,Cafe,Food,95,0", "coordinates");
  expect_row_rejected(dir_, ds, "visits.csv", "user,start,end,lat,lon,poi",
                      u + ",0,10,0,200,1", "coordinates");
}

TEST_F(CsvRoundTrip, RejectsTimestampOverflow) {
  const Dataset ds = tiny_dataset();
  const std::string u = std::to_string(ds.users().front().id);
  const std::string over = std::to_string(kMaxEventTime + 1);
  const char* gps = "user,t,lat,lon,has_fix,wifi,accel_var";
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",-1,0,0,1,0,0.1",
                      "timestamp out of range");
  expect_row_rejected(dir_, ds, "gps.csv", gps,
                      u + "," + over + ",0,0,1,0,0.1",
                      "timestamp out of range");
  expect_row_rejected(dir_, ds, "checkins.csv", "user,t,poi,category,lat,lon",
                      u + ",-5,1,Food,0,0", "timestamp out of range");
  expect_row_rejected(dir_, ds, "visits.csv", "user,start,end,lat,lon,poi",
                      u + ",0," + over + ",0,0,1", "timestamp out of range");
}

TEST_F(CsvRoundTrip, RejectsVisitEndingBeforeItStarts) {
  const Dataset ds = tiny_dataset();
  const std::string u = std::to_string(ds.users().front().id);
  expect_row_rejected(dir_, ds, "visits.csv", "user,start,end,lat,lon,poi",
                      u + ",100,50,0,0,1", "visit ends before it starts");
}

TEST_F(CsvRoundTrip, RejectsNegativeOrNonFiniteRates) {
  const Dataset ds = tiny_dataset();
  const std::string u = std::to_string(ds.users().front().id);
  const char* gps = "user,t,lat,lon,has_fix,wifi,accel_var";
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,0,0,1,0,-1",
                      "accel_var must be finite and non-negative");
  expect_row_rejected(dir_, ds, "gps.csv", gps, u + ",0,0,0,1,0,nan",
                      "accel_var must be finite and non-negative");
  expect_row_rejected(dir_, ds, "users.csv",
                      "id,friends,badges,mayorships,checkins_per_day",
                      "1,0,0,0,-0.5",
                      "checkins_per_day must be finite and non-negative");
  expect_row_rejected(dir_, ds, "users.csv",
                      "id,friends,badges,mayorships,checkins_per_day",
                      "1,0,0,0,inf",
                      "checkins_per_day must be finite and non-negative");
}

TEST_F(CsvRoundTrip, IngestErrorsAreTyped) {
  // The exit-code contract needs ingest failures distinguishable from other
  // runtime errors; both the missing-directory and malformed-row paths must
  // throw the dedicated type.
  EXPECT_THROW(read_dataset_csv(dir_ / "does_not_exist", "x"), IngestError);
}

TEST_F(CsvRoundTrip, PoiNameWithCommaIsSanitized) {
  std::vector<Poi> pois;
  pois.push_back(Poi{1, "Joe's, Diner", PoiCategory::kFood, {1.0, 2.0}});
  Dataset ds("t", PoiIndex(std::move(pois)), {});
  write_dataset_csv(ds, dir_);
  const Dataset loaded = read_dataset_csv(dir_, "t");
  ASSERT_EQ(loaded.pois().size(), 1u);
  EXPECT_EQ(loaded.pois().at(1).name, "Joe's  Diner");
}

TEST_F(CsvRoundTrip, WriteFailureThrows) {
  // pois.csv is a link to a device that fails every write with ENOSPC.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "no /dev/full";
  fs::create_directories(dir_);
  fs::create_symlink("/dev/full", dir_ / "pois.csv");
  EXPECT_THROW(write_dataset_csv(tiny_dataset(), dir_), std::runtime_error);
}

/// The field parser before it had a fast path: strtod over a bounded copy,
/// taken only when it consumed the whole field.
bool reference_parse(std::string_view s, double& out) {
  char buf[kMaxNumericField];
  if (s.empty() || s.size() >= sizeof(buf)) return false;
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  out = std::strtod(buf, &end);
  return end == buf + s.size();
}

TEST(ParseDoubleField, MatchesBoundedStrtodBitForBit) {
  // Random bit patterns cover every exponent, subnormals, infinities and
  // NaNs; each is rendered shortest, as %.10g (what the CSV writer emits)
  // and as %.17g, and both parsers must agree on the verdict and the bits.
  std::mt19937_64 rng(20131121);
  std::size_t checked = 0;
  std::size_t mismatches = 0;
  char text[64];
  auto check = [&](std::string_view s) {
    double want = 0.0;
    double got = 0.0;
    const bool want_ok = reference_parse(s, want);
    const bool got_ok = parse_double_field(s, got);
    ++checked;
    const bool same_bits = std::bit_cast<std::uint64_t>(want) ==
                           std::bit_cast<std::uint64_t>(got);
    if (want_ok != got_ok || (want_ok && !same_bits)) {
      if (++mismatches <= 10) ADD_FAILURE() << "mismatch on '" << s << "'";
    }
  };
  for (int i = 0; i < 1'000'000; ++i) {
    const double v = std::bit_cast<double>(rng());
    const auto [end, ec] = std::to_chars(text, text + sizeof(text), v);
    ASSERT_EQ(ec, std::errc{});
    check(std::string_view(text, static_cast<std::size_t>(end - text)));
    check(std::string_view(
        text, static_cast<std::size_t>(
                  std::snprintf(text, sizeof(text), "%.10g", v))));
    check(std::string_view(
        text, static_cast<std::size_t>(
                  std::snprintf(text, sizeof(text), "%.17g", v))));
  }
  for (const char* s : {"+1.5", " 1.5", "0x1p3", "1e400", "-1e400", "4.9e-324",
                        "1e-400", "nan", "-inf", "infinity", "nan(1)", "1.",
                        ".5", "-0", "1e", "", "1 ", "--1", "0x", "1e+", "e5"}) {
    check(s);
  }
  // Valid decimals one byte under the length cap and at it: the cap holds
  // even where from_chars alone would read the field.
  check("0." + std::string(kMaxNumericField - 4, '0') + "5");
  check("0." + std::string(kMaxNumericField - 3, '0') + "5");
  EXPECT_EQ(mismatches, 0u);
  EXPECT_EQ(checked, 3'000'023u);
}

TEST(SplitFields, CountsAndCapsFields) {
  std::array<std::string_view, 3> f;
  EXPECT_EQ(split_fields("a,b,c", f), 3u);
  EXPECT_EQ(f[2], "c");
  EXPECT_EQ(split_fields("a,,", f), 3u);
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(split_fields("a,b,c,d", f), 4u);  // one too many reads as N + 1
  EXPECT_EQ(split_fields("", f), 1u);
  EXPECT_EQ(split_fields("x\ty", f, '\t'), 2u);
  EXPECT_EQ(f[1], "y");
}

}  // namespace
}  // namespace geovalid::trace
