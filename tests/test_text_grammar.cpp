// The numeric grammar of the text formats, pinned at their public entry
// points: serve's parse_wire_record and the CSV reader. Every case names
// whether the field is accepted and, when it is, the exact bits of the
// value. The CSV writer is pinned byte for byte against std::ostream at
// the precisions it has always used.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <unistd.h>
#include <variant>
#include <vector>

#include "serve/wire.h"
#include "stream/event.h"
#include "trace/csv.h"

namespace geovalid {
namespace {

namespace fs = std::filesystem;
using trace::IngestError;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// 1 + 2^-53 written out exactly is the halfway point between 1 and the next
// double up; any nonzero digit after it must round up. Padding it with
// zeros to 63 bytes keeps a field that needs every digit to round right.
const std::string kHalfway =
    "1.00000000000000011102230246251565404236316680908203125";
const std::string kLong63 = kHalfway + std::string(7, '0') + "1";
const std::string kLong64 = kHalfway + std::string(8, '0') + "1";

struct Case {
  std::string text;
  bool accepts;        // the grammar's verdict, before range checks
  std::uint64_t bits;  // the value when accepted; NaNs compare to strtod
};

std::vector<Case> cases() {
  constexpr std::uint64_t kInf = 0x7FF0000000000000ULL;
  constexpr std::uint64_t kNegInf = 0xFFF0000000000000ULL;
  return {
      {"+1.5", true, bits(1.5)},
      {" 1.5", true, bits(1.5)},
      {"0x1p3", true, bits(8.0)},
      {"1e400", true, kInf},
      {"-1e400", true, kNegInf},
      {"4.9e-324", true, 0x0000000000000001ULL},
      {"1e-400", true, 0},
      {"nan", true, 0},
      {"-inf", true, kNegInf},
      {"infinity", true, kInf},
      {"nan(1)", true, 0},
      {"1.", true, bits(1.0)},
      {".5", true, bits(0.5)},
      {"-0", true, 0x8000000000000000ULL},
      {"1e", false, 0},
      {"", false, 0},
      {kLong63, true, 0x3FF0000000000001ULL},
      {kLong64, false, 0},
  };
}

void expect_bits(double got, const Case& c, const char* where) {
  if (std::isnan(got)) {
    // A NaN's payload is the C library's; the grammar only has to match it.
    EXPECT_EQ(bits(got), bits(std::strtod(c.text.c_str(), nullptr)))
        << where << " '" << c.text << "'";
  } else {
    EXPECT_EQ(bits(got), c.bits) << where << " '" << c.text << "'";
  }
}

TEST(TextGrammar, LongFieldsSitAtTheCap) {
  EXPECT_EQ(kLong63.size(), 63u);
  EXPECT_EQ(kLong64.size(), 64u);
}

TEST(TextGrammar, WireAcceptsExactlyTheGrammar) {
  for (const Case& c : cases()) {
    for (const bool lat : {true, false}) {
      const std::string line = lat ? "gps,1,0," + c.text + ",0,1,0,0.1"
                                   : "gps,1,0,0,0,1,0," + c.text;
      const serve::WireResult r = serve::parse_wire_record(line);
      const auto* e = std::get_if<stream::Event>(&r);
      ASSERT_EQ(e != nullptr, c.accepts) << "'" << line << "'";
      if (e != nullptr) {
        expect_bits(lat ? e->gps.position.lat_deg : e->gps.accel_variance, c,
                    "wire");
      }
    }
    const serve::WireResult r =
        serve::parse_wire_record("checkin,1,0,2,Food,0," + c.text);
    const auto* e = std::get_if<stream::Event>(&r);
    ASSERT_EQ(e != nullptr, c.accepts) << "checkin '" << c.text << "'";
    if (e != nullptr) expect_bits(e->checkin.location.lon_deg, c, "wire");
  }
}

class CsvGrammar : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geovalid_grammar_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
    trace::UserRecord u;
    u.id = 1;
    std::vector<trace::UserRecord> users;
    users.push_back(std::move(u));
    trace::write_dataset_csv(
        trace::Dataset("g", trace::PoiIndex(std::vector<trace::Poi>{}),
                       std::move(users)),
        dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  /// Reads a gps.csv whose one row carries `field` as its latitude; the
  /// latitude on success, the IngestError's message otherwise.
  std::variant<double, std::string> read_lat(const std::string& field) {
    {
      std::ofstream out(dir_ / "gps.csv");
      out << "user,t,lat,lon,has_fix,wifi,accel_var\n"
          << "1,0," << field << ",0,1,0,0.1\n";
    }
    try {
      const trace::Dataset ds = trace::read_dataset_csv(dir_, "g");
      return ds.users().front().gps.points().front().position.lat_deg;
    } catch (const IngestError& e) {
      return std::string(e.what());
    }
  }

  fs::path dir_;
};

TEST_F(CsvGrammar, ReaderAcceptsExactlyTheGrammar) {
  for (const Case& c : cases()) {
    const auto got = read_lat(c.text);
    const auto* lat = std::get_if<double>(&got);
    const double parsed = std::strtod(c.text.c_str(), nullptr);
    if (!c.accepts) {
      ASSERT_EQ(lat, nullptr) << "'" << c.text << "'";
      const std::string& msg = std::get<std::string>(got);
      const char* reason = c.text.size() >= 64 ? "numeric field too long"
                                               : "bad floating-point field";
      EXPECT_NE(msg.find(reason), std::string::npos) << msg;
    } else if (!std::isfinite(parsed)) {
      // Parsed, then refused by the coordinate check, not by the grammar.
      ASSERT_EQ(lat, nullptr) << "'" << c.text << "'";
      EXPECT_NE(std::get<std::string>(got).find("coordinates"),
                std::string::npos)
          << std::get<std::string>(got);
    } else {
      ASSERT_NE(lat, nullptr) << "'" << c.text << "': "
                              << std::get<std::string>(got);
      expect_bits(*lat, c, "csv");
    }
  }
}

// ---------------------------------------------------------------------------
// Writer: byte-identical to std::ostream at precision 10 (and the default 6
// for users.csv's checkins_per_day).

std::string slurp(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class CsvWriterBytes : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("geovalid_writer_test_" + std::to_string(::getpid()));
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(CsvWriterBytes, MatchesOstreamFormatting) {
  const std::vector<double> awkward = {
      -0.0, 1e-310, 123456789.123456789, 1e21,     -122.4194155,
      1.0 / 3, 0.1, 1e-5,                123456.5, 9.9999999995e9};
  std::vector<trace::Poi> pois;
  std::vector<trace::UserRecord> users;
  trace::TimeSec t = 0;
  for (std::size_t i = 0; i < awkward.size(); ++i) {
    const double a = awkward[i];
    const double b = awkward[(i + 3) % awkward.size()];
    pois.push_back(trace::Poi{static_cast<trace::PoiId>(i + 1), "P,oi",
                              trace::PoiCategory::kFood, {a, b}});
    trace::UserRecord u;
    u.id = static_cast<trace::UserId>(100 + i);
    u.profile = {static_cast<std::uint32_t>(i), 2, 3, a};
    u.gps.append(trace::GpsPoint{t, {a, b}, i % 2 == 0, 0xFFFFFFFFu, b});
    u.checkins.append(trace::Checkin{t, static_cast<trace::PoiId>(i + 1),
                                     trace::PoiCategory::kNightlife, {b, a}});
    u.visits.push_back(trace::Visit{t, t + 600, {a, b}, trace::kNoPoi});
    users.push_back(std::move(u));
    t += 3600;
  }
  users.front().profile.checkins_per_day = 1.0 / 3;
  const trace::Dataset ds("w", trace::PoiIndex(std::move(pois)),
                          std::move(users));
  trace::write_dataset_csv(ds, dir_);

  std::ostringstream pois_csv, users_csv, gps_csv, checkins_csv, visits_csv;
  pois_csv.precision(10);
  gps_csv.precision(10);
  checkins_csv.precision(10);
  visits_csv.precision(10);
  pois_csv << "id,name,category,lat,lon\n";
  for (const trace::Poi& p : ds.pois().all()) {
    pois_csv << p.id << ",P oi," << trace::to_string(p.category) << ','
             << p.location.lat_deg << ',' << p.location.lon_deg << '\n';
  }
  users_csv << "id,friends,badges,mayorships,checkins_per_day\n";
  gps_csv << "user,t,lat,lon,has_fix,wifi,accel_var\n";
  checkins_csv << "user,t,poi,category,lat,lon\n";
  visits_csv << "user,start,end,lat,lon,poi\n";
  for (const trace::UserRecord& u : ds.users()) {
    users_csv << u.id << ',' << u.profile.friends << ',' << u.profile.badges
              << ',' << u.profile.mayorships << ','
              << u.profile.checkins_per_day << '\n';
    for (const trace::GpsPoint& p : u.gps.points()) {
      gps_csv << u.id << ',' << p.t << ',' << p.position.lat_deg << ','
              << p.position.lon_deg << ',' << (p.has_fix ? 1 : 0) << ','
              << p.wifi_fingerprint << ',' << p.accel_variance << '\n';
    }
    for (const trace::Checkin& c : u.checkins.events()) {
      checkins_csv << u.id << ',' << c.t << ',' << c.poi << ','
                   << trace::to_string(c.category) << ','
                   << c.location.lat_deg << ',' << c.location.lon_deg << '\n';
    }
    for (const trace::Visit& v : u.visits) {
      visits_csv << u.id << ',' << v.start << ',' << v.end << ','
                 << v.centroid.lat_deg << ',' << v.centroid.lon_deg << ','
                 << v.poi << '\n';
    }
  }
  EXPECT_EQ(slurp(dir_ / "pois.csv"), pois_csv.str());
  EXPECT_EQ(slurp(dir_ / "users.csv"), users_csv.str());
  EXPECT_EQ(slurp(dir_ / "gps.csv"), gps_csv.str());
  EXPECT_EQ(slurp(dir_ / "checkins.csv"), checkins_csv.str());
  EXPECT_EQ(slurp(dir_ / "visits.csv"), visits_csv.str());
  // The awkward values really are in the files.
  EXPECT_NE(slurp(dir_ / "users.csv").find(",0.333333\n"), std::string::npos);
  EXPECT_NE(slurp(dir_ / "gps.csv").find(",-0,"), std::string::npos);
  EXPECT_NE(slurp(dir_ / "gps.csv").find("1e-310"), std::string::npos);
  EXPECT_NE(slurp(dir_ / "gps.csv").find("1e+21"), std::string::npos);
}

TEST_F(CsvWriterBytes, LargeFileSpansManyFlushes) {
  // Well past the writer's 64 KiB buffer: every row must land once, in
  // order, across the flush boundaries.
  trace::UserRecord u;
  u.id = 7;
  std::ostringstream gps_csv;
  gps_csv.precision(10);
  gps_csv << "user,t,lat,lon,has_fix,wifi,accel_var\n";
  for (trace::TimeSec t = 0; t < 20000; ++t) {
    const trace::GpsPoint p{t * 60, {37.0 + t * 1e-7, -122.0 - t * 3e-7},
                            t % 3 != 0, static_cast<std::uint32_t>(t * 7919),
                            t * 0.001};
    u.gps.append(p);
    gps_csv << 7 << ',' << p.t << ',' << p.position.lat_deg << ','
            << p.position.lon_deg << ',' << (p.has_fix ? 1 : 0) << ','
            << p.wifi_fingerprint << ',' << p.accel_variance << '\n';
  }
  std::vector<trace::UserRecord> users;
  users.push_back(std::move(u));
  trace::write_dataset_csv(
      trace::Dataset("big", trace::PoiIndex(std::vector<trace::Poi>{}),
                     std::move(users)),
      dir_);
  ASSERT_GT(gps_csv.str().size(), 4u * 64 * 1024);
  EXPECT_EQ(slurp(dir_ / "gps.csv"), gps_csv.str());
}

}  // namespace
}  // namespace geovalid
