// Unit tests for the geo substrate.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <vector>

#include "geo/bbox.h"
#include "geo/geodesic.h"
#include "geo/latlon.h"
#include "geo/projection.h"

namespace geovalid::geo {
namespace {

constexpr double kSB_lat = 34.4208;
constexpr double kSB_lon = -119.6982;

TEST(LatLon, ValidityChecks) {
  EXPECT_TRUE(is_valid(LatLon{0.0, 0.0}));
  EXPECT_TRUE(is_valid(LatLon{90.0, 180.0}));
  EXPECT_TRUE(is_valid(LatLon{-90.0, -180.0}));
  EXPECT_FALSE(is_valid(LatLon{90.01, 0.0}));
  EXPECT_FALSE(is_valid(LatLon{0.0, 180.5}));
  EXPECT_FALSE(is_valid(LatLon{std::nan(""), 0.0}));
  EXPECT_FALSE(is_valid(LatLon{0.0, std::nan("")}));
}

TEST(LatLon, NormalizeLongitude) {
  EXPECT_DOUBLE_EQ(normalize_lon_deg(0.0), 0.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(180.0), 180.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(-180.0), 180.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(190.0), -170.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(370.0), 10.0);
  EXPECT_DOUBLE_EQ(normalize_lon_deg(-370.0), -10.0);
}

TEST(LatLon, ToStringFormat) {
  EXPECT_EQ(to_string(LatLon{1.5, -2.25}), "1.500000,-2.250000");
}

TEST(Geodesic, ZeroDistanceForIdenticalPoints) {
  const LatLon p{kSB_lat, kSB_lon};
  EXPECT_DOUBLE_EQ(distance_m(p, p), 0.0);
  EXPECT_DOUBLE_EQ(fast_distance_m(p, p), 0.0);
}

TEST(Geodesic, OneDegreeLatitudeIsAbout111Km) {
  const double d = distance_m(LatLon{0.0, 0.0}, LatLon{1.0, 0.0});
  EXPECT_NEAR(d, 111195.0, 150.0);
}

TEST(Geodesic, KnownCityPairDistance) {
  // Santa Barbara to Los Angeles (~140 km great circle).
  const LatLon sb{34.4208, -119.6982};
  const LatLon la{34.0522, -118.2437};
  const double d = distance_m(sb, la);
  EXPECT_NEAR(d, 140000.0, 5000.0);
}

TEST(Geodesic, SymmetricDistance) {
  const LatLon a{10.0, 20.0};
  const LatLon b{11.0, 21.5};
  EXPECT_DOUBLE_EQ(distance_m(a, b), distance_m(b, a));
}

TEST(Geodesic, FastDistanceTracksHaversineAtCityScale) {
  const LatLon origin{kSB_lat, kSB_lon};
  for (double bearing : {0.0, 45.0, 90.0, 135.0, 200.0, 300.0}) {
    for (double dist : {50.0, 500.0, 5000.0, 25000.0}) {
      const LatLon p = destination(origin, bearing, dist);
      const double h = distance_m(origin, p);
      const double f = fast_distance_m(origin, p);
      EXPECT_NEAR(f, h, h * 0.002 + 0.5)
          << "bearing=" << bearing << " dist=" << dist;
    }
  }
}

TEST(GeoBoundDistance, NeverExceedsHaversineOnRandomGlobalPairs) {
  // The whole point of bound_distance_m is the inequality
  // bound <= distance_m: the matcher prunes on it, so a single violation
  // would silently drop true matches. Hammer it globally, poles and
  // antimeridian included.
  std::mt19937_64 rng(20130814);
  std::uniform_real_distribution<double> lat(-90.0, 90.0);
  std::uniform_real_distribution<double> lon(-180.0, 180.0);
  for (int i = 0; i < 20000; ++i) {
    const LatLon a{lat(rng), lon(rng)};
    const LatLon b{lat(rng), lon(rng)};
    const double bound = bound_distance_m(a, b);
    const double truth = distance_m(a, b);
    ASSERT_LE(bound, truth) << to_string(a) << " -> " << to_string(b);
    ASSERT_GE(bound, 0.0);
  }
}

TEST(GeoBoundDistance, NeverExceedsHaversineAtCityScale) {
  // City-scale pairs are what the matcher actually prunes on; also check
  // the bound is usefully tight there (>= half the true distance).
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> bearing(0.0, 360.0);
  std::uniform_real_distribution<double> dist(0.1, 30000.0);
  const LatLon origin{kSB_lat, kSB_lon};
  for (int i = 0; i < 20000; ++i) {
    const LatLon a = destination(origin, bearing(rng), dist(rng));
    const LatLon b = destination(origin, bearing(rng), dist(rng));
    const double bound = bound_distance_m(a, b);
    const double truth = distance_m(a, b);
    ASSERT_LE(bound, truth) << to_string(a) << " -> " << to_string(b);
    ASSERT_GE(bound, truth * 0.5) << to_string(a) << " -> " << to_string(b);
  }
}

TEST(GeoBoundDistance, TightOnMeridians) {
  // Along a meridian the latitude term is the exact great-circle distance.
  const LatLon a{10.0, 25.0};
  const LatLon b{10.7, 25.0};
  EXPECT_NEAR(bound_distance_m(a, b), distance_m(a, b),
              distance_m(a, b) * 1e-6);
}

TEST(GeoBoundDistance, ZeroForIdenticalPoints) {
  const LatLon p{kSB_lat, kSB_lon};
  EXPECT_DOUBLE_EQ(bound_distance_m(p, p), 0.0);
}

TEST(GeoBoundDistance, HandlesAntimeridianWrap) {
  // 179.9°E to 179.9°W is 0.2° of longitude apart, not 359.8°.
  const LatLon a{0.0, 179.9};
  const LatLon b{0.0, -179.9};
  const double truth = distance_m(a, b);
  const double bound = bound_distance_m(a, b);
  EXPECT_LE(bound, truth);
  EXPECT_LT(truth, 30000.0);  // sanity: the short way round
  EXPECT_GT(bound, 0.0);
}

TEST(Geodesic, DestinationRoundTrip) {
  const LatLon origin{kSB_lat, kSB_lon};
  for (double bearing : {0.0, 90.0, 180.0, 270.0, 33.0}) {
    const LatLon p = destination(origin, bearing, 1234.0);
    EXPECT_NEAR(distance_m(origin, p), 1234.0, 1.0);
  }
}

TEST(Geodesic, MphConversionRoundTrip) {
  EXPECT_NEAR(mph_to_mps(4.0), 1.78816, 1e-9);
  EXPECT_NEAR(mps_to_mph(mph_to_mps(12.5)), 12.5, 1e-9);
}

TEST(BBox, BoundingBoxOfPoints) {
  const std::vector<LatLon> pts{{1.0, 2.0}, {-1.0, 5.0}, {0.5, -3.0}};
  const auto box = bounding_box(pts);
  ASSERT_TRUE(box.has_value());
  EXPECT_DOUBLE_EQ(box->min_lat_deg, -1.0);
  EXPECT_DOUBLE_EQ(box->max_lat_deg, 1.0);
  EXPECT_DOUBLE_EQ(box->min_lon_deg, -3.0);
  EXPECT_DOUBLE_EQ(box->max_lon_deg, 5.0);
}

TEST(BBox, EmptyRangeHasNoBox) {
  const std::vector<LatLon> none;
  EXPECT_FALSE(bounding_box(none).has_value());
}

TEST(BBox, ContainsEdgesInclusive) {
  const BBox box{0.0, 0.0, 1.0, 1.0};
  EXPECT_TRUE(contains(box, LatLon{0.0, 0.0}));
  EXPECT_TRUE(contains(box, LatLon{1.0, 1.0}));
  EXPECT_TRUE(contains(box, LatLon{0.5, 0.5}));
  EXPECT_FALSE(contains(box, LatLon{1.0001, 0.5}));
  EXPECT_FALSE(contains(box, LatLon{0.5, -0.0001}));
}

TEST(BBox, ExpansionGrowsByMargin) {
  const BBox box{10.0, 10.0, 10.0, 10.0};
  const BBox grown = expanded(box, 1000.0);
  EXPECT_TRUE(contains(grown, destination(LatLon{10.0, 10.0}, 0.0, 990.0)));
  EXPECT_TRUE(contains(grown, destination(LatLon{10.0, 10.0}, 90.0, 990.0)));
  EXPECT_FALSE(contains(grown, destination(LatLon{10.0, 10.0}, 0.0, 1100.0)));
}

TEST(BBox, CenterAndDiagonal) {
  const BBox box{0.0, 0.0, 2.0, 2.0};
  const LatLon c = center(box);
  EXPECT_DOUBLE_EQ(c.lat_deg, 1.0);
  EXPECT_DOUBLE_EQ(c.lon_deg, 1.0);
  EXPECT_NEAR(diagonal_m(box),
              distance_m(LatLon{0.0, 0.0}, LatLon{2.0, 2.0}), 1e-6);
}

TEST(Projection, RoundTripIsIdentity) {
  const LocalProjection proj(LatLon{kSB_lat, kSB_lon});
  for (double bearing : {0.0, 77.0, 191.0, 305.0}) {
    const LatLon p = destination(proj.origin(), bearing, 8000.0);
    const LatLon back = proj.to_geo(proj.to_plane(p));
    EXPECT_NEAR(back.lat_deg, p.lat_deg, 1e-9);
    EXPECT_NEAR(back.lon_deg, p.lon_deg, 1e-9);
  }
}

TEST(Projection, PreservesDistancesAtCityScale) {
  const LocalProjection proj(LatLon{kSB_lat, kSB_lon});
  const LatLon a = destination(proj.origin(), 45.0, 3000.0);
  const LatLon b = destination(proj.origin(), 250.0, 7000.0);
  const double geo_d = distance_m(a, b);
  const double plane_d = plane_distance_m(proj.to_plane(a), proj.to_plane(b));
  EXPECT_NEAR(plane_d, geo_d, geo_d * 0.005);
}

TEST(Projection, RejectsInvalidOrigin) {
  EXPECT_THROW(LocalProjection(LatLon{200.0, 0.0}), std::invalid_argument);
}

TEST(Projection, OriginMapsToPlaneOrigin) {
  const LocalProjection proj(LatLon{kSB_lat, kSB_lon});
  const PlanePoint p = proj.to_plane(proj.origin());
  EXPECT_DOUBLE_EQ(p.x_m, 0.0);
  EXPECT_DOUBLE_EQ(p.y_m, 0.0);
}

}  // namespace
}  // namespace geovalid::geo
