//===- HexagonGeometryTest.cpp - Hexagonal tile shape tests ------------------===//

#include "core/HexagonGeometry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

using namespace hextile;
using namespace hextile::core;

TEST(HexagonGeometryTest, UnitSlopeCountMatchesSec37Formula) {
  // Sec. 3.7: for delta0 = delta1 = 1 a tile holds
  // 2*(1 + 2h + h^2 + w0*(h+1)) points (per unit of inner tile area).
  for (int64_t H = 1; H <= 4; ++H)
    for (int64_t W0 = 1; W0 <= 6; ++W0) {
      HexagonGeometry G(HexTileParams(H, W0, Rational(1), Rational(1)));
      int64_t Expected = 2 * (1 + 2 * H + H * H + W0 * (H + 1));
      EXPECT_EQ(G.pointsPerTile(), Expected) << "h=" << H << " w0=" << W0;
    }
}

TEST(HexagonGeometryTest, Fig4ExampleShape) {
  // Fig. 4: h = 2, w0 = 3, delta0 = 1, delta1 = 2. The bottom row of the
  // hexagon is b in [4, 7] (w0 + 1 points), the widest rows (a = 2, 3) span
  // 10 points, and the top row is [2, 5]. Total 4+7+10+10+7+4 = 42 = half
  // the 6 x 14 box.
  HexagonGeometry G(HexTileParams(2, 3, Rational(1), Rational(2)));
  EXPECT_TRUE(G.contains(0, 4));
  EXPECT_TRUE(G.contains(0, 7));
  EXPECT_FALSE(G.contains(0, 3)); // Cut by constraint (10).
  EXPECT_FALSE(G.contains(0, 8)); // Cut by constraint (12).
  EXPECT_TRUE(G.contains(5, 2));
  EXPECT_TRUE(G.contains(5, 5));
  EXPECT_FALSE(G.contains(5, 6)); // Cut by constraint (8).
  EXPECT_EQ(G.pointsPerTile(), 42);
  // Box corners are never inside.
  EXPECT_FALSE(G.contains(0, 13));
  EXPECT_FALSE(G.contains(5, 13));
}

TEST(HexagonGeometryTest, ContainedInBox) {
  HexagonGeometry G(HexTileParams(3, 2, Rational(1), Rational(1)));
  const HexTileParams &P = G.params();
  for (int64_t A = -2; A <= P.timePeriod() + 2; ++A)
    for (int64_t B = -2; B <= P.spacePeriod() + 2; ++B) {
      if (!G.contains(A, B))
        continue;
      EXPECT_GE(A, 0);
      EXPECT_LE(A, 2 * P.H + 1);
      EXPECT_GE(B, 0);
      EXPECT_LT(B, P.spacePeriod());
    }
}

TEST(HexagonGeometryTest, RowTableMatchesShape) {
  // contains() and rowRange() read the row table; shape() is the paper's
  // constraint system (6)-(13). Sweep h, both slopes and the narrowest legal
  // width plus a wider one, and compare the two forms point by point beyond
  // the box on every side.
  const Rational Slopes[] = {Rational(1, 2), Rational(2, 3), Rational(1),
                             Rational(3, 2), Rational(2)};
  for (int64_t H = 1; H <= 4; ++H)
    for (const Rational &D0 : Slopes)
      for (const Rational &D1 : Slopes) {
        int64_t MinW0 =
            std::max<int64_t>(HexTileParams::minWidth(D0, D1, H).ceil(), 1);
        for (int64_t W0 : {MinW0, MinW0 + 3}) {
          HexTileParams P(H, W0, D0, D1);
          ASSERT_TRUE(P.isValid()) << P.str();
          HexagonGeometry G(P);
          int64_t Count = 0;
          int64_t MinB = std::numeric_limits<int64_t>::max();
          int64_t MaxB = std::numeric_limits<int64_t>::min();
          for (int64_t A = -2; A < 2 * H + 4; ++A) {
            int64_t Lo, Hi;
            G.rowRange(A, Lo, Hi);
            for (int64_t B = -3; B < P.spacePeriod() + 3; ++B) {
              int64_t Pt[2] = {A, B};
              bool In = G.shape().contains(Pt);
              ASSERT_EQ(G.contains(A, B), In)
                  << P.str() << " a=" << A << " b=" << B;
              ASSERT_EQ(B >= Lo && B <= Hi, In)
                  << P.str() << " a=" << A << " b=" << B;
              if (!In)
                continue;
              ++Count;
              MinB = std::min(MinB, B);
              MaxB = std::max(MaxB, B);
            }
          }
          EXPECT_EQ(G.pointsPerTile(), Count) << P.str();
          EXPECT_EQ(G.minB(), MinB) << P.str();
          EXPECT_EQ(G.maxB(), MaxB) << P.str();
        }
      }
}

TEST(HexagonGeometryTest, SymmetricHexagonIsSymmetric) {
  // With delta0 == delta1 the hexagon is mirror-symmetric in b.
  HexagonGeometry G(HexTileParams(2, 3, Rational(1), Rational(1)));
  int64_t Width = G.params().spacePeriod();
  for (int64_t A = 0; A <= 5; ++A) {
    int64_t Lo, Hi;
    G.rowRange(A, Lo, Hi);
    if (Lo > Hi)
      continue;
    // The row [Lo, Hi] mirrored around the hexagon center must equal itself;
    // centers: b-center = (minB + maxB)/2 shared by all rows.
    EXPECT_EQ(Lo + Hi, G.minB() + G.maxB()) << A;
    (void)Width;
  }
}

TEST(HexagonGeometryTest, FractionalSlopes) {
  // delta0 = delta1 = 1/2: still a valid, convex, box-contained hexagon.
  HexTileParams P(3, 2, Rational(1, 2), Rational(1, 2));
  ASSERT_TRUE(P.isValid());
  HexagonGeometry G(P);
  EXPECT_GT(G.pointsPerTile(), 0);
  // Count must equal brute-force count over the box.
  int64_t Brute = 0;
  for (int64_t A = 0; A < P.timePeriod(); ++A)
    for (int64_t B = 0; B < P.spacePeriod(); ++B)
      if (G.contains(A, B))
        ++Brute;
  EXPECT_EQ(G.pointsPerTile(), Brute);
}

TEST(HexagonGeometryTest, AsciiRendering) {
  HexagonGeometry G(HexTileParams(1, 1, Rational(1), Rational(1)));
  std::string Art = G.ascii();
  // 2h+2 = 4 rows, spacePeriod = 6 columns + newline each.
  EXPECT_EQ(Art.size(), 4u * 7u);
  EXPECT_NE(Art.find('#'), std::string::npos);
}
