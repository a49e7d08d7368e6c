//===- HexScheduleTest.cpp - Hexagonal schedule tests ------------------------===//

#include "core/HexSchedule.h"
#include "core/Validation.h"

#include <gtest/gtest.h>

#include <vector>

using namespace hextile;
using namespace hextile::core;

namespace {

/// Parameter sets for the lattice checks. HexSchedule caches the periods,
/// the drift and the phase-0 shift; these sets reach both drift signs, zero
/// drift and fractional slopes whose products with h are not integral.
std::vector<HexTileParams> latticeParamSets() {
  return {
      HexTileParams(2, 3, Rational(1), Rational(2)),
      HexTileParams(1, 2, Rational(1), Rational(1)),
      // |_d0h_| = 4, |_d1h_| = 1: drift -3.
      HexTileParams(3, 2, Rational(3, 2), Rational(1, 2)),
      // |_d0h_| = 1, |_d1h_| = 4: drift +3.
      HexTileParams(2, 3, Rational(1, 2), Rational(2)),
      // |_d0h_| = |_d1h_| = |_4/3_| = 1: drift 0.
      HexTileParams(2, 1, Rational(2, 3), Rational(2, 3)),
  };
}

} // namespace

TEST(HexScheduleTest, Eq2And4TimeTileIndices) {
  HexSchedule S(HexTileParams(2, 3, Rational(1), Rational(1)));
  // Phase 0: T = floor((t + 3) / 6); phase 1: T = floor(t / 6).
  EXPECT_EQ(S.boxCoord(0, 0, 0).T, 0);
  EXPECT_EQ(S.boxCoord(2, 0, 0).T, 0);
  EXPECT_EQ(S.boxCoord(3, 0, 0).T, 1);
  EXPECT_EQ(S.boxCoord(-4, 0, 0).T, -1);
  EXPECT_EQ(S.boxCoord(0, 0, 1).T, 0);
  EXPECT_EQ(S.boxCoord(5, 0, 1).T, 0);
  EXPECT_EQ(S.boxCoord(6, 0, 1).T, 1);
}

TEST(HexScheduleTest, LocalCoordinatesWithinBox) {
  HexSchedule S(HexTileParams(2, 3, Rational(1), Rational(2)));
  const HexTileParams &P = S.params();
  for (int64_t T = -10; T <= 10; ++T)
    for (int64_t S0 = -20; S0 <= 20; ++S0)
      for (int Phase = 0; Phase < 2; ++Phase) {
        HexTileCoord C = S.boxCoord(T, S0, Phase);
        EXPECT_GE(C.A, 0);
        EXPECT_LT(C.A, P.timePeriod());
        EXPECT_GE(C.B, 0);
        EXPECT_LT(C.B, P.spacePeriod());
      }
}

TEST(HexScheduleTest, TileOriginRoundTrips) {
  for (const HexTileParams &P : latticeParamSets()) {
    SCOPED_TRACE(P.str());
    ASSERT_TRUE(P.isValid());
    HexSchedule S(P);
    for (int64_t TT = -2; TT <= 2; ++TT)
      for (int64_t SS = -2; SS <= 2; ++SS)
        for (int Phase = 0; Phase < 2; ++Phase) {
          int64_t T, S0;
          S.tileOrigin(TT, Phase, SS, T, S0);
          HexTileCoord C = S.boxCoord(T, S0, Phase);
          EXPECT_EQ(C.T, TT);
          EXPECT_EQ(C.S0, SS);
          EXPECT_EQ(C.A, 0);
          EXPECT_EQ(C.B, 0);
        }
  }
}

TEST(HexScheduleTest, LocateAgreesWithBoxCoord) {
  for (const HexTileParams &P : latticeParamSets()) {
    SCOPED_TRACE(P.str());
    HexSchedule S(P);
    int64_t TW = 2 * P.timePeriod(), SW = 2 * P.spacePeriod();
    for (int64_t T = -TW; T <= TW; ++T)
      for (int64_t S0 = -SW; S0 <= SW; ++S0) {
        HexTileCoord C = S.locate(T, S0);
        HexTileCoord B = S.boxCoord(T, S0, C.Phase);
        EXPECT_EQ(C.T, B.T);
        EXPECT_EQ(C.S0, B.S0);
        EXPECT_EQ(C.A, B.A);
        EXPECT_EQ(C.B, B.B);
        EXPECT_TRUE(S.hexagon().contains(C.A, C.B));
      }
  }
}

TEST(HexScheduleTest, PhaseOrderingWithinTimeTile) {
  // The phase-0 tile with the same T covers strictly earlier t rows than the
  // phase-1 tile's later rows: check the ordering convention (Sec. 3.3.3):
  // blue (phase 0) executes before green (phase 1) within a T tile.
  HexSchedule S(HexTileParams(2, 3, Rational(1), Rational(1)));
  HexTileCoord Blue = S.locate(0, 0);   // Early rows.
  HexTileCoord Green = S.locate(2, 6);  // Peak rows of phase 1.
  ASSERT_EQ(Blue.Phase, 0);
  ASSERT_EQ(Green.Phase, 1);
  EXPECT_EQ(Blue.T, Green.T);
  EXPECT_TRUE(Blue < Green);
}

TEST(HexScheduleTest, SymbolicFormulasMatchEvaluation) {
  // exprT/exprS0/exprA/exprB are built from HexTileParams, independently of
  // the integers boxCoord() caches.
  for (const HexTileParams &P : latticeParamSets()) {
    SCOPED_TRACE(P.str());
    HexSchedule S(P);
    int64_t TW = 2 * P.timePeriod(), SW = 2 * P.spacePeriod();
    for (int Phase = 0; Phase < 2; ++Phase) {
      poly::QExpr ET = S.exprT(Phase);
      poly::QExpr ES = S.exprS0(Phase);
      poly::QExpr EA = S.exprA(Phase);
      poly::QExpr EB = S.exprB(Phase);
      for (int64_t T = -TW; T <= TW; ++T)
        for (int64_t S0 = -SW; S0 <= SW; ++S0) {
          int64_t Vars[2] = {T, S0};
          HexTileCoord C = S.boxCoord(T, S0, Phase);
          EXPECT_EQ(ET.evaluate(Vars), C.T);
          EXPECT_EQ(ES.evaluate(Vars), C.S0);
          EXPECT_EQ(EA.evaluate(Vars), C.A);
          EXPECT_EQ(EB.evaluate(Vars), C.B);
        }
    }
  }
}

TEST(HexScheduleTest, Fig6UnitDistanceSchedule) {
  // For delta0 = delta1 = 1 the Fig. 6 formulas specialize to
  // T = floor((t+h+1)/(2h+2)), S0 = floor((s0+h+1+w0)/(2h+2+2w0)).
  int64_t H = 2, W0 = 3;
  HexSchedule S(HexTileParams(H, W0, Rational(1), Rational(1)));
  for (int64_t T = -5; T <= 10; ++T)
    for (int64_t S0 = -10; S0 <= 10; ++S0) {
      HexTileCoord C = S.boxCoord(T, S0, 0);
      EXPECT_EQ(C.T, floorDiv(T + H + 1, 2 * H + 2));
      EXPECT_EQ(C.S0, floorDiv(S0 + H + 1 + W0, 2 * H + 2 + 2 * W0));
      EXPECT_EQ(C.A, euclidMod(T + H + 1, 2 * H + 2));
      EXPECT_EQ(C.B, euclidMod(S0 + H + 1 + W0, 2 * H + 2 + 2 * W0));
    }
}
