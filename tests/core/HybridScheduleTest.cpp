//===- HybridScheduleTest.cpp - Hybrid schedule tests ------------------------===//

#include "core/HybridSchedule.h"
#include "deps/DeltaBounds.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::core;

namespace {

/// Builds the hybrid schedule for a program from its dependence analysis,
/// mirroring what the compiler driver does.
HybridSchedule makeSchedule(const ir::StencilProgram &P, int64_t H,
                            int64_t W0, std::vector<int64_t> InnerW) {
  deps::DependenceInfo Info = deps::analyzeDependences(P);
  std::vector<deps::ConeBounds> Cones = deps::computeAllConeBounds(Info);
  HexTileParams Params(H, W0, Cones[0].Delta0, Cones[0].Delta1);
  std::vector<Rational> InnerD;
  for (unsigned I = 1; I < Cones.size(); ++I)
    InnerD.push_back(Cones[I].Delta1);
  return HybridSchedule(Params, std::move(InnerW), std::move(InnerD));
}

} // namespace

TEST(HybridScheduleTest, MapArityAndRanges) {
  HybridSchedule S = makeSchedule(ir::makeJacobi2D(64, 8), 2, 3, {8});
  int64_t Point[3] = {5, 7, 11};
  HybridVector V = S.map(Point);
  ASSERT_EQ(V.S.size(), 2u);
  ASSERT_EQ(V.LocalS.size(), 2u);
  EXPECT_GE(V.LocalT, 0);
  EXPECT_LT(V.LocalT, S.params().timePeriod());
  EXPECT_GE(V.LocalS[1], 0);
  EXPECT_LT(V.LocalS[1], 8);
}

TEST(HybridScheduleTest, CompareSemantics) {
  HybridVector A, B;
  A.T = 0;
  B.T = 1;
  A.S = {0, 0};
  B.S = {0, 0};
  A.LocalS = B.LocalS = {0, 0};
  EXPECT_EQ(HybridSchedule::compare(A, B), ExecOrder::Before);
  EXPECT_EQ(HybridSchedule::compare(B, A), ExecOrder::After);

  B.T = 0;
  B.Phase = 1;
  EXPECT_EQ(HybridSchedule::compare(A, B), ExecOrder::Before);

  B.Phase = 0;
  B.S = {1, 0};
  EXPECT_EQ(HybridSchedule::compare(A, B), ExecOrder::ParallelBlocks);

  B.S = {0, 1};
  EXPECT_EQ(HybridSchedule::compare(A, B), ExecOrder::Before);

  B.S = {0, 0};
  B.LocalT = 3;
  EXPECT_EQ(HybridSchedule::compare(A, B), ExecOrder::Before);

  B.LocalT = 0;
  B.LocalS = {1, 0};
  EXPECT_EQ(HybridSchedule::compare(A, B), ExecOrder::ParallelThreads);
}

TEST(HybridScheduleTest, MapIsTotalOverDomain) {
  ir::StencilProgram P = ir::makeJacobi2D(32, 4);
  HybridSchedule S = makeSchedule(P, 1, 2, {8});
  IterationDomain D = IterationDomain::forProgram(P);
  int64_t Count = 0;
  D.forEachPoint([&](std::span<const int64_t> Pt) {
    HybridVector V = S.map(Pt);
    EXPECT_TRUE(V.Phase == 0 || V.Phase == 1);
    ++Count;
  });
  EXPECT_EQ(Count, D.numPoints());
}

TEST(HybridScheduleTest, StrListsBothPhases) {
  HybridSchedule S = makeSchedule(ir::makeJacobi2D(32, 4), 2, 3, {8});
  std::string Text = S.str();
  EXPECT_NE(Text.find("phase 0"), std::string::npos);
  EXPECT_NE(Text.find("phase 1"), std::string::npos);
  EXPECT_NE(Text.find("T  = floor((t + 3) / 6)"), std::string::npos);
  EXPECT_NE(Text.find("S1"), std::string::npos);
}

TEST(HybridScheduleTest, Fig6FormulaForUnitDistances) {
  // With h=2, w0=3 and unit slopes the phase-0 S0 formula of Fig. 6 is
  // floor((s0 + h + 1 + w0) / (2h + 2 + 2w0)) = floor((s0 + 6) / 12).
  HybridSchedule S = makeSchedule(ir::makeJacobi2D(32, 4), 2, 3, {8});
  std::string Text = S.str();
  EXPECT_NE(Text.find("S0 = floor((s0 + 6) / 12)"), std::string::npos);
}

TEST(HybridScheduleTest, ThreeDimensionalMapping) {
  ir::StencilProgram P = ir::makeHeat3D(24, 3);
  HybridSchedule S = makeSchedule(P, 2, 7, {10, 32});
  ASSERT_EQ(S.spaceRank(), 3u);
  int64_t Point[4] = {3, 5, 7, 9};
  HybridVector V = S.map(Point);
  ASSERT_EQ(V.S.size(), 3u);
  EXPECT_GE(V.LocalS[1], 0);
  EXPECT_LT(V.LocalS[1], 10);
  EXPECT_GE(V.LocalS[2], 0);
  EXPECT_LT(V.LocalS[2], 32);
}

TEST(HybridScheduleTest, AppendKeyIsMapInKeyOrder) {
  // Rank 2 and rank 3, with integral (from the dependence analysis) and
  // fractional inner slopes.
  std::vector<HybridSchedule> Schedules = {
      makeSchedule(ir::makeJacobi2D(32, 4), 2, 3, {8}),
      HybridSchedule(HexTileParams(2, 3, Rational(1, 2), Rational(2)), {5},
                     {Rational(2, 3)}),
      makeSchedule(ir::makeHeat3D(24, 3), 1, 2, {4, 6}),
      HybridSchedule(HexTileParams(3, 2, Rational(3, 2), Rational(1, 2)),
                     {4, 3}, {Rational(1, 2), Rational(3, 2)}),
  };
  const std::vector<int64_t> Prefix = {-7, 42};
  for (const HybridSchedule &S : Schedules) {
    SCOPED_TRACE(S.params().str());
    unsigned Rank = S.spaceRank();
    // Every point of the box t in [-2, 10), s_i in [-5, 9).
    std::vector<int64_t> Lo(Rank + 1, -5), Hi(Rank + 1, 9);
    Lo[0] = -2;
    Hi[0] = 10;
    std::vector<int64_t> Pt = Lo;
    size_t Points = 0;
    while (true) {
      HybridVector V = S.map(Pt);
      std::vector<int64_t> Expected = Prefix;
      Expected.push_back(V.T);
      Expected.push_back(V.Phase);
      Expected.insert(Expected.end(), V.S.begin(), V.S.end());
      Expected.push_back(V.LocalT);
      Expected.insert(Expected.end(), V.LocalS.begin(), V.LocalS.end());
      std::vector<int64_t> Key = Prefix;
      S.appendKey(Pt, Key);
      ASSERT_EQ(Key, Expected);
      ++Points;
      unsigned D = 0;
      for (; D <= Rank; ++D) {
        if (++Pt[D] < Hi[D])
          break;
        Pt[D] = Lo[D];
      }
      if (D > Rank)
        break;
    }
    EXPECT_EQ(Points, Rank == 2 ? 12u * 14 * 14 : 12u * 14 * 14 * 14);
  }
}
