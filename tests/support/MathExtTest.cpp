//===- MathExtTest.cpp - Integer helper tests ------------------------------===//

#include "support/MathExt.h"

#include <gtest/gtest.h>

using namespace hextile;

TEST(MathExtTest, FloorDivMatchesMath) {
  EXPECT_EQ(floorDiv(7, 2), 3);
  EXPECT_EQ(floorDiv(-7, 2), -4);
  EXPECT_EQ(floorDiv(7, -2), -4);
  EXPECT_EQ(floorDiv(-7, -2), 3);
  EXPECT_EQ(floorDiv(6, 3), 2);
  EXPECT_EQ(floorDiv(-6, 3), -2);
}

TEST(MathExtTest, CeilDivMatchesMath) {
  EXPECT_EQ(ceilDiv(7, 2), 4);
  EXPECT_EQ(ceilDiv(-7, 2), -3);
  EXPECT_EQ(ceilDiv(7, -2), -3);
  EXPECT_EQ(ceilDiv(-7, -2), 4);
  EXPECT_EQ(ceilDiv(6, 3), 2);
}

TEST(MathExtTest, EuclidModAlwaysNonNegative) {
  EXPECT_EQ(euclidMod(7, 3), 1);
  EXPECT_EQ(euclidMod(-7, 3), 2);
  EXPECT_EQ(euclidMod(-6, 3), 0);
  EXPECT_EQ(euclidMod(7, -3), 1);
}

/// Property sweep: q*D + r == N with 0 <= r < |D| for every combination.
TEST(MathExtTest, FloorDivModIdentityProperty) {
  for (int64_t N = -50; N <= 50; ++N)
    for (int64_t D : {1, 2, 3, 7, -1, -3}) {
      int64_t Q = floorDiv(N, D);
      int64_t R = euclidMod(N, D);
      if (D > 0) {
        EXPECT_EQ(Q * D + R, N) << N << " / " << D;
      }
      EXPECT_GE(R, 0);
      EXPECT_LT(R, D > 0 ? D : -D);
      EXPECT_GE(ceilDiv(N, D), Q);
    }
}

TEST(MathExtTest, Gcd) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 7), 7);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(gcd64(13, 7), 1);
}

TEST(MathExtTest, Lcm) {
  EXPECT_EQ(lcm64(4, 6), 12);
  EXPECT_EQ(lcm64(3, 7), 21);
  EXPECT_EQ(lcm64(0, 7), 0);
  EXPECT_EQ(lcm64(-4, 6), 12);
}

TEST(MathExtTest, CheckedOpsPassThrough) {
  EXPECT_EQ(mulChecked(1 << 20, 1 << 20), int64_t(1) << 40);
  EXPECT_EQ(addChecked(INT64_MAX - 1, 1), INT64_MAX);
}

//===----------------------------------------------------------------------===//
// Edge cases: negative divisors, INT64 extremes, zero-divisor rejection.
//===----------------------------------------------------------------------===//

TEST(MathExtEdgeTest, NegativeDivisorsAcrossHelpers) {
  // floor/ceil identities must hold for every sign combination:
  // floorDiv(n, d) == -ceilDiv(-n, d) == -ceilDiv(n, -d).
  for (int64_t N : {-9, -7, -1, 0, 1, 7, 9})
    for (int64_t D : {-4, -3, -2, -1, 1, 2, 3, 4}) {
      EXPECT_EQ(floorDiv(N, D), -ceilDiv(-N, D)) << N << "/" << D;
      EXPECT_EQ(floorDiv(N, D), -ceilDiv(N, -D)) << N << "/" << D;
      // Quotient-remainder law coupling floorDiv with euclidMod:
      // for D > 0, N == floorDiv(N, D) * D + euclidMod(N, D).
      if (D > 0) {
        EXPECT_EQ(floorDiv(N, D) * D + euclidMod(N, D), N)
            << N << "/" << D;
      }
      int64_t M = euclidMod(N, D);
      EXPECT_GE(M, 0) << N << " mod " << D;
      EXPECT_LT(M, D < 0 ? -D : D) << N << " mod " << D;
    }
}

TEST(MathExtEdgeTest, Int64Extremes) {
  EXPECT_EQ(floorDiv(INT64_MIN, 1), INT64_MIN);
  EXPECT_EQ(floorDiv(INT64_MAX, 1), INT64_MAX);
  EXPECT_EQ(floorDiv(INT64_MIN, 2), INT64_MIN / 2);
  EXPECT_EQ(floorDiv(INT64_MIN + 1, -1), INT64_MAX);
  EXPECT_EQ(ceilDiv(INT64_MAX, 2), INT64_MAX / 2 + 1);
  EXPECT_EQ(euclidMod(INT64_MIN, 2), 0);
  EXPECT_EQ(euclidMod(INT64_MIN, 3), 1); // -2^63 = 3*q + 1.
  EXPECT_EQ(euclidMod(INT64_MAX, INT64_MAX), 0);
  EXPECT_EQ(gcd64(INT64_MAX, 0), INT64_MAX);
  EXPECT_EQ(gcd64(0, 0), 0);
  EXPECT_EQ(addChecked(INT64_MAX, 0), INT64_MAX);
  EXPECT_EQ(addChecked(INT64_MIN, 0), INT64_MIN);
  EXPECT_EQ(mulChecked(INT64_MAX, 1), INT64_MAX);
  EXPECT_EQ(mulChecked(INT64_MIN, 1), INT64_MIN);
  EXPECT_EQ(mulChecked(INT64_MAX, -1), -INT64_MAX);
}

TEST(MathExtEdgeDeathTest, ZeroDivisorsRejected) {
  EXPECT_DEATH_IF_SUPPORTED(floorDiv(7, 0), "floorDiv by zero");
  EXPECT_DEATH_IF_SUPPORTED(ceilDiv(7, 0), "ceilDiv by zero");
  EXPECT_DEATH_IF_SUPPORTED(euclidMod(7, 0), "euclidMod by zero");
}

TEST(MathExtEdgeDeathTest, CheckedArithmeticRejectsOverflow) {
  EXPECT_DEATH_IF_SUPPORTED(addChecked(INT64_MAX, 1), "add overflow");
  EXPECT_DEATH_IF_SUPPORTED(addChecked(INT64_MIN, -1), "add overflow");
  EXPECT_DEATH_IF_SUPPORTED(mulChecked(INT64_MAX, 2), "multiply overflow");
  EXPECT_DEATH_IF_SUPPORTED(mulChecked(INT64_MIN, -1), "multiply overflow");
  EXPECT_DEATH_IF_SUPPORTED(lcm64(INT64_MAX, INT64_MAX - 1),
                            "multiply overflow");
}
