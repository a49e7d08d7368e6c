//===- HexagonGeometry.cpp - The hexagonal tile shape ---------------------===//

#include "core/HexagonGeometry.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace hextile;
using namespace hextile::core;

namespace {

/// Inclusive b-range of row \p A of \p Shape (empty rows give Lo > Hi).
void shapeRowRange(const poly::IntegerSet &Shape, int64_t A, int64_t &Lo,
                   int64_t &Hi) {
  // All constraints have the form  ca*a + cb*b >= c  after normalization;
  // specialize at the given a and intersect the b-intervals.
  Lo = std::numeric_limits<int64_t>::min();
  Hi = std::numeric_limits<int64_t>::max();
  for (const poly::Constraint &C : Shape.constraints()) {
    const poly::AffineExpr &E = C.Expr;
    Rational Ca = E.coeff(0), Cb = E.coeff(1), K = E.constantTerm();
    Rational Rest = Ca * Rational(A) + K;
    assert(C.Kind == poly::ConstraintKind::GE);
    if (Cb.isZero()) {
      if (Rest.isNegative()) { // Row infeasible.
        Lo = 1;
        Hi = 0;
        return;
      }
      continue;
    }
    // Cb*b + Rest >= 0.
    Rational Bound = -Rest / Cb;
    if (Cb > Rational(0))
      Lo = std::max(Lo, Bound.ceil());
    else
      Hi = std::min(Hi, Bound.floor());
  }
}

} // namespace

HexagonGeometry::HexagonGeometry(const HexTileParams &Params)
    : P(Params), Shape(std::vector<std::string>{"a", "b"}) {
  assert(P.isValid() && "invalid hexagonal tile parameters");
  int64_t N0 = P.Delta0.num(), D0 = P.Delta0.den();
  int64_t N1 = P.Delta1.num(), D1 = P.Delta1.den();
  int64_t F0 = P.floorD0H(), F1 = P.floorD1H();
  int64_t H = P.H, W0 = P.W0;

  using poly::AffineExpr;
  using poly::Constraint;
  AffineExpr A = AffineExpr::dim(2, 0);
  AffineExpr B = AffineExpr::dim(2, 1);
  auto K = [](int64_t C) { return AffineExpr::constant(2, Rational(C)); };

  // (6)  n0*a - d0*b <= (2h+1)*n0 - d0*|_d0h_|
  Shape.addConstraint(
      Constraint::le(A * N0 - B * D0, K((2 * H + 1) * N0 - D0 * F0)));
  // (7)  a <= 2h+1
  Shape.addConstraint(Constraint::le(A, K(2 * H + 1)));
  // (8)  n1*a + d1*b <= (2h+1)*n1 + d1*(|_d0h_| + w0)
  Shape.addConstraint(
      Constraint::le(A * N1 + B * D1, K((2 * H + 1) * N1 + D1 * (F0 + W0))));
  // (10) n1*a + d1*b >= h*n1 - (d1 - 1)
  Shape.addConstraint(
      Constraint::ge(A * N1 + B * D1, K(H * N1 - (D1 - 1))));
  // (12) n0*a - d0*b >= h*n0 - d0*(|_d0h_| + w0 + |_d1h_|) - (d0 - 1)
  Shape.addConstraint(Constraint::ge(
      A * N0 - B * D0, K(H * N0 - D0 * (F0 + W0 + F1) - (D0 - 1))));
  // (13) a >= 0
  Shape.addConstraint(Constraint::ge(A, K(0)));

  Rows.resize(2 * H + 2);
  for (int64_t I = 0; I <= 2 * H + 1; ++I)
    shapeRowRange(Shape, I, Rows[I].Lo, Rows[I].Hi);
}

int64_t HexagonGeometry::pointsPerTile() const {
  int64_t N = 0;
  for (const Row &R : Rows)
    if (R.Lo <= R.Hi)
      N += R.Hi - R.Lo + 1;
  return N;
}

void HexagonGeometry::rowRange(int64_t A, int64_t &Lo, int64_t &Hi) const {
  if (A < 0 || A >= static_cast<int64_t>(Rows.size())) {
    Lo = 1;
    Hi = 0;
    return;
  }
  Lo = Rows[A].Lo;
  Hi = Rows[A].Hi;
}

int64_t HexagonGeometry::minB() const {
  int64_t Best = std::numeric_limits<int64_t>::max();
  for (const Row &R : Rows)
    if (R.Lo <= R.Hi)
      Best = std::min(Best, R.Lo);
  return Best;
}

int64_t HexagonGeometry::maxB() const {
  int64_t Best = std::numeric_limits<int64_t>::min();
  for (const Row &R : Rows)
    if (R.Lo <= R.Hi)
      Best = std::max(Best, R.Hi);
  return Best;
}

std::string HexagonGeometry::ascii() const {
  std::string Out;
  int64_t Width = P.spacePeriod();
  for (int64_t A = 0; A <= 2 * P.H + 1; ++A) {
    for (int64_t B = 0; B < Width; ++B)
      Out += contains(A, B) ? '#' : '.';
    Out += '\n';
  }
  return Out;
}
