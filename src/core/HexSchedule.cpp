//===- HexSchedule.cpp - Two-phase hexagonal tile schedule ----------------===//

#include "core/HexSchedule.h"

#include <cassert>

using namespace hextile;
using namespace hextile::core;

HexSchedule::HexSchedule(const HexTileParams &Params)
    : Geometry(Params), TimePeriod(Params.timePeriod()),
      SpacePeriod(Params.spacePeriod()), Drift(Params.drift()),
      Shift0(Params.floorD0H() + Params.W0 + 1) {}

HexTileCoord HexSchedule::boxCoord(int64_t T, int64_t S0, int Phase) const {
  HexTileCoord C;
  C.Phase = Phase;
  if (Phase == 0) {
    // Eq. (2): T = floor((t + h + 1) / (2h + 2)).
    int64_t Shifted = T + params().H + 1;
    C.T = floorDiv(Shifted, TimePeriod);
    C.A = euclidMod(Shifted, TimePeriod);
    // Eq. (3) with the lattice-consistent shift (see header note):
    // S0 = floor((s0 + |_d0h_| + w0 + 1 + T*drift) / period).
    int64_t Num = S0 + Shift0 + C.T * Drift;
    C.S0 = floorDiv(Num, SpacePeriod);
    C.B = euclidMod(Num, SpacePeriod);
    return C;
  }
  assert(Phase == 1 && "phase must be 0 or 1");
  // Eq. (4): T = floor(t / (2h + 2)).
  C.T = floorDiv(T, TimePeriod);
  C.A = euclidMod(T, TimePeriod);
  // Eq. (5): S0 = floor((s0 + T*drift) / period).
  int64_t Num = S0 + C.T * Drift;
  C.S0 = floorDiv(Num, SpacePeriod);
  C.B = euclidMod(Num, SpacePeriod);
  return C;
}

HexTileCoord HexSchedule::locate(int64_t T, int64_t S0) const {
  HexTileCoord C0 = boxCoord(T, S0, 0);
  bool In0 = Geometry.contains(C0.A, C0.B);
  HexTileCoord C1 = boxCoord(T, S0, 1);
  [[maybe_unused]] bool In1 = Geometry.contains(C1.A, C1.B);
  assert((In0 ^ In1) && "hexagonal phases must partition the plane");
  return In0 ? C0 : C1;
}

void HexSchedule::tileOrigin(int64_t TT, int Phase, int64_t SS0, int64_t &T,
                             int64_t &S0) const {
  if (Phase == 0) {
    T = TT * TimePeriod - params().H - 1;
    S0 = SS0 * SpacePeriod - Shift0 - TT * Drift;
    return;
  }
  assert(Phase == 1 && "phase must be 0 or 1");
  T = TT * TimePeriod;
  S0 = SS0 * SpacePeriod - TT * Drift;
}

using poly::QExpr;

QExpr HexSchedule::exprT(int Phase) const {
  const HexTileParams &P = params();
  QExpr T = QExpr::var(0, "t");
  if (Phase == 0)
    return (T + QExpr::constant(P.H + 1)).floorDiv(P.timePeriod());
  return T.floorDiv(P.timePeriod());
}

QExpr HexSchedule::exprS0(int Phase) const {
  const HexTileParams &P = params();
  QExpr S0 = QExpr::var(1, "s0");
  QExpr Num = S0;
  if (Phase == 0)
    Num = Num + QExpr::constant(P.floorD0H() + P.W0 + 1);
  if (P.drift() != 0)
    Num = Num + exprT(Phase) * P.drift();
  return Num.floorDiv(P.spacePeriod());
}

QExpr HexSchedule::exprA(int Phase) const {
  const HexTileParams &P = params();
  QExpr T = QExpr::var(0, "t");
  if (Phase == 0)
    return (T + QExpr::constant(P.H + 1)).mod(P.timePeriod());
  return T.mod(P.timePeriod());
}

QExpr HexSchedule::exprB(int Phase) const {
  const HexTileParams &P = params();
  QExpr S0 = QExpr::var(1, "s0");
  QExpr Num = S0;
  if (Phase == 0)
    Num = Num + QExpr::constant(P.floorD0H() + P.W0 + 1);
  if (P.drift() != 0)
    Num = Num + exprT(Phase) * P.drift();
  return Num.mod(P.spacePeriod());
}
