//===- HexSchedule.h - Two-phase hexagonal tile schedule -------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hexagonal tile schedule of Sec. 3.3.3: maps a point (t, s0) of the
/// canonical iteration space to a tile (T, p, S0) plus local coordinates
/// (a, b). Phase 0 ("blue" tiles of Fig. 5) uses eqs. (2)-(3); phase 1
/// ("green") uses eqs. (4)-(5). Within a time tile T, all phase-0 tiles run
/// (in parallel over S0) before all phase-1 tiles.
///
/// The lattice constants of those equations (the two periods, the drift and
/// the phase-0 shift) are integers cached at construction, and the hexagon
/// test is a row-table lookup, so boxCoord() and locate() are plain integer
/// arithmetic. The expr*() forms rebuild the same equations symbolically
/// from HexTileParams.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CORE_HEXSCHEDULE_H
#define HEXTILE_CORE_HEXSCHEDULE_H

#include "core/HexagonGeometry.h"
#include "poly/QExpr.h"

#include <optional>

namespace hextile {
namespace core {

/// A tile assignment for one iteration point.
struct HexTileCoord {
  int64_t T = 0;  ///< Time-tile index, eq. (2)/(4).
  int Phase = 0;  ///< 0 = blue, 1 = green.
  int64_t S0 = 0; ///< Wavefront-parallel tile index, eq. (3)/(5).
  int64_t A = 0;  ///< Local time coordinate in [0, 2h+2).
  int64_t B = 0;  ///< Local s0 coordinate in [0, spacePeriod()).

  /// Lexicographic comparison of the sequential part (T, Phase).
  friend bool operator<(const HexTileCoord &X, const HexTileCoord &Y) {
    if (X.T != Y.T)
      return X.T < Y.T;
    return X.Phase < Y.Phase;
  }
  bool sameTile(const HexTileCoord &O) const {
    return T == O.T && Phase == O.Phase && S0 == O.S0;
  }
};

/// The two-phase hexagonal schedule over the (t, s0) plane.
class HexSchedule {
public:
  explicit HexSchedule(const HexTileParams &Params);

  const HexTileParams &params() const { return Geometry.params(); }
  const HexagonGeometry &hexagon() const { return Geometry; }

  /// Box coordinates of (t, s0) under the given \p Phase (the overlapping
  /// solid/dotted boxes of Fig. 5); the point need not lie in the phase's
  /// hexagon.
  HexTileCoord boxCoord(int64_t T, int64_t S0, int Phase) const;

  /// The unique tile owning (t, s0): tries phase 0, falls back to phase 1.
  /// Asserts that exactly one phase claims the point (exact cover).
  HexTileCoord locate(int64_t T, int64_t S0) const;

  /// Iteration-space origin (t, s0) of the box of tile (TT, Phase, SS0):
  /// the point with local coordinates (0, 0).
  void tileOrigin(int64_t TT, int Phase, int64_t SS0, int64_t &T,
                  int64_t &S0) const;

  /// Symbolic forms of eqs. (2)-(5) plus the local coordinates, over the
  /// variables (t, s0); reproduces the Fig. 6 text for the hex dimensions.
  poly::QExpr exprT(int Phase) const;
  poly::QExpr exprS0(int Phase) const;
  poly::QExpr exprA(int Phase) const;
  poly::QExpr exprB(int Phase) const;

private:
  HexagonGeometry Geometry;
  int64_t TimePeriod;  ///< 2h+2.
  int64_t SpacePeriod; ///< 2w0 + 2 + |_d0h_| + |_d1h_|.
  int64_t Drift;       ///< |_d1h_| - |_d0h_| per time tile.
  int64_t Shift0;      ///< Phase-0 s0 shift |_d0h_| + w0 + 1, eq. (3).
};

} // namespace core
} // namespace hextile

#endif // HEXTILE_CORE_HEXSCHEDULE_H
