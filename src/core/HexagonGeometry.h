//===- HexagonGeometry.h - The hexagonal tile shape ------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hexagonal tile shape of Sec. 3.3.2/3.3.3 in the local box coordinates
/// (a, b): constraints (6), (7), (8), (10), (12) and (13) of the paper,
/// scaled by the slope denominators so all coefficients are integers:
///
///   (6)  n0*a - d0*b <= (2h+1)*n0 - d0*|_d0h_|
///   (7)  a <= 2h+1
///   (8)  n1*a + d1*b <= (2h+1)*n1 + d1*(|_d0h_| + w0)
///   (10) n1*a + d1*b >= h*n1 - (d1 - 1)
///   (12) n0*a - d0*b >= h*n0 - d0*(|_d0h_| + w0 + |_d1h_|) - (d0 - 1)
///   (13) a >= 0
///
/// with delta0 = n0/d0 and delta1 = n1/d1. Every full tile contains exactly
/// the same number of integer points (the key difference from diamond
/// tiling, Sec. 2), which pointsPerTile() computes exactly.
///
/// Two forms of the one shape are kept. shape() is the symbolic form, an
/// IntegerSet for the polyhedral layers and their tests. The evaluated form
/// is a row table: the inclusive b-range of each row a = 0..2h+1, derived
/// once from the constraints at construction. contains(), rowRange(),
/// pointsPerTile(), minB() and maxB() read only the table, so testing a
/// point is two integer comparisons -- the same per-row bounds the emitted
/// kernels walk (EmissionPlan::RowLo/RowHi).
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CORE_HEXAGONGEOMETRY_H
#define HEXTILE_CORE_HEXAGONGEOMETRY_H

#include "core/HexTileParams.h"
#include "poly/IntegerSet.h"

#include <vector>

namespace hextile {
namespace core {

/// The hexagon in local (a, b) coordinates within the phase box
/// [0, 2h+2) x [0, spacePeriod()).
class HexagonGeometry {
public:
  explicit HexagonGeometry(const HexTileParams &Params);

  const HexTileParams &params() const { return P; }

  /// True if local point (a, b) lies inside the hexagon. Rows outside
  /// constraints (7) and (13), a < 0 or a > 2h+1, are empty, so the shape
  /// is self-contained.
  bool contains(int64_t A, int64_t B) const {
    if (A < 0 || A >= static_cast<int64_t>(Rows.size()))
      return false;
    const Row &R = Rows[A];
    return R.Lo <= B && B <= R.Hi;
  }

  /// The hexagon as an integer set over dims (a, b): the symbolic form.
  const poly::IntegerSet &shape() const { return Shape; }

  /// Exact number of integer points in the (full) tile.
  int64_t pointsPerTile() const;

  /// Inclusive b-range of the hexagon (for footprint bounding boxes).
  int64_t minB() const;
  int64_t maxB() const;

  /// Inclusive b-range of hexagon row a (empty rows return Lo > Hi).
  void rowRange(int64_t A, int64_t &Lo, int64_t &Hi) const;

  /// ASCII rendering of the shape ('#' inside, '.' outside), one row per a.
  std::string ascii() const;

private:
  /// Inclusive b-range of one row; Lo > Hi when the row is empty.
  struct Row {
    int64_t Lo, Hi;
  };

  HexTileParams P;
  poly::IntegerSet Shape;
  std::vector<Row> Rows; ///< Rows a = 0..2h+1, derived from Shape.
};

} // namespace core
} // namespace hextile

#endif // HEXTILE_CORE_HEXAGONGEOMETRY_H
