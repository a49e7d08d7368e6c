//===- GridStorage.h - Flat rotating-buffer field storage ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat FieldStorage implementation: one contiguous rotating-buffer
/// array per field over the whole grid (a single simulated address space),
/// generalizing the double buffering of Fig. 1 (A[(t+1)%2] = ...) to
/// arbitrary read depth. This is the reference storage every partitioned
/// replay is compared against bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_GRIDSTORAGE_H
#define HEXTILE_EXEC_GRIDSTORAGE_H

#include "exec/FieldStorage.h"
#include "ir/StencilProgram.h"
#include "support/MathExt.h"

#include <cassert>
#include <vector>

namespace hextile {
namespace exec {

/// Flat rotating-buffer storage for all fields of one program.
class GridStorage final : public FieldStorage {
public:
  /// Allocates storage for \p P and fills every slot from \p Init.
  explicit GridStorage(const ir::StencilProgram &P,
                       const Initializer &Init = defaultInit);

  const char *kind() const override { return "flat"; }
  unsigned numFields() const override { return Depth.size(); }
  unsigned depth(unsigned Field) const override { return Depth[Field]; }
  const std::vector<int64_t> &sizes() const override { return Sizes; }

  /// Value of \p Field at time step \p T (any T; slot T mod depth).
  /// Non-virtual direct accessors for callers that hold the concrete
  /// type; defined inline so the devirtualized interpreter hot path
  /// (executeInstanceOn<GridStorage>, Executor.h) flattens the address
  /// computation into the instance loop instead of paying two virtual
  /// calls per access.
  float &at(unsigned Field, int64_t T, std::span<const int64_t> Coords) {
    return Data[linearIndex(Field, T, Coords)];
  }
  float at(unsigned Field, int64_t T, std::span<const int64_t> Coords) const {
    return Data[linearIndex(Field, T, Coords)];
  }

  float read(unsigned Field, int64_t T,
             std::span<const int64_t> Coords) const override {
    return at(Field, T, Coords);
  }
  void write(unsigned Field, int64_t T, std::span<const int64_t> Coords,
             float V) override {
    at(Field, T, Coords) = V;
  }

private:
  int64_t linearIndex(unsigned Field, int64_t T,
                      std::span<const int64_t> Coords) const {
    assert(Field < Depth.size() && "field out of range");
    assert(Coords.size() == Sizes.size() && "coordinate arity mismatch");
    int64_t Slot = euclidMod(T, Depth[Field]);
    int64_t Linear = 0;
    for (unsigned D = 0; D < Sizes.size(); ++D) {
      assert(Coords[D] >= 0 && Coords[D] < Sizes[D] && "out of bounds");
      Linear = Linear * Sizes[D] + Coords[D];
    }
    return FieldOffset[Field] + Slot * PointsPerCopy + Linear;
  }

  std::vector<int64_t> Sizes;       ///< Spatial sizes (shared by fields).
  std::vector<unsigned> Depth;      ///< Rotating depth per field.
  std::vector<int64_t> FieldOffset; ///< Start of each field in Data.
  int64_t PointsPerCopy = 0;
  std::vector<float> Data;
};

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_GRIDSTORAGE_H
