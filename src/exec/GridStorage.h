//===- GridStorage.h - Flat rotating-buffer field storage ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one rotating-buffer array of hextile: per field, every rotating
/// slot back to back, each slot a row-major grid -- `[field][slot][grid]`,
/// generalizing the double buffering of Fig. 1 (A[(t+1)%2] = ...) to
/// arbitrary read depth. A GridStorage holds the rows [RowLo, RowHi) of
/// dimension 0 with full inner extents, and three callers pick the range:
///
///  * the whole grid -- the reference storage every replay is compared
///    against bit for bit, and the buffers the emitted `<name>_run(float
///    **)` entry point runs on (field(F) is ht_fields[F]);
///  * one tile's footprint -- the private window an overlapped tile stages
///    its band in (exec::runOverlapped, copyRows in and out);
///  * one device's slab plus halo rings -- a PartitionedGridStorage device.
///
/// Indices are whole-grid indices whatever the range: at() takes grid
/// coordinates, element() a whole-grid row-major index, and copyRows()
/// moves the same rows between storages holding different ranges.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_GRIDSTORAGE_H
#define HEXTILE_EXEC_GRIDSTORAGE_H

#include "exec/FieldStorage.h"
#include "ir/StencilProgram.h"
#include "support/MathExt.h"

#include <cassert>
#include <limits>
#include <span>
#include <vector>

namespace hextile {
namespace exec {

/// Rotating-buffer storage for all fields of one program, over a range of
/// dimension-0 rows.
class GridStorage final : public FieldStorage {
public:
  /// Allocates the rows [RowLo, RowHi) of \p P's grid, clipped to the grid
  /// (the whole grid by default), and fills every slot of every held cell
  /// from \p Init; an empty \p Init leaves them zero.
  explicit GridStorage(const ir::StencilProgram &P,
                       const Initializer &Init = defaultInit,
                       int64_t RowLo = 0,
                       int64_t RowHi = std::numeric_limits<int64_t>::max());

  const char *kind() const override { return "flat"; }
  unsigned numFields() const override { return Depth.size(); }
  unsigned depth(unsigned Field) const override { return Depth[Field]; }
  const std::vector<int64_t> &sizes() const override { return Sizes; }

  /// The dimension-0 rows held.
  int64_t rowLo() const { return RowLo; }
  int64_t rowHi() const { return RowHi; }

  /// Value of \p Field at time step \p T (any T; slot T mod depth) at grid
  /// coordinates \p Coords, whose row must be held. Non-virtual and inline
  /// for callers that hold the concrete type, so the devirtualized
  /// interpreter hot path (executeInstanceOn<GridStorage>, Executor.h)
  /// flattens the address computation into the instance loop.
  float &at(unsigned Field, int64_t T, std::span<const int64_t> Coords) {
    return Data[linearIndex(Field, T, Coords)];
  }
  float at(unsigned Field, int64_t T, std::span<const int64_t> Coords) const {
    return Data[linearIndex(Field, T, Coords)];
  }

  /// Slot \p Slot of \p Field at the whole-grid row-major index \p Index
  /// (rowMajor), which must lie in a held row.
  float &element(unsigned Field, unsigned Slot, int64_t Index) {
    return Data[elementIndex(Field, Slot, Index)];
  }
  float element(unsigned Field, unsigned Slot, int64_t Index) const {
    return Data[elementIndex(Field, Slot, Index)];
  }

  /// Whole-grid row-major index of \p Coords. Dimension 0 is not checked
  /// here: at() checks it against the held rows.
  int64_t rowMajor(std::span<const int64_t> Coords) const {
    assert(Coords.size() == Sizes.size() && "coordinate arity mismatch");
    int64_t Linear = Coords[0];
    for (unsigned D = 1; D < Sizes.size(); ++D) {
      assert(Coords[D] >= 0 && Coords[D] < Sizes[D] && "out of bounds");
      Linear = Linear * Sizes[D] + Coords[D];
    }
    return Linear;
  }

  /// Every slot of \p Field back to back, each slot the held rows in
  /// row-major order: over the whole grid, the buffer the emitted entry
  /// point takes as ht_fields[Field].
  std::span<float> field(unsigned Field) {
    return {Data.data() + (FieldBase[Field] + RowLo * InnerPoints),
            static_cast<size_t>(Depth[Field] * PointsPerCopy)};
  }

  /// Copies the rows [Lo, Hi) -- every slot of every field -- from \p Src,
  /// a storage of the same program; both must hold those rows. One
  /// contiguous copy per field and slot.
  void copyRows(const GridStorage &Src, int64_t Lo, int64_t Hi);

  float read(unsigned Field, int64_t T,
             std::span<const int64_t> Coords) const override {
    return at(Field, T, Coords);
  }
  void write(unsigned Field, int64_t T, std::span<const int64_t> Coords,
             float V) override {
    at(Field, T, Coords) = V;
  }

private:
  int64_t elementIndex(unsigned Field, unsigned Slot, int64_t Index) const {
    assert(Field < Depth.size() && Slot < Depth[Field] &&
           "field or slot out of range");
    assert(Index >= RowLo * InnerPoints && Index < RowHi * InnerPoints &&
           "index outside the held rows");
    return FieldBase[Field] + Slot * PointsPerCopy + Index;
  }

  int64_t linearIndex(unsigned Field, int64_t T,
                      std::span<const int64_t> Coords) const {
    assert(Field < Depth.size() && "field out of range");
    int64_t Slot = euclidMod(T, Depth[Field]);
    int64_t Linear = rowMajor(Coords);
    assert(Coords[0] >= RowLo && Coords[0] < RowHi &&
           "row outside this storage");
    return FieldBase[Field] + Slot * PointsPerCopy + Linear;
  }

  std::vector<int64_t> Sizes;   ///< Whole-grid spatial sizes.
  std::vector<unsigned> Depth;  ///< Rotating depth per field.
  int64_t RowLo = 0, RowHi = 0; ///< Held dimension-0 rows.
  int64_t InnerPoints = 1;      ///< Points per dimension-0 row.
  int64_t PointsPerCopy = 0;
  /// Per field, Data index of whole-grid index 0 in slot 0: the field's
  /// start minus RowLo * InnerPoints, so held rows index directly.
  std::vector<int64_t> FieldBase;
  std::vector<float> Data;
};

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_GRIDSTORAGE_H
