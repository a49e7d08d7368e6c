//===- GridStorage.cpp - Flat rotating-buffer field storage ----------------===//

#include "exec/GridStorage.h"

#include <algorithm>
#include <cassert>

using namespace hextile;
using namespace hextile::exec;

GridStorage::GridStorage(const ir::StencilProgram &P,
                         const Initializer &Init, int64_t Lo, int64_t Hi)
    : Sizes(P.spaceSizes()), RowLo(std::max<int64_t>(0, Lo)),
      RowHi(std::min(Sizes.at(0), Hi)) {
  assert(RowLo <= RowHi && "row range outside the grid");
  for (unsigned D = 1; D < Sizes.size(); ++D)
    InnerPoints *= Sizes[D];
  PointsPerCopy = (RowHi - RowLo) * InnerPoints;

  unsigned NumFields = P.fields().size();
  Depth.resize(NumFields);
  FieldBase.resize(NumFields);
  int64_t Total = 0;
  for (unsigned F = 0; F < NumFields; ++F) {
    Depth[F] = P.bufferDepth(F);
    FieldBase[F] = Total - RowLo * InnerPoints;
    Total += PointsPerCopy * Depth[F];
  }
  Data.resize(Total);
  if (!Init)
    return;

  // Fill every rotating copy with the same initial values, so never-updated
  // cells read consistently at any time offset.
  std::vector<int64_t> Coords(Sizes.size(), 0);
  for (int64_t L = 0; L < PointsPerCopy; ++L) {
    int64_t Rem = L;
    for (unsigned D = Sizes.size(); D-- > 1;) {
      Coords[D] = Rem % Sizes[D];
      Rem /= Sizes[D];
    }
    Coords[0] = RowLo + Rem;
    int64_t Index = RowLo * InnerPoints + L;
    for (unsigned F = 0; F < NumFields; ++F) {
      float V = Init(F, Coords);
      for (unsigned S = 0; S < Depth[F]; ++S)
        element(F, S, Index) = V;
    }
  }
}

void GridStorage::copyRows(const GridStorage &Src, int64_t Lo, int64_t Hi) {
  assert(Src.Sizes == Sizes && Src.Depth == Depth &&
         "copying rows between storages of different programs");
  assert(Lo <= Hi && Lo >= std::max(RowLo, Src.RowLo) &&
         Hi <= std::min(RowHi, Src.RowHi) && "rows not held by both storages");
  int64_t From = Lo * InnerPoints, Count = (Hi - Lo) * InnerPoints;
  for (unsigned F = 0; F < Depth.size(); ++F)
    for (unsigned S = 0; S < Depth[F]; ++S) {
      const float *In =
          Src.Data.data() + (Src.FieldBase[F] + S * Src.PointsPerCopy + From);
      std::copy(In, In + Count,
                Data.data() + (FieldBase[F] + S * PointsPerCopy + From));
    }
}
