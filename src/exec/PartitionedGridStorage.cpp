//===- PartitionedGridStorage.cpp - Per-device slab storage ---------------===//

#include "exec/PartitionedGridStorage.h"

#include "core/TileAnalysis.h"
#include "support/MathExt.h"

#include <algorithm>
#include <cassert>
#include <tuple>

using namespace hextile;
using namespace hextile::exec;

PartitionedGridStorage::PartitionedGridStorage(const ir::StencilProgram &P,
                                               const gpu::DeviceTopology &Topo,
                                               const Initializer &Init,
                                               int64_t HaloSteps)
    : HaloSteps(HaloSteps) {
  assert(HaloSteps >= 1 && "exchange cadence must cover at least one step");
  core::HaloExtent Halo = core::partitionHaloExtent(P, /*Dim=*/0, HaloSteps);
  HaloLo = Halo.Lo;
  HaloHi = Halo.Hi;
  Requested = Topo.numDevices();

  int64_t Size0 = P.spaceSizes().at(0);
  std::vector<gpu::SlabRange> Plan =
      Topo.planSlabs(Size0, core::minPartitionWidth(P, /*Dim=*/0, HaloSteps));
  Owner.assign(static_cast<size_t>(Size0), 0);
  // Every device's slab -- owned cells and halo rings alike -- starts from
  // the same initial values, so replicas agree.
  for (unsigned Dev = 0; Dev < Plan.size(); ++Dev) {
    const gpu::SlabRange &Own = Plan[Dev];
    Slabs.push_back(
        {Own, GridStorage(P, Init, Own.Lo - HaloLo, Own.Hi + HaloHi), {}, {}});
    for (int64_t S0 = Own.Lo; S0 < Own.Hi; ++S0)
      Owner[static_cast<size_t>(S0)] = Dev;
  }
}

unsigned PartitionedGridStorage::ownerOf(int64_t S0) const {
  assert(S0 >= 0 && S0 < static_cast<int64_t>(Owner.size()) &&
         "coordinate outside the grid");
  return Owner[static_cast<size_t>(S0)];
}

float PartitionedGridStorage::read(unsigned Field, int64_t T,
                                   std::span<const int64_t> Coords) const {
  return Slabs[ownerOf(Coords[0])].Rows.at(Field, T, Coords);
}

void PartitionedGridStorage::write(unsigned Field, int64_t T,
                                   std::span<const int64_t> Coords,
                                   float V) {
  // Coherent write-through: update the owner and every neighbor replica at
  // once (used by the serial/thread-pool backends and by tests; the
  // DeviceSim path defers replica updates through writeOn + exchange).
  unsigned Dev = ownerOf(Coords[0]);
  unsigned First = Dev == 0 ? 0 : Dev - 1;
  unsigned Last = std::min<unsigned>(Dev + 1, numDevices() - 1);
  for (unsigned D = First; D <= Last; ++D) {
    GridStorage &Rows = Slabs[D].Rows;
    if (Coords[0] >= Rows.rowLo() && Coords[0] < Rows.rowHi())
      Rows.at(Field, T, Coords) = V;
  }
}

float PartitionedGridStorage::readOn(unsigned Dev, unsigned Field, int64_t T,
                                     std::span<const int64_t> Coords) const {
  const GridStorage &Rows = Slabs[Dev].Rows;
  assert(Coords[0] >= Rows.rowLo() && Coords[0] < Rows.rowHi() &&
         "device read outside its slab + halo rings: the schedule needs "
         "more communication than the one-step halo exchange provides");
  return Rows.at(Field, T, Coords);
}

void PartitionedGridStorage::writeOn(unsigned Dev, unsigned Field, int64_t T,
                                     std::span<const int64_t> Coords,
                                     float V) {
  DeviceSlab &S = Slabs[Dev];
  if (BandedReplay && (Coords[0] < S.Owned.Lo || Coords[0] >= S.Owned.Hi)) {
    // Redundant trapezoid computation of an overlapped band: the write
    // lands in this device's own halo ring (private replica, no traffic).
    // It reproduces bit for bit what the cell's owner computes, so the
    // replica stays coherent without an exchange.
    S.Rows.at(Field, T, Coords) = V;
    return;
  }
  assert(Coords[0] >= S.Owned.Lo && Coords[0] < S.Owned.Hi &&
         "devices write only cells they own (owner-computes placement)");
  S.Rows.at(Field, T, Coords) = V;
  // Writes a neighbor replicates become traffic at the next exchange.
  bool Down = Dev > 0 && Coords[0] < S.Owned.Lo + HaloHi;
  bool Up = Dev + 1 < numDevices() && Coords[0] >= S.Owned.Hi - HaloLo;
  if (!Down && !Up)
    return;
  DirtyCell Cell{Field, static_cast<unsigned>(euclidMod(T, depth(Field))),
                 S.Rows.rowMajor(Coords)};
  if (Down)
    S.DirtyDown.push_back(Cell);
  if (Up)
    S.DirtyUp.push_back(Cell);
}

size_t PartitionedGridStorage::push(std::vector<DirtyCell> &Dirty,
                                    const GridStorage &From,
                                    GridStorage &To) {
  if (BandedReplay) {
    // A band deeper than a field's rotating buffer rewrites the same slot
    // of the same cell several times before the band-end exchange; only
    // the last value is traffic. Order is irrelevant: the push copies
    // current cell values, not recorded ones.
    auto Key = [](const DirtyCell &C) {
      return std::tie(C.Field, C.Slot, C.Global);
    };
    std::sort(Dirty.begin(), Dirty.end(),
              [&](const DirtyCell &A, const DirtyCell &B) {
                return Key(A) < Key(B);
              });
    Dirty.erase(std::unique(Dirty.begin(), Dirty.end(),
                            [&](const DirtyCell &A, const DirtyCell &B) {
                              return Key(A) == Key(B);
                            }),
                Dirty.end());
  }
  for (const DirtyCell &D : Dirty)
    To.element(D.Field, D.Slot, D.Global) =
        From.element(D.Field, D.Slot, D.Global);
  size_t Sent = Dirty.size();
  Dirty.clear();
  return Sent;
}

size_t PartitionedGridStorage::pushDirtyDown(unsigned Dev) {
  DeviceSlab &S = Slabs[Dev];
  if (S.DirtyDown.empty())
    return 0;
  assert(Dev > 0 && "device 0 has no lower neighbor");
  return push(S.DirtyDown, S.Rows, Slabs[Dev - 1].Rows);
}

size_t PartitionedGridStorage::pushDirtyUp(unsigned Dev) {
  DeviceSlab &S = Slabs[Dev];
  if (S.DirtyUp.empty())
    return 0;
  assert(Dev + 1 < numDevices() && "the last device has no upper neighbor");
  return push(S.DirtyUp, S.Rows, Slabs[Dev + 1].Rows);
}
