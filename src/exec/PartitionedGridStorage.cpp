//===- PartitionedGridStorage.cpp - Per-device slab storage ---------------===//

#include "exec/PartitionedGridStorage.h"

#include "core/TileAnalysis.h"
#include "support/MathExt.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <tuple>

using namespace hextile;
using namespace hextile::exec;

PartitionedGridStorage::PartitionedGridStorage(const ir::StencilProgram &P,
                                               const gpu::DeviceTopology &Topo,
                                               const Initializer &Init,
                                               int64_t HaloSteps)
    : Sizes(P.spaceSizes()), HaloSteps(HaloSteps) {
  assert(!Sizes.empty() && "partitioning needs at least one spatial dim");
  assert(HaloSteps >= 1 && "exchange cadence must cover at least one step");
  unsigned NumFields = P.fields().size();
  Depth.resize(NumFields);
  for (unsigned F = 0; F < NumFields; ++F)
    Depth[F] = P.bufferDepth(F);
  FieldOffset.resize(NumFields);
  int64_t Copies = 0;
  for (unsigned F = 0; F < NumFields; ++F) {
    FieldOffset[F] = Copies;
    Copies += Depth[F];
  }

  InnerPoints = 1;
  for (unsigned D = 1; D < Sizes.size(); ++D)
    InnerPoints *= Sizes[D];

  core::HaloExtent Halo = core::partitionHaloExtent(P, /*Dim=*/0, HaloSteps);
  HaloLo = Halo.Lo;
  HaloHi = Halo.Hi;
  Requested = Topo.numDevices();

  int64_t Size0 = Sizes[0];
  std::vector<gpu::SlabRange> Plan =
      Topo.planSlabs(Size0, core::minPartitionWidth(P, /*Dim=*/0, HaloSteps));
  Slabs.resize(Plan.size());
  Owner.assign(static_cast<size_t>(Size0), 0);
  for (unsigned Dev = 0; Dev < Slabs.size(); ++Dev) {
    DeviceSlab &S = Slabs[Dev];
    S.Owned = Plan[Dev];
    S.SlabLo = std::max<int64_t>(0, S.Owned.Lo - HaloLo);
    S.SlabHi = std::min<int64_t>(Size0, S.Owned.Hi + HaloHi);
    S.Data.resize(Copies * (S.SlabHi - S.SlabLo) * InnerPoints);
    for (int64_t S0 = S.Owned.Lo; S0 < S.Owned.Hi; ++S0)
      Owner[static_cast<size_t>(S0)] = Dev;
  }

  // Fill every device's slab -- owned cells and halo rings alike -- with
  // the same initial values in every rotating copy, so replicas agree and
  // never-updated cells read consistently at any time offset.
  std::vector<int64_t> Coords(Sizes.size(), 0);
  for (DeviceSlab &S : Slabs) {
    std::function<void(unsigned)> Fill = [&](unsigned Dim) {
      if (Dim == Sizes.size()) {
        int64_t G = globalIndex(Coords);
        for (unsigned F = 0; F < NumFields; ++F) {
          float V = Init(F, Coords);
          for (unsigned Slot = 0; Slot < Depth[F]; ++Slot)
            cell(S, F, Slot, G) = V;
        }
        return;
      }
      int64_t Lo = Dim == 0 ? S.SlabLo : 0;
      int64_t Hi = Dim == 0 ? S.SlabHi : Sizes[Dim];
      for (int64_t I = Lo; I < Hi; ++I) {
        Coords[Dim] = I;
        Fill(Dim + 1);
      }
    };
    Fill(0);
  }
}

int64_t PartitionedGridStorage::globalIndex(
    std::span<const int64_t> Coords) const {
  assert(Coords.size() == Sizes.size() && "coordinate arity mismatch");
  int64_t Linear = 0;
  for (unsigned D = 0; D < Sizes.size(); ++D) {
    assert(Coords[D] >= 0 && Coords[D] < Sizes[D] && "out of bounds");
    Linear = Linear * Sizes[D] + Coords[D];
  }
  return Linear;
}

unsigned PartitionedGridStorage::slotOf(unsigned Field, int64_t T) const {
  return static_cast<unsigned>(euclidMod(T, Depth[Field]));
}

float &PartitionedGridStorage::cell(DeviceSlab &S, unsigned Field,
                                    unsigned Slot, int64_t Global) {
  int64_t SlabPoints = (S.SlabHi - S.SlabLo) * InnerPoints;
  int64_t Local = Global - S.SlabLo * InnerPoints;
  assert(Local >= 0 && Local < SlabPoints &&
         "access outside this device's slab + halo rings");
  return S.Data[(FieldOffset[Field] + Slot) * SlabPoints + Local];
}

float PartitionedGridStorage::cell(const DeviceSlab &S, unsigned Field,
                                   unsigned Slot, int64_t Global) const {
  return const_cast<PartitionedGridStorage *>(this)->cell(
      const_cast<DeviceSlab &>(S), Field, Slot, Global);
}

unsigned PartitionedGridStorage::ownerOf(int64_t S0) const {
  assert(S0 >= 0 && S0 < Sizes[0] && "coordinate outside the grid");
  return Owner[static_cast<size_t>(S0)];
}

float PartitionedGridStorage::read(unsigned Field, int64_t T,
                                   std::span<const int64_t> Coords) const {
  const DeviceSlab &S = Slabs[ownerOf(Coords[0])];
  return cell(S, Field, slotOf(Field, T), globalIndex(Coords));
}

void PartitionedGridStorage::write(unsigned Field, int64_t T,
                                   std::span<const int64_t> Coords,
                                   float V) {
  // Coherent write-through: update the owner and every neighbor replica at
  // once (used by the serial/thread-pool backends and by tests; the
  // DeviceSim path defers replica updates through writeOn + exchange).
  unsigned Slot = slotOf(Field, T);
  int64_t G = globalIndex(Coords);
  unsigned Dev = ownerOf(Coords[0]);
  unsigned First = Dev == 0 ? 0 : Dev - 1;
  unsigned Last = std::min<unsigned>(Dev + 1, numDevices() - 1);
  for (unsigned D = First; D <= Last; ++D) {
    DeviceSlab &S = Slabs[D];
    if (Coords[0] >= S.SlabLo && Coords[0] < S.SlabHi)
      cell(S, Field, Slot, G) = V;
  }
}

float PartitionedGridStorage::readOn(unsigned Dev, unsigned Field, int64_t T,
                                     std::span<const int64_t> Coords) const {
  const DeviceSlab &S = Slabs[Dev];
  assert(Coords[0] >= S.SlabLo && Coords[0] < S.SlabHi &&
         "device read outside its slab + halo rings: the schedule needs "
         "more communication than the one-step halo exchange provides");
  return cell(S, Field, slotOf(Field, T), globalIndex(Coords));
}

void PartitionedGridStorage::writeOn(unsigned Dev, unsigned Field, int64_t T,
                                     std::span<const int64_t> Coords,
                                     float V) {
  DeviceSlab &S = Slabs[Dev];
  unsigned Slot = slotOf(Field, T);
  int64_t G = globalIndex(Coords);
  if (BandedReplay && (Coords[0] < S.Owned.Lo || Coords[0] >= S.Owned.Hi)) {
    // Redundant trapezoid computation of an overlapped band: the write
    // lands in this device's own halo ring (private replica, no traffic).
    // It reproduces bit for bit what the cell's owner computes, so the
    // replica stays coherent without an exchange.
    assert(Coords[0] >= S.SlabLo && Coords[0] < S.SlabHi &&
           "banded ring write outside this device's slab");
    cell(S, Field, Slot, G) = V;
    return;
  }
  assert(Coords[0] >= S.Owned.Lo && Coords[0] < S.Owned.Hi &&
         "devices write only cells they own (owner-computes placement)");
  cell(S, Field, Slot, G) = V;
  // Writes a neighbor replicates become traffic at the next exchange.
  if (Dev > 0 && Coords[0] < S.Owned.Lo + HaloHi)
    S.DirtyDown.push_back({Field, Slot, G});
  if (Dev + 1 < numDevices() && Coords[0] >= S.Owned.Hi - HaloLo)
    S.DirtyUp.push_back({Field, Slot, G});
}

// A band deeper than a field's rotating buffer rewrites the same slot of
// the same cell several times before the band-end exchange; only the last
// value is traffic. The dirty list is deduplicated in place (order is
// irrelevant: the push copies current cell values, not recorded ones).
static void dedupDirty(std::vector<PartitionedGridStorage::DirtyCell> &Dirty) {
  std::sort(Dirty.begin(), Dirty.end(),
            [](const PartitionedGridStorage::DirtyCell &A,
               const PartitionedGridStorage::DirtyCell &B) {
              return std::tie(A.Field, A.Slot, A.Global) <
                     std::tie(B.Field, B.Slot, B.Global);
            });
  Dirty.erase(std::unique(Dirty.begin(), Dirty.end(),
                          [](const PartitionedGridStorage::DirtyCell &A,
                             const PartitionedGridStorage::DirtyCell &B) {
                            return A.Field == B.Field && A.Slot == B.Slot &&
                                   A.Global == B.Global;
                          }),
              Dirty.end());
}

size_t PartitionedGridStorage::pushDirtyDown(unsigned Dev) {
  DeviceSlab &S = Slabs[Dev];
  if (BandedReplay)
    dedupDirty(S.DirtyDown);
  size_t Sent = S.DirtyDown.size();
  assert((Sent == 0 || Dev > 0) && "device 0 has no lower neighbor");
  for (const DirtyCell &D : S.DirtyDown)
    cell(Slabs[Dev - 1], D.Field, D.Slot, D.Global) =
        cell(S, D.Field, D.Slot, D.Global);
  S.DirtyDown.clear();
  return Sent;
}

size_t PartitionedGridStorage::pushDirtyUp(unsigned Dev) {
  DeviceSlab &S = Slabs[Dev];
  if (BandedReplay)
    dedupDirty(S.DirtyUp);
  size_t Sent = S.DirtyUp.size();
  assert((Sent == 0 || Dev + 1 < numDevices()) &&
         "the last device has no upper neighbor");
  for (const DirtyCell &D : S.DirtyUp)
    cell(Slabs[Dev + 1], D.Field, D.Slot, D.Global) =
        cell(S, D.Field, D.Slot, D.Global);
  S.DirtyUp.clear();
  return Sent;
}
