//===- PartitionedGridStorage.h - Per-device slab storage ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// FieldStorage sharded across a simulated device topology: the outermost
/// spatial dimension is split into one contiguous slab of *owned* cells per
/// device (weighted by SM count, DeviceTopology::planSlabs), and every
/// device additionally replicates *halo rings* of its neighbors' boundary
/// cells, sized by the stencil's read reach (core::partitionHaloExtent).
/// Each device's allocation is a GridStorage over its slab rows -- owned
/// cells plus rings, in the one rotating-buffer layout, indexed by grid
/// coordinates -- so a device touches only its own allocation: reads
/// resolve in the owned slab or the rings, writes land in owned cells only.
///
/// Inter-device traffic is explicit. Writes into the strip of owned cells
/// that a neighbor replicates are recorded as *dirty*; each device's
/// pushDirtyDown/pushDirtyUp copies exactly those values into the
/// neighbors' rings and counts them -- the measured halo traffic the
/// analytic model (gpu::MemoryModel's predictHaloExchangeValues) is
/// cross-checked against. The DeviceSim backend runs every device's push
/// at every wavefront barrier, the cadence for which the one-step halo
/// ring is exactly sufficient: within a wavefront no instance reads
/// another's write (they are mutually independent), and everything older
/// was exchanged at an earlier barrier.
///
/// The plain FieldStorage read/write interface stays fully coherent (a
/// write is propagated to every replica immediately, without touching the
/// dirty accounting), so serial and thread-pool backends -- and the
/// bit-exact comparison against a flat reference -- work on a partitioned
/// storage unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_PARTITIONEDGRIDSTORAGE_H
#define HEXTILE_EXEC_PARTITIONEDGRIDSTORAGE_H

#include "exec/FieldStorage.h"
#include "exec/GridStorage.h"
#include "gpu/DeviceTopology.h"
#include "ir/StencilProgram.h"

#include <vector>

namespace hextile {
namespace exec {

/// Rotating-buffer storage sharded into per-device slabs + halo rings.
class PartitionedGridStorage final : public FieldStorage {
public:
  /// Shards \p P's grid over \p Topo. When the grid is too narrow to feed
  /// every device (owned width floor = core::minPartitionWidth) the
  /// decomposition falls back to a prefix of the chain; numDevices()
  /// reports the count actually used.
  ///
  /// \p HaloSteps is the exchange cadence the rings are provisioned for:
  /// 1 (the default) sizes them for an exchange at every wavefront
  /// barrier, exactly the stencil's read reach; a banded replay that
  /// exchanges only once per HaloSteps-step time band passes its band
  /// height and gets band-deep rings (core::partitionHaloExtent scaled by
  /// the cadence) plus a matching owned-width floor.
  PartitionedGridStorage(const ir::StencilProgram &P,
                         const gpu::DeviceTopology &Topo,
                         const Initializer &Init = defaultInit,
                         int64_t HaloSteps = 1);

  // --- FieldStorage (global, always-coherent view) ----------------------
  const char *kind() const override { return "partitioned"; }
  unsigned numFields() const override {
    return Slabs.front().Rows.numFields();
  }
  unsigned depth(unsigned Field) const override {
    return Slabs.front().Rows.depth(Field);
  }
  const std::vector<int64_t> &sizes() const override {
    return Slabs.front().Rows.sizes();
  }
  float read(unsigned Field, int64_t T,
             std::span<const int64_t> Coords) const override;
  void write(unsigned Field, int64_t T, std::span<const int64_t> Coords,
             float V) override;

  // --- Decomposition ----------------------------------------------------
  unsigned numDevices() const {
    return static_cast<unsigned>(Slabs.size());
  }
  /// Devices the topology asked for (> numDevices() when the grid forced a
  /// fallback).
  unsigned requestedDevices() const { return Requested; }
  /// Owned range of \p Dev along the partitioned (outermost) dimension.
  const gpu::SlabRange &owned(unsigned Dev) const {
    return Slabs[Dev].Owned;
  }
  /// Device owning coordinate \p S0 of the partitioned dimension.
  unsigned ownerOf(int64_t S0) const;
  /// Halo ring widths below/above each slab (same for all devices).
  int64_t haloLo() const { return HaloLo; }
  int64_t haloHi() const { return HaloHi; }
  /// Exchange cadence the rings were provisioned for (ctor's HaloSteps).
  int64_t haloSteps() const { return HaloSteps; }

  /// Arms banded-replay semantics on the device-scoped path: writeOn may
  /// land in the writer's *halo rings* (the redundant trapezoid
  /// computation of an overlapped band recomputes neighbor cells in its
  /// own slab) -- ring writes stay private, only owned-cell writes become
  /// dirty traffic -- and the dirty lists are deduplicated per
  /// (field, slot, cell) before a push, since a band rewrites the same
  /// rotating slot whenever it is deeper than a field's buffer. Off (the
  /// default), writeOn keeps the strict owner-computes contract.
  void setBandedReplayMode(bool On) { BandedReplay = On; }
  bool bandedReplayMode() const { return BandedReplay; }

  // --- Device-scoped access (the DeviceSim execution path) --------------
  /// Read as \p Dev: \p Coords must lie in its owned slab or halo rings.
  float readOn(unsigned Dev, unsigned Field, int64_t T,
               std::span<const int64_t> Coords) const;
  /// Write as \p Dev: \p Coords must be owned by it. Writes into a strip a
  /// neighbor replicates are deferred traffic -- recorded dirty, copied
  /// out by the next pushDirtyDown/pushDirtyUp.
  void writeOn(unsigned Dev, unsigned Field, int64_t T,
               std::span<const int64_t> Coords, float V);

  /// A FieldStorage facade executing "as device Dev": reads/writes resolve
  /// through readOn/writeOn, so replay code (executeInstance) runs
  /// unmodified against one device's memory.
  class DeviceView final : public FieldStorage {
  public:
    DeviceView(PartitionedGridStorage &S, unsigned Dev)
        : S(S), Dev(Dev) {}
    const char *kind() const override { return "partitioned-device"; }
    unsigned numFields() const override { return S.numFields(); }
    unsigned depth(unsigned Field) const override { return S.depth(Field); }
    const std::vector<int64_t> &sizes() const override { return S.sizes(); }
    float read(unsigned Field, int64_t T,
               std::span<const int64_t> Coords) const override {
      return S.readOn(Dev, Field, T, Coords);
    }
    void write(unsigned Field, int64_t T, std::span<const int64_t> Coords,
               float V) override {
      S.writeOn(Dev, Field, T, Coords, V);
    }

  private:
    PartitionedGridStorage &S;
    unsigned Dev;
  };

  /// One device's half of an exchange round, split per direction so the
  /// DeviceSim backend can run all devices' pushes concurrently and time
  /// each link separately. pushDirtyDown(Dev) copies Dev's dirty
  /// lower-boundary values into neighbor Dev-1's upper ring (chain link
  /// Dev-1); pushDirtyUp(Dev) copies the upper-boundary values into
  /// neighbor Dev+1's lower ring (link Dev). Both clear the list they
  /// drained and return the values moved.
  ///
  /// Race-freedom by construction, relied on under TSan: device D's pushes
  /// read only D's *owned* cells and write only the two neighbors' ring
  /// cells, and a slab's lower ring is written exclusively by neighbor
  /// D-1, its upper ring exclusively by D+1 -- every destination cell has
  /// one writer, and rings are disjoint from the owned cells concurrent
  /// pushes read. The required ordering (pushes happen after every
  /// device's compute, before anyone's next read) is the backend's
  /// two-phase barrier, not this class's concern.
  size_t pushDirtyDown(unsigned Dev);
  size_t pushDirtyUp(unsigned Dev);

  /// One deferred boundary value: the key the dirty lists (and the banded
  /// mode's pre-push deduplication) work in.
  struct DirtyCell {
    unsigned Field;
    unsigned Slot;
    int64_t Global; ///< Flattened spatial index over the full grid.
  };

private:
  /// One device's allocation: its slab rows -- owned cells plus halo rings,
  /// clipped to the grid -- in the flat rotating-buffer layout.
  struct DeviceSlab {
    gpu::SlabRange Owned;
    GridStorage Rows; ///< [Owned.Lo - haloLo, Owned.Hi + haloHi).
    std::vector<DirtyCell> DirtyDown; ///< For neighbor Dev-1's upper ring.
    std::vector<DirtyCell> DirtyUp;   ///< For neighbor Dev+1's lower ring.
  };

  /// Copies \p Dirty's cells from slab \p From into slab \p To and clears
  /// the list; returns the values moved.
  size_t push(std::vector<DirtyCell> &Dirty, const GridStorage &From,
              GridStorage &To);

  int64_t HaloLo = 0;
  int64_t HaloHi = 0;
  int64_t HaloSteps = 1;
  bool BandedReplay = false;
  unsigned Requested = 0;
  std::vector<DeviceSlab> Slabs;
  std::vector<unsigned> Owner; ///< Dim-0 coordinate -> owning device.
};

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_PARTITIONEDGRIDSTORAGE_H
