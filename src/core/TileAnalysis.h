//===- TileAnalysis.h - Exact per-tile cost analysis -----------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact counting of the quantities the paper's tile-size model (Sec. 3.7)
/// and shared-memory code generation (Sec. 4.2) depend on, for one generic
/// (interior) tile "slab": the full hexagonal (t, s0) tile intersected with
/// one classical tile window per inner dimension. The paper derives these
/// counts manually ("tools to count points in integer polyhedra can automate
/// this"); we automate them by enumerating the slab, which is exact.
///
/// Counted per slab:
///  * statement instances and FLOPs;
///  * the input set I (values read but produced outside the slab) and the
///    output set O, exactly, as rows along the innermost dimension -- both
///    without and with inter-tile reuse against the predecessor slab
///    (Sec. 4.2.2);
///  * the shared-memory requirement: per field, a rotating window of
///    (1 + read depth) copies of the slab's spatial bounding box;
///  * shared-memory load instructions, with and without the register
///    sliding-window reuse that unrolling exposes (Sec. 4.3.2 / Fig. 2).
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_CORE_TILEANALYSIS_H
#define HEXTILE_CORE_TILEANALYSIS_H

#include "core/HybridSchedule.h"
#include "deps/DependenceAnalysis.h"
#include "ir/StencilProgram.h"

#include <cstdint>
#include <vector>

namespace hextile {
namespace core {

/// A maximal run of consecutive values along the innermost dimension that a
/// slab transfers between global and shared memory.
struct TransferRow {
  unsigned Field = 0;
  int64_t Start = 0; ///< Innermost coordinate relative to the slab origin.
  int64_t Len = 0;   ///< Number of consecutive f32 values.
};

/// Exact costs of one interior slab.
struct SlabCosts {
  int64_t Instances = 0; ///< Statement instances (stencil updates).
  int64_t Flops = 0;

  int64_t LoadValues = 0;      ///< |I|: values loaded without reuse.
  int64_t LoadValuesReuse = 0; ///< Loads with predecessor-slab reuse.
  int64_t LoadValuesBox = 0;   ///< Rectangular-box over-approximation.
  int64_t StoreValues = 0;     ///< |O|: values stored (interleaved copy-out).

  std::vector<TransferRow> LoadRows;      ///< Rows realizing LoadValues.
  std::vector<TransferRow> LoadRowsReuse; ///< Rows with inter-tile reuse.
  /// Full-width rows loading the rectangular box around each input row
  /// (the divergence-free over-approximation PPCG uses for the load phase,
  /// Sec. 4.2) -- what configurations without inter-tile reuse transfer.
  std::vector<TransferRow> LoadRowsBox;
  std::vector<TransferRow> StoreRows;     ///< Rows realizing StoreValues.

  int64_t SharedBytes = 0; ///< Shared-memory footprint of the slab window.

  int64_t SharedLoads = 0;         ///< Shared loads, no register reuse.
  int64_t SharedLoadsUnrolled = 0; ///< With sliding-window register reuse.
  int64_t SharedStores = 0;        ///< One per instance.

  /// Load-to-compute ratio (Sec. 3.7 objective), with reuse.
  double loadToCompute() const {
    return Instances == 0
               ? 0.0
               : static_cast<double>(LoadValuesReuse) / Instances;
  }
};

/// The reads of \p S that still load from shared memory under register
/// sliding-window reuse (Sec. 4.3.2), as indices into S.Reads in ascending
/// order. Reads that differ only in their s0 offset (same field, time
/// offset and inner offsets) form one group, and only its largest-s0 read
/// loads: the sequential s0 walk loaded the others at earlier iterations
/// and rotates them through registers.
std::vector<unsigned> registerWindowLoads(const ir::StencilStmt &S);

/// Analyzes the generic interior slab of \p Sched applied to \p P.
/// \p Deps must be the dependence summary used to build the schedule.
SlabCosts analyzeSlab(const ir::StencilProgram &P,
                      const deps::DependenceInfo &Deps,
                      const HybridSchedule &Sched);

/// Number of slabs one hexagonal tile's thread block executes over the full
/// grid (product over inner dimensions of ceil(extent_i / w_i)).
int64_t slabsPerBlock(const ir::StencilProgram &P,
                      const HybridSchedule &Sched);

/// Number of S0 tiles needed to cover the s0 extent of \p P in one phase.
int64_t blocksPerLaunch(const ir::StencilProgram &P,
                        const HybridSchedule &Sched);

/// Number of (T, phase) kernel launches covering all time steps.
int64_t launches(const ir::StencilProgram &P, const HybridSchedule &Sched);

/// Read reach of a partitioned (owner-computes) decomposition along one
/// spatial dimension: how far below/above its owned cells a partition must
/// replicate neighbor data so that \p Steps consecutive canonical time
/// steps can execute between halo exchanges. For Steps == 1 (exchange at
/// every wavefront barrier, the DeviceSim backend's cadence) this is
/// exactly the stencil's loHalo/hiHalo; coarser cadences widen the ring by
/// the dependence cone's spread per step, the same footprint growth that
/// sizes the hexagonal tile's load phase (analyzeSlab's input set I).
struct HaloExtent {
  int64_t Lo = 0; ///< Cells replicated below the owned range.
  int64_t Hi = 0; ///< Cells replicated above the owned range.

  int64_t total() const { return Lo + Hi; }
};
HaloExtent partitionHaloExtent(const ir::StencilProgram &P, unsigned Dim,
                               int64_t Steps = 1);

/// Minimum owned width of one partition slab along \p Dim for which halo
/// exchange stays nearest-neighbor (a partition's ring never reaches past
/// its immediate neighbors): max(loHalo, hiHalo, 1) for the given cadence.
int64_t minPartitionWidth(const ir::StencilProgram &P, unsigned Dim,
                          int64_t Steps = 1);

} // namespace core
} // namespace hextile

#endif // HEXTILE_CORE_TILEANALYSIS_H
