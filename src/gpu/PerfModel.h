//===- PerfModel.h - Launch-level GPU performance model --------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The roofline-style timing and counter model that substitutes for running
/// CUDA kernels on the two evaluation GPUs. A compiled program is described
/// as a sequence of KernelModel launch classes; each launch's time is the
/// maximum of its per-resource demands -- instruction issue, shared-memory
/// (LSU), L2 and DRAM bandwidth -- at the device's sustained throughputs,
/// optionally serializing the copy-out phase (optimization (b) vs. (c) of
/// Sec. 6.2), plus a fixed launch overhead. Counters aggregate the exact
/// transaction statistics of MemoryModel across all launches (Table 5):
///
///   gld inst 32bit      : thread-level global loads (request rows)
///   l2 read tx (32B)    : requested sectors, filtered by the L1 factor
///   dram read tx (32B)  : distinct touched 128B lines * 4
///   gld efficiency      : useful bytes / request-line bytes
///   shared loads/request: bank-conflict transactions per warp request
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_GPU_PERFMODEL_H
#define HEXTILE_GPU_PERFMODEL_H

#include "gpu/DeviceTopology.h"
#include "gpu/MemoryModel.h"

#include <string>
#include <vector>

namespace hextile {
namespace gpu {

/// One class of kernel launches with identical per-launch structure.
struct KernelModel {
  std::string Name;
  int64_t Launches = 1;
  int64_t BlocksPerLaunch = 1;
  int64_t ThreadsPerBlock = 256;
  int64_t SharedBytesPerBlock = 0; ///< 0 = no explicit shared memory.
  int64_t SlabsPerBlock = 1;       ///< Sequential stages inside a block.

  // Per-slab work.
  int64_t UpdatesPerSlab = 0; ///< Stencil updates (statement instances).
  int64_t FlopsPerSlab = 0;

  /// Global loads as issued by warps: drives gld inst, L2 sectors and gld
  /// efficiency.
  std::vector<RowBatch> LoadRequestRows;
  /// Distinct global data touched per slab (post-cache): drives DRAM
  /// traffic. Empty = same as the request rows (each value requested once).
  std::vector<RowBatch> LoadDistinctRows;
  std::vector<RowBatch> StoreRows;
  /// Fraction of request sectors that miss L1 and reach L2 (1.0 when every
  /// value is requested exactly once, as with explicit shared memory).
  double L1FilterFactor = 1.0;

  int64_t SharedLoadsPerSlab = 0; ///< Thread-level shared loads.
  int64_t SharedStoresPerSlab = 0;
  double SharedTransactionsPerRequest = 1.0; ///< Bank-conflict factor.
  /// True when stores overlap the compute phase (interleaved copy-out,
  /// Sec. 4.2.1); false serializes memory after compute.
  bool OverlapCopyOut = true;
  /// True for explicit shared-memory staging: the copy-in phase is a
  /// serial, latency-exposed stream before the computation (and copy-out
  /// after it unless interleaved). False models cache-backed direct global
  /// accesses whose latency multithreading partially hides.
  bool StagedCopies = true;
};

/// The Table 5 counters (aggregated over the whole run).
struct PerfCounters {
  double GldInst32bit = 0;
  double DramReadTransactions = 0;
  double L2ReadTransactions = 0;
  double SharedLoadsPerRequest = 1.0;
  double GldEfficiency = 1.0;
};

/// Timing + counters of one simulated run.
struct PerfResult {
  double Seconds = 0;
  double GStencilsPerSec = 0;
  double GFlops = 0;
  int64_t TotalUpdates = 0;
  PerfCounters Counters;
};

/// Simulates the execution of \p Kernels on \p Dev.
PerfResult simulate(const DeviceConfig &Dev,
                    const std::vector<KernelModel> &Kernels);

/// Predicted halo-exchange *time* of one replay over a device chain: the
/// analytic per-boundary byte count (predictHaloExchangeValuesPerBoundary)
/// priced through each edge's LinkSpec alpha-beta model. Extends the byte
/// prediction the same way Sec. 5's evaluation needs it extended: whether
/// the tiled schedule hides communication behind compute depends on
/// exchange *cost*, which is per-link latency times exchange cadence plus
/// bytes over per-link bandwidth -- not on bytes alone.
struct HaloExchangeCost {
  double Seconds = 0;         ///< LatencySeconds + TransferSeconds.
  double LatencySeconds = 0;  ///< Rounds * latency, summed over links.
  double TransferSeconds = 0; ///< Bytes / bandwidth, summed over links.
  std::vector<double> PerLinkSeconds;  ///< One entry per interior boundary.
  std::vector<int64_t> PerLinkValues;  ///< Predicted values per link.
};

/// Costs \p ExchangeRounds halo-exchange rounds of \p P partitioned over
/// \p Topo at the interior slab cuts \p Boundaries (Boundaries.size()
/// links; Topo.link(e) prices edge e), exchanging every \p CadenceSteps
/// canonical steps. Latency is charged per round per link -- the cadence
/// term the wavefront count fixes -- and the transfer term prices the
/// analytic byte count (predictHaloExchangeValuesPerBoundary at the same
/// cadence). Computed with LinkSpec::seconds, the same closed form the
/// DeviceSim backend applies to *measured* traffic, so for schedules
/// whose byte counts match the model exactly (classical; in practice all)
/// prediction equals measurement bit for bit when fed the measured round
/// count.
HaloExchangeCost predictHaloExchangeCost(const ir::StencilProgram &P,
                                         const DeviceTopology &Topo,
                                         std::span<const int64_t> Boundaries,
                                         int64_t ExchangeRounds,
                                         int64_t CadenceSteps = 1);

/// predictHaloExchangeCost at the *banded* cadence of
/// core::OverlappedSchedule's device-level replay: one exchange per time
/// band of \p BandSteps steps, ceil(timeSteps / BandSteps) rounds.
/// Comparing against the per-wavefront round count at cadence 1 exposes
/// the redundancy-vs-traffic frontier: banding divides the latency rounds
/// by the band height while multiplying strip depth, so latency-dominated
/// links favor deep bands and bandwidth-dominated links shallow ones.
HaloExchangeCost
predictBandedHaloExchangeCost(const ir::StencilProgram &P,
                              const DeviceTopology &Topo,
                              std::span<const int64_t> Boundaries,
                              int64_t BandSteps);

} // namespace gpu
} // namespace hextile

#endif // HEXTILE_GPU_PERFMODEL_H
