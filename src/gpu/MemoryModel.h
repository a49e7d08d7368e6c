//===- MemoryModel.h - Warp coalescing and bank conflicts ------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-transaction model behind the Table 5 performance counters.
/// Global accesses are issued per warp over 32 consecutive elements of a
/// row; the model counts, exactly, the 128-byte cache lines and 32-byte
/// sectors each warp access touches given the row's byte alignment. From
/// these the paper's counters follow:
///
///   gld efficiency          = useful bytes / (touched lines * 128)
///   l2 read transactions    = requested 32B sectors
///   dram read transactions  = touched 128B lines * 4 sectors
///
/// Shared-memory bank conflicts are modeled by replaying one warp's access
/// pattern against the 32 banks (transactions per request, Table 5's
/// "shared loads per request").
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_GPU_MEMORYMODEL_H
#define HEXTILE_GPU_MEMORYMODEL_H

#include "gpu/DeviceConfig.h"
#include "ir/StencilProgram.h"

#include <cstdint>
#include <span>
#include <vector>

namespace hextile {
namespace gpu {

/// One batch of identical global-memory rows: \p Count rows of \p Len
/// consecutive 32-bit values whose first element sits at byte offset
/// 4*AlignElems within a 128-byte line (AlignElems in [0, 32)).
struct RowBatch {
  int64_t Count = 1;
  int64_t Len = 0;
  int64_t AlignElems = 0;
};

/// Exact transaction statistics for a set of row batches.
struct TrafficStats {
  int64_t ThreadInsts = 0; ///< 32-bit load/store thread instructions.
  int64_t WarpInsts = 0;   ///< Warp-level access instructions.
  int64_t Lines = 0;       ///< Touched 128B lines (DRAM granularity).
  int64_t Sectors = 0;     ///< Requested 32B sectors (L2 granularity).
  int64_t UsefulBytes = 0;

  double efficiency() const {
    return Lines == 0 ? 1.0
                      : static_cast<double>(UsefulBytes) / (Lines * 128.0);
  }

  TrafficStats &operator+=(const TrafficStats &O);
};

/// Computes the traffic of one row (Len elements at AlignElems).
TrafficStats analyzeRow(const DeviceConfig &Dev, int64_t Len,
                        int64_t AlignElems);

/// Computes the combined traffic of \p Batches.
TrafficStats analyzeBatches(const DeviceConfig &Dev,
                            std::span<const RowBatch> Batches);

/// Shared-memory transactions per request for one warp accessing 32-bit
/// words at the given addresses (in words): the maximum number of distinct
/// words requested from a single bank.
double bankTransactionsPerRequest(const DeviceConfig &Dev,
                                  std::span<const int64_t> WordAddrs);

/// Transactions per request for a strided pattern: thread i accesses word
/// Base + i * StrideWords (the common shared-memory row access).
double stridedBankTransactions(const DeviceConfig &Dev, int64_t StrideWords);

/// Analytic halo-exchange traffic of an owner-computes slab decomposition
/// of \p P along spatial dimension 0 with the interior slab boundaries at
/// \p Boundaries (the Lo coordinate of every slab but the first), when
/// halos are exchanged every \p CadenceSteps canonical time steps over
/// strips that deep (core::partitionHaloExtent at Steps = CadenceSteps):
/// 1 is exec::DeviceSimBackend's per-wavefront exchange, whose strips are
/// hiHalo(0) cells above the cut and loHalo(0) below; the overlapped
/// family's banded replay exchanges at its band height. Per round of S
/// live steps each boundary moves min(bufferDepth, S) rotating slots of
/// every written field over its strips, clipped to the update domain,
/// times the update extent of every inner dimension -- the dirty-cell
/// deduplication of exec::PartitionedGridStorage. Legal schedules write
/// each instance once, so the count is schedule-independent: the measured
/// ReplayStats::HaloValuesExchanged of any bit-exact replay at that
/// cadence must equal it exactly.
int64_t predictHaloExchangeValues(const ir::StencilProgram &P,
                                  std::span<const int64_t> Boundaries,
                                  int64_t CadenceSteps = 1);

/// The same count split per boundary: entry i is the traffic crossing
/// Boundaries[i] (both directions), i.e. the load of chain link i. The
/// per-link resolution is what the link cost model needs -- asymmetric
/// links make total bytes an insufficient statistic for exchange time.
std::vector<int64_t>
predictHaloExchangeValuesPerBoundary(const ir::StencilProgram &P,
                                     std::span<const int64_t> Boundaries,
                                     int64_t CadenceSteps = 1);

/// predictHaloExchangeValues in bytes (single-precision fields).
int64_t predictHaloExchangeBytes(const ir::StencilProgram &P,
                                 std::span<const int64_t> Boundaries);

} // namespace gpu
} // namespace hextile

#endif // HEXTILE_GPU_MEMORYMODEL_H
