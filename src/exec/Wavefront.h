//===- Wavefront.h - Streaming wavefront generation ------------*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Turns a schedule key over an IterationDomain into an ordered stream of
/// *wavefronts*. A key has one form, ScheduleKeyIntoFn: it appends a
/// point's key to a buffer the generator reuses across evaluations. A
/// wavefront is a maximal group of statement instances whose sequential
/// key prefixes are equal; wavefronts arrive in lexicographic prefix order.
/// Instances inside one wavefront are mutually independent by the
/// schedule's parallel contract, so an ExecutionBackend may run them in any
/// order or truly concurrently; wavefronts themselves are separated by a
/// barrier.
///
/// Generation is *streaming*: instead of materializing every instance key
/// and sorting (O(n log n) time and O(n) keys resident, the seed
/// implementation), the domain is swept twice. Pass 1 records, per canonical
/// time step, the window of leading key components (time bands) its points
/// map to. Pass 2 visits the bands in ascending order and re-enumerates only
/// the time steps whose window overlaps the band, materializing one band at
/// a time -- so the peak instance buffer is one time band, not the whole
/// grid. For the hex/hybrid/classical constructions a time step maps to at
/// most two adjacent bands and the sweep costs ~2 key evaluations per
/// instance; schedules whose leading component varies spatially (diamond
/// wavefronts) degrade gracefully to extra scans but keep the memory bound.
///
/// A band is one arena of fixed-stride rows [key | point], radix-ordered:
/// one stable counting sort per key column, last column first, skipping
/// columns constant in the band and counting a wide column (a permuted
/// block id, the seeded tiebreak) by its rank among the band's values.
/// Rows arrive in point order, so stability supplies the final point
/// tiebreak.
///
/// A key evaluation costs tens of nanoseconds for every family: the hex and
/// hybrid keys test the hexagon by a row-table lookup (HexagonGeometry) with
/// the lattice constants cached in HexSchedule, in integer arithmetic like
/// the classical key. A hex, hybrid or classical serial replay splits into
/// pass 2's key re-evaluation and append (25-40 %), instance execution
/// (24-36 %), pass 1 (16-21 %), the radix sort (11-15 %) and the gather
/// into wavefronts (3-4 %).
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_WAVEFRONT_H
#define HEXTILE_EXEC_WAVEFRONT_H

#include "core/IterationDomain.h"
#include "support/Hash.h"

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace hextile {
namespace exec {

/// Maps a canonical iteration point to its schedule key by appending the
/// key of \p Point onto \p Out (cleared by the caller), so a replay reuses
/// one scratch buffer across millions of evaluations. Instances execute in
/// lexicographic key order; instances mapping to equal keys are treated as
/// parallel and may run in any order. Every key of one replay has one
/// length, that of the first key evaluated: streamWavefronts checks each key
/// on its first sweep and throws std::invalid_argument, naming both lengths,
/// before any instance executes.
using ScheduleKeyIntoFn = std::function<void(std::span<const int64_t> Point,
                                             std::vector<int64_t> &Out)>;

/// Seeded hash of a parallel block index, substituted for the index in a
/// schedule key so the blocks replay in a pseudo-random serialization
/// (\p Seed 0 keeps the natural order). Hash collisions merely tie two
/// blocks, which the replay then interleaves -- also a legal linearization
/// of parallel blocks.
inline int64_t permuteBlock(uint64_t Seed, int64_t Block) {
  if (Seed == 0)
    return Block;
  return static_cast<int64_t>(mix64(Seed ^ static_cast<uint64_t>(Block)) >>
                              1);
}

/// One wavefront: a flat row-major array of instance points sharing their
/// sequential key prefix. Valid only during the sink callback.
struct Wavefront {
  std::span<const int64_t> FlatPoints; ///< NumInstances x PointArity values.
  unsigned PointArity = 0;

  size_t size() const {
    return PointArity == 0 ? 0 : FlatPoints.size() / PointArity;
  }
  std::span<const int64_t> point(size_t I) const {
    return FlatPoints.subspan(I * PointArity, PointArity);
  }
};

/// Ordering/parallelism parameters of one replay (mirrors the seed
/// executor's semantics bit for bit).
struct WavefrontOptions {
  /// Seed for shuffling instances within a wavefront (0 = keep the stable
  /// full-key-then-point order).
  uint64_t ShuffleSeed = 0;
  /// Number of leading key components that are sequential; components from
  /// this index on are parallel. -1 means "all sequential" (wavefronts are
  /// then the equal-full-key groups).
  int ParallelFrom = -1;
};

/// Per-simulated-device counters of one DeviceSim replay.
struct DeviceReplayStats {
  size_t Instances = 0;      ///< Statement instances this device executed.
  size_t HaloValuesSent = 0; ///< Boundary values it pushed to neighbors.
};

/// Per-link counters of one DeviceSim replay: link e connects devices e and
/// e+1 of the chain, and carries the boundary values crossing that cut in
/// both directions. SimulatedSeconds applies the topology's LinkSpec cost
/// model (per-round latency + bytes over bandwidth) to the *measured*
/// traffic, so it is directly comparable -- exactly, for schedules whose
/// byte counts match the analytic model -- with
/// gpu::predictHaloExchangeCost. WallSeconds is the cumulative host time
/// the exchange phase spent copying this link's values (links are pushed
/// concurrently, so the per-link wall times may sum to more than the
/// elapsed exchange time).
struct LinkReplayStats {
  size_t Exchanges = 0;      ///< Exchange rounds (one per wavefront barrier).
  size_t Values = 0;         ///< Boundary values carried, both directions.
  size_t Bytes = 0;          ///< Values * sizeof(float).
  double SimulatedSeconds = 0; ///< LinkSpec cost model over measured traffic.
  double WallSeconds = 0;      ///< Host wall time spent copying this link.
};

/// Observability counters for one replay. The streaming fields are fed by
/// streamWavefronts; the halo/per-device fields stay zero unless the
/// replay ran on a DeviceSimBackend (ExecutionBackend::finishReplay).
struct ReplayStats {
  size_t Instances = 0;     ///< Statement instances replayed.
  size_t Bands = 0;         ///< Non-empty leading-key bands streamed.
  size_t Wavefronts = 0;    ///< Parallel batches handed to the backend.
  size_t PeakBandInstances = 0; ///< Largest instance buffer ever resident.
  size_t MaxWavefrontInstances = 0; ///< Largest single parallel batch.
  size_t KeyEvals = 0;      ///< Schedule-key evaluations (both passes).

  /// Chunks the thread-pool backend published to its pool; wavefronts
  /// with at most the backend's batching floor of instances
  /// (ThreadPoolBackend::minTaskInstances) run inline on the caller and
  /// dispatch none.
  size_t PoolTasks = 0;

  /// Statement instances executed redundantly by an overlapped
  /// (trapezoidal) replay -- halo-region recomputation outside a tile's
  /// core or a device's owned slab. Zero for the barrier-synchronized
  /// families; the price paid for the banded exchange cadence.
  size_t RedundantInstances = 0;

  size_t Devices = 0;       ///< Simulated devices (0 = one address space).
  size_t HaloExchanges = 0; ///< Exchange rounds (one per wavefront).
  size_t HaloValuesExchanged = 0; ///< Boundary values copied device-to-device.
  size_t HaloBytesExchanged = 0;  ///< The same traffic in bytes.
  /// Largest number of device compute phases ever observed in flight at
  /// once (threaded DeviceSim; 1 when every wavefront ran inline).
  size_t MaxConcurrentDevices = 0;
  /// Distinct OS threads that executed device compute phases over the
  /// replay (threaded DeviceSim; >= 2 proves genuine concurrency).
  size_t DistinctComputeThreads = 0;
  double HaloSimulatedSeconds = 0; ///< Sum of PerLink SimulatedSeconds.
  double HaloWallSeconds = 0;      ///< Sum of PerLink WallSeconds.
  std::vector<DeviceReplayStats> PerDevice; ///< Indexed by device.
  std::vector<LinkReplayStats> PerLink;     ///< Indexed by chain edge.
};

/// Streams every instance of \p Domain as ordered wavefronts into \p Sink.
/// Wavefronts arrive in lexicographic sequential-prefix order; the caller
/// must fully retire one wavefront (barrier) before the next is built, and
/// the Wavefront's storage is reused between calls.
void streamWavefronts(const core::IterationDomain &Domain,
                      const ScheduleKeyIntoFn &Key,
                      const WavefrontOptions &Opts,
                      const std::function<void(const Wavefront &)> &Sink,
                      ReplayStats *Stats = nullptr);

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_WAVEFRONT_H
