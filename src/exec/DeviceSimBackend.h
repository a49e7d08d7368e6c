//===- DeviceSimBackend.h - Simulated multi-device execution ---*- C++ -*-===//
//
// Part of the hextile project (CGO'14 hybrid hexagonal tiling reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionBackend running each wavefront on a chain of simulated devices
/// over a PartitionedGridStorage:
///
///   1. *Placement*: the wavefront's instances are bucketed into per-device
///      work queues by the owner of their outermost spatial coordinate --
///      owner-computes over the storage's SM-weighted slab decomposition,
///      so a tile straddling a slab boundary is split across devices.
///   2. *Compute*: each device retires its queue against its own slab +
///      halo rings (a DeviceView), never touching another device's memory;
///      an assertion fires if a schedule needs data the rings don't hold.
///   3. *Exchange*: at the wavefront barrier every device pushes exactly
///      its dirty boundary values into the neighbors' rings, and the
///      backend accumulates the traffic (total, per device, per link).
///
/// Each phase runs one chunk per device on an exec::ThreadPool that holds
/// one participant per device, so devices can advance concurrently between
/// wavefront barriers -- the multi-GPU execution model the paper's Sec. 5
/// block-level parallelism claim implies. Which participant retires which
/// device is not fixed: the caller may run several devices of a phase
/// before a parked worker wakes. One wavefront is a two-phase barrier:
///
///     parallelFor(device: compute own queue)     -- phase 1
///         ... pool barrier (release/acquire) ...
///     parallelFor(device: push dirty halos)      -- phase 2
///         ... pool barrier ...
///
/// Race freedom, relied on under ThreadSanitizer: in phase 1 a device
/// writes only cells it owns (slabs are disjoint) and reads only its own
/// slab + rings, whose last write was phase 2 of an *earlier* wavefront,
/// ordered by the pool barrier. In phase 2 every destination ring cell has
/// exactly one writer (a slab's lower ring is fed only by neighbor D-1,
/// its upper ring only by D+1) and rings are disjoint from the owned cells
/// concurrent pushes read (PartitionedGridStorage::pushDirtyDown/Up).
/// Remove the barrier between the phases -- push and compute interleaved
/// freely -- and a device computes against halos its neighbor has not
/// pushed yet while concurrent pushes overwrite the very ring cells being
/// read; the test suite proves it can see exactly that breakage by arming
/// the broken-barrier mode below.
///
/// Wavefronts with at most MinTaskInstances instances retire inline on the
/// caller (sequential devices, no pool handoff), the same "at most N runs
/// inline" boundary ThreadPoolBackend and ThreadPool::parallelFor use:
/// replays dominated by tiny band-edge wavefronts would otherwise pay two
/// barriers per wavefront for no overlap. A floor above every wavefront
/// (SIZE_MAX) replays every device sequentially on the caller.
///
/// Beyond the per-wavefront protocol, runOverlappedBand executes one time
/// band of an overlapped (trapezoidal) schedule as a *device-level*
/// trapezoid through the same two-phase driver: in phase 1 every device
/// computes, tick by tick, its owned slab expanded by the schedule's
/// shrinking margins (exec::runTrapezoid) -- redundantly recomputing
/// neighbor cells into its own band-deep halo rings, with no intra-band
/// barrier at all -- and phase 2 is a single halo exchange for the whole
/// band. Exchange rounds drop from one per wavefront to one per band (the
/// alpha term of the LinkSpec cost model), paid for with redundant
/// instances (ReplayStats::RedundantInstances) and band-deep boundary
/// strips.
///
/// finishReplay publishes compute/exchange counters into ReplayStats --
/// including per-link traffic priced through the topology's LinkSpec cost
/// model (the same closed form gpu::predictHaloExchangeCost uses, so
/// prediction and measurement are exactly comparable) and the concurrency
/// evidence (MaxConcurrentDevices, DistinctComputeThreads) the
/// concurrency tests assert on.
///
//===----------------------------------------------------------------------===//

#ifndef HEXTILE_EXEC_DEVICESIMBACKEND_H
#define HEXTILE_EXEC_DEVICESIMBACKEND_H

#include "core/OverlappedSchedule.h"
#include "exec/ExecutionBackend.h"
#include "gpu/DeviceTopology.h"

#include <atomic>
#include <functional>
#include <memory>
#include <set>
#include <thread>
#include <vector>

namespace hextile {
namespace exec {

class PartitionedGridStorage;

/// Replays wavefronts over simulated devices with explicit halo exchange.
/// Requires a PartitionedGridStorage (makeStorage builds a matching one);
/// any other FieldStorage is rejected with std::invalid_argument.
class DeviceSimBackend final : public ExecutionBackend {
public:
  explicit DeviceSimBackend(gpu::DeviceTopology Topo);
  /// Uniform chain of \p NumDevices GTX 470-class devices.
  explicit DeviceSimBackend(unsigned NumDevices);

  const char *name() const override { return "devicesim"; }
  unsigned concurrency() const override { return Topo.numDevices(); }
  const gpu::DeviceTopology &topology() const { return Topo; }
  const gpu::DeviceTopology *partitionTopology() const override {
    return &Topo;
  }

  /// Batching floor: a wavefront (or overlapped band) with *at most* this
  /// many instances retires inline on the caller (no pool handoff),
  /// matching ThreadPoolBackend's documented boundary. 0 sends every
  /// multi-device wavefront through the pool.
  void setMinTaskInstances(size_t N) { MinTaskInstances = N; }
  size_t minTaskInstances() const { return MinTaskInstances; }

  /// Test hook, compiled in only under HEXTILE_DEVICESIM_TEST_HOOKS (the
  /// test build): removes the barrier between the phases by folding the
  /// halo push into the compute phase, inline or pooled, for wavefronts
  /// and overlapped bands alike, so devices compute against halos
  /// their neighbors may not have pushed yet -- stale reads the
  /// differential check must flag (and a genuine same-cell data race under
  /// concurrency), proving the suite *can* see a broken barrier. In
  /// release builds the setter is a no-op and brokenBarrierSupported()
  /// reports false (callers skip).
  static bool brokenBarrierSupported();
  void setBrokenBarrierForTesting(bool Broken);

  void beginReplay() override;
  void finishReplay(ReplayStats *Stats) override;
  void runWavefront(const ir::StencilProgram &P, FieldStorage &Storage,
                    const Wavefront &W) override;

  /// Executes time band \p Band of \p Sched as a device-level trapezoid
  /// over \p Parts (which must be in banded-replay mode with rings
  /// provisioned for at least the schedule's band height): phase 1 runs
  /// every device's expanded slab through the band's ticks with no
  /// intra-band barrier, phase 2 is the band's single halo exchange.
  /// Called between beginReplay/finishReplay like runWavefront; the
  /// driver is exec::runOverlapped. Returns the instances the band
  /// executed over every device, redundant ones included.
  size_t runOverlappedBand(const ir::StencilProgram &P,
                           PartitionedGridStorage &Parts,
                           const core::OverlappedSchedule &Sched,
                           int64_t Band);

private:
  void ensurePool(unsigned NumDevices);

  /// The two-phase protocol behind runWavefront and runOverlappedBand:
  /// runs \p Body (phase 1) for every device of \p Parts, then every
  /// device's timed halo push (phase 2), and books one exchange round.
  /// Work of at most MinTaskInstances \p Instances runs inline on the
  /// caller; more runs one pool participant per device, with a barrier
  /// after each phase.
  void runPhases(PartitionedGridStorage &Parts, size_t Instances,
                 const std::function<void(unsigned Dev)> &Body);

  gpu::DeviceTopology Topo;
  bool BrokenBarrier = false;
  size_t MinTaskInstances = 128;

  /// One participant per simulated device (lazily sized to the storage's
  /// actual decomposition, which may be narrower than the topology).
  std::unique_ptr<ThreadPool> Pool;
  unsigned PoolDevices = 0;

  std::vector<std::vector<size_t>> Queues; ///< Reused between wavefronts.

  // Accumulated over one replay (beginReplay .. finishReplay). The
  // per-device vectors are written at disjoint indices by concurrent
  // workers (index = device), which is race-free without atomics; the
  // pool barrier publishes them to the caller.
  size_t Exchanges = 0;
  uint64_t PoolTasksAtBegin = 0;
  std::vector<size_t> DeviceInstances;
  std::vector<size_t> RedundantInstances; ///< Trapezoid cells off-slab.
  std::vector<size_t> SentDown; ///< Values device d pushed to d-1 (link d-1).
  std::vector<size_t> SentUp;   ///< Values device d pushed to d+1 (link d).
  std::vector<double> WallDown; ///< Host seconds spent in those pushes.
  std::vector<double> WallUp;
  std::vector<std::thread::id> ComputeThread; ///< Phase-1 thread, per device.
  std::set<std::thread::id> SeenThreads; ///< Merged by the caller per barrier.
  std::atomic<size_t> ActiveDevices{0};
  std::atomic<size_t> MaxActive{0}; ///< High-water mark of ActiveDevices.
};

} // namespace exec
} // namespace hextile

#endif // HEXTILE_EXEC_DEVICESIMBACKEND_H
