//===- DeviceSimBackend.cpp - Simulated multi-device execution ------------===//

#include "exec/DeviceSimBackend.h"

#include "exec/Executor.h"
#include "exec/OverlappedReplay.h"
#include "exec/PartitionedGridStorage.h"

#include <chrono>
#include <numeric>
#include <stdexcept>

using namespace hextile;
using namespace hextile::exec;

DeviceSimBackend::DeviceSimBackend(gpu::DeviceTopology Topo)
    : Topo(std::move(Topo)) {
  if (this->Topo.Devices.empty())
    this->Topo = defaultSimTopology(1);
}

DeviceSimBackend::DeviceSimBackend(unsigned NumDevices)
    : DeviceSimBackend(defaultSimTopology(NumDevices)) {}

bool DeviceSimBackend::brokenBarrierSupported() {
#ifdef HEXTILE_DEVICESIM_TEST_HOOKS
  return true;
#else
  return false;
#endif
}

void DeviceSimBackend::setBrokenBarrierForTesting(bool Broken) {
#ifdef HEXTILE_DEVICESIM_TEST_HOOKS
  BrokenBarrier = Broken;
#else
  (void)Broken;
#endif
}

void DeviceSimBackend::ensurePool(unsigned NumDevices) {
  if (Pool && PoolDevices == NumDevices)
    return;
  // One participant per device: the caller is worker 0, so NumDevices - 1
  // threads are spawned and each device's phase work lands on its own
  // worker (parallelFor deals the single-iteration chunks round-robin).
  Pool = std::make_unique<ThreadPool>(NumDevices);
  PoolDevices = NumDevices;
}

void DeviceSimBackend::beginReplay() {
  Exchanges = 0;
  PoolTasksAtBegin = Pool ? Pool->tasksDispatched() : 0;
  DeviceInstances.clear();
  RedundantInstances.clear();
  SentDown.clear();
  SentUp.clear();
  WallDown.clear();
  WallUp.clear();
  ComputeThread.clear();
  SeenThreads.clear();
  ActiveDevices.store(0, std::memory_order_relaxed);
  MaxActive.store(0, std::memory_order_relaxed);
}

void DeviceSimBackend::finishReplay(ReplayStats *Stats) {
  if (!Stats)
    return;
  size_t N = DeviceInstances.size();
  Stats->Devices = N;
  Stats->HaloExchanges = Exchanges;
  Stats->MaxConcurrentDevices = MaxActive.load(std::memory_order_relaxed);
  Stats->DistinctComputeThreads = SeenThreads.size();
  Stats->PoolTasks = Pool ? Pool->tasksDispatched() - PoolTasksAtBegin : 0;

  Stats->PerDevice.resize(N);
  Stats->RedundantInstances = 0;
  size_t TotalValues = 0;
  for (size_t D = 0; D < N; ++D) {
    Stats->PerDevice[D].Instances = DeviceInstances[D];
    Stats->RedundantInstances += RedundantInstances[D];
    size_t Sent = SentDown[D] + SentUp[D];
    Stats->PerDevice[D].HaloValuesSent = Sent;
    TotalValues += Sent;
  }
  Stats->HaloValuesExchanged = TotalValues;
  Stats->HaloBytesExchanged = TotalValues * sizeof(float);

  // Link e joins devices e and e+1: upward pushes of e plus downward
  // pushes of e+1. SimulatedSeconds prices the *measured* traffic through
  // the identical LinkSpec closed form predictHaloExchangeCost uses, in
  // the same ascending-edge accumulation order, so whenever measured bytes
  // match the analytic prediction the costs agree bit for bit.
  Stats->PerLink.assign(N > 0 ? N - 1 : 0, LinkReplayStats{});
  Stats->HaloSimulatedSeconds = 0;
  Stats->HaloWallSeconds = 0;
  for (size_t E = 0; E + 1 < N; ++E) {
    LinkReplayStats &L = Stats->PerLink[E];
    L.Exchanges = Exchanges;
    L.Values = SentUp[E] + SentDown[E + 1];
    L.Bytes = L.Values * sizeof(float);
    L.SimulatedSeconds =
        Topo.link(static_cast<unsigned>(E))
            .seconds(static_cast<int64_t>(Exchanges),
                     static_cast<int64_t>(L.Bytes));
    L.WallSeconds = WallUp[E] + WallDown[E + 1];
    Stats->HaloSimulatedSeconds += L.SimulatedSeconds;
    Stats->HaloWallSeconds += L.WallSeconds;
  }
}

void DeviceSimBackend::runPhases(
    PartitionedGridStorage &Parts, size_t Instances,
    const std::function<void(unsigned Dev)> &Body) {
  // The storage's decomposition is authoritative: it may have fallen back
  // to fewer devices than the topology lists when the grid is narrow.
  size_t N = Parts.numDevices();
  DeviceInstances.resize(N, 0);
  RedundantInstances.resize(N, 0);
  SentDown.resize(N, 0);
  SentUp.resize(N, 0);
  WallDown.resize(N, 0.0);
  WallUp.resize(N, 0.0);
  ComputeThread.resize(N);

  // Phase 1: each device runs the caller's body against its own slab view
  // only, recording the evidence of concurrency on the way.
  auto Compute = [&](size_t Dev) {
    size_t Active = ActiveDevices.fetch_add(1, std::memory_order_acq_rel) + 1;
    size_t Seen = MaxActive.load(std::memory_order_relaxed);
    while (Active > Seen &&
           !MaxActive.compare_exchange_weak(Seen, Active,
                                            std::memory_order_relaxed)) {
    }
    ComputeThread[Dev] = std::this_thread::get_id();
    Body(static_cast<unsigned>(Dev));
    ActiveDevices.fetch_sub(1, std::memory_order_acq_rel);
  };

  // Phase 2: each device pushes its dirty boundary values into the
  // neighbors' rings, one timed copy per direction (= per chain link).
  auto Push = [&](size_t Dev) {
    using Clock = std::chrono::steady_clock;
    unsigned D = static_cast<unsigned>(Dev);
    Clock::time_point T0 = Clock::now();
    size_t Down = Parts.pushDirtyDown(D);
    Clock::time_point T1 = Clock::now();
    size_t Up = Parts.pushDirtyUp(D);
    Clock::time_point T2 = Clock::now();
    SentDown[Dev] += Down;
    SentUp[Dev] += Up;
    WallDown[Dev] += std::chrono::duration<double>(T1 - T0).count();
    WallUp[Dev] += std::chrono::duration<double>(T2 - T1).count();
  };

  // "At most MinTaskInstances runs inline" -- the exact boundary
  // ThreadPoolBackend and ThreadPool::parallelFor document and implement,
  // so one threshold value batches identically across backends. Inline,
  // the devices run in order on the caller (small work is not worth two
  // pool barriers); pooled, each phase is one parallelFor over the devices,
  // whose return is the barrier.
  bool Inline = N <= 1 || Instances <= MinTaskInstances;
  if (!Inline)
    ensurePool(static_cast<unsigned>(N));
  auto EachDevice = [&](const std::function<void(size_t)> &Fn) {
    if (!Inline) {
      Pool->parallelFor(N, Fn);
      return;
    }
    for (size_t Dev = 0; Dev < N; ++Dev)
      Fn(Dev);
  };
  if (BrokenBarrier) {
    // Deliberately broken barrier (test hook): the push phase is folded
    // into the compute phase with no barrier separating them, so each
    // device delivers the *previous* round's dirty halos on its own
    // schedule while neighbors are already computing. A device whose
    // neighbor has not pushed yet computes against stale ring values (in
    // order on the caller, device 0 always does), and a concurrent push
    // writes the very rotating-buffer cells the neighbor's compute is
    // reading -- the data race the second barrier of the correct protocol
    // exists to prevent. (Compute-then-push in one phase would NOT race:
    // within one wavefront pushes write the current time slot while
    // computes read older slots.)
    EachDevice([&](size_t Dev) {
      Push(Dev);
      Compute(Dev);
    });
  } else {
    EachDevice(Compute); // barrier: all writes visible
    EachDevice(Push);    // barrier: rings coherent again
  }

  // After the barrier the caller alone merges the evidence of concurrency.
  for (size_t Dev = 0; Dev < N; ++Dev)
    SeenThreads.insert(ComputeThread[Dev]);
  Exchanges += 1;
}

void DeviceSimBackend::runWavefront(const ir::StencilProgram &P,
                                    FieldStorage &Storage,
                                    const Wavefront &W) {
  auto *Parts = dynamic_cast<PartitionedGridStorage *>(&Storage);
  if (!Parts)
    throw std::invalid_argument(
        "DeviceSimBackend needs a PartitionedGridStorage (build one with "
        "exec::makeStorage), got storage kind '" +
        std::string(Storage.kind()) + "'");
  Queues.resize(Parts->numDevices());

  // Placement: owner-computes along the partitioned (outermost spatial)
  // dimension; Point = [that, s0, s1, ...].
  for (size_t I = 0, E = W.size(); I < E; ++I)
    Queues[Parts->ownerOf(W.point(I)[1])].push_back(I);

  // Phase 1: each device retires its queue.
  runPhases(*Parts, W.size(), [&](unsigned Dev) {
    PartitionedGridStorage::DeviceView View(*Parts, Dev);
    for (size_t I : Queues[Dev])
      executeInstance(P, View, W.point(I));
    DeviceInstances[Dev] += Queues[Dev].size();
    Queues[Dev].clear();
  });
}

size_t DeviceSimBackend::runOverlappedBand(
    const ir::StencilProgram &P, PartitionedGridStorage &Parts,
    const core::OverlappedSchedule &Sched, int64_t Band) {
  if (!Parts.bandedReplayMode() || Parts.haloSteps() < Sched.bandSteps())
    throw std::invalid_argument(
        "overlapped band replay needs a banded-mode PartitionedGridStorage "
        "with rings provisioned for the band height (exec::runOverlapped "
        "builds one)");
  int64_t Ticks = Sched.bandStepsOf(Band, P.timeSteps()) * P.numStmts();
  size_t BandInstances = static_cast<size_t>(P.pointsPerTimeStep() * Ticks);

  // Phase 1: each device runs the whole band -- its owned slab expanded by
  // the schedule's per-tick margins -- with no intra-band barrier. Writes
  // land only in the device's own slab (owned cells and its private rings,
  // PartitionedGridStorage banded mode), and reads only resolve there too,
  // so concurrent devices never touch shared memory: the band is race-free
  // with zero synchronization, redundancy instead of barriers. Phase 2 is
  // the band's single exchange (band-deep, deduplicated strips).
  auto Executed = [&] {
    return std::accumulate(DeviceInstances.begin(), DeviceInstances.end(),
                           size_t(0));
  };
  size_t Before = Executed();
  runPhases(Parts, BandInstances, [&](unsigned Dev) {
    PartitionedGridStorage::DeviceView View(Parts, Dev);
    const gpu::SlabRange &Owned = Parts.owned(Dev);
    TrapezoidCounts Done =
        runTrapezoid(P, Sched, Band, Owned.Lo, Owned.Hi, View);
    DeviceInstances[Dev] += Done.Instances;
    RedundantInstances[Dev] += Done.Redundant;
  });
  return Executed() - Before;
}
