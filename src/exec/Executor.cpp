//===- Executor.cpp - Reference and schedule-driven execution -------------===//

#include "exec/Executor.h"

#include "exec/DeviceSimBackend.h"
#include "exec/PartitionedGridStorage.h"

#include <algorithm>
#include <cassert>

using namespace hextile;
using namespace hextile::exec;

void exec::executeInstance(const ir::StencilProgram &P, FieldStorage &Storage,
                           std::span<const int64_t> Point) {
  executeInstanceOn(P, Storage, Point);
}

void exec::runReference(const ir::StencilProgram &P, FieldStorage &Storage) {
  core::IterationDomain D = core::IterationDomain::forProgram(P);
  // Same devirtualized fast path the replay backends take.
  if (auto *Flat = dynamic_cast<GridStorage *>(&Storage)) {
    D.forEachPoint([&](std::span<const int64_t> Point) {
      executeInstanceOn(P, *Flat, Point);
    });
    return;
  }
  D.forEachPoint([&](std::span<const int64_t> Point) {
    executeInstance(P, Storage, Point);
  });
}

std::unique_ptr<FieldStorage> exec::makeStorage(const ir::StencilProgram &P,
                                                const ScheduleRunOptions &Opts,
                                                const Initializer &Init) {
  // An installed override knows better than the Backend field: whatever
  // topology it declares is what the replay will actually partition over.
  if (Opts.BackendOverride) {
    const gpu::DeviceTopology *Topo =
        Opts.BackendOverride->partitionTopology();
    if (!Topo)
      return std::make_unique<GridStorage>(P, Init);
    return std::make_unique<PartitionedGridStorage>(P, *Topo, Init,
                                                    Opts.ExchangeCadenceSteps);
  }
  if (Opts.Backend != BackendKind::DeviceSim)
    return std::make_unique<GridStorage>(P, Init);
  if (Opts.Topology)
    return std::make_unique<PartitionedGridStorage>(P, *Opts.Topology, Init,
                                                    Opts.ExchangeCadenceSteps);
  return std::make_unique<PartitionedGridStorage>(
      P, defaultSimTopology(Opts.NumDevices), Init,
      Opts.ExchangeCadenceSteps);
}

ExecutionBackend &
exec::resolveBackend(const ScheduleRunOptions &Opts,
                     std::unique_ptr<ExecutionBackend> &Owned) {
  if (Opts.BackendOverride)
    return *Opts.BackendOverride;
  Owned = makeBackend(Opts.Backend, Opts.NumThreads, Opts.NumDevices,
                      Opts.Topology, Opts.MinTaskInstances);
  return *Owned;
}

void exec::runSchedule(const ir::StencilProgram &P, FieldStorage &Storage,
                       const core::IterationDomain &Domain,
                       const ScheduleKeyIntoFn &Key,
                       const ScheduleRunOptions &Opts) {
  std::unique_ptr<ExecutionBackend> Owned;
  ExecutionBackend &Backend = resolveBackend(Opts, Owned);

  WavefrontOptions WOpts;
  WOpts.ShuffleSeed = Opts.ShuffleSeed;
  WOpts.ParallelFrom = Opts.ParallelFrom;
  Backend.beginReplay();
  streamWavefronts(
      Domain, Key, WOpts,
      [&](const Wavefront &W) { Backend.runWavefront(P, Storage, W); },
      Opts.Stats);
  Backend.finishReplay(Opts.Stats);
}

void exec::runSchedule(const ir::StencilProgram &P, FieldStorage &Storage,
                       const core::IterationDomain &Domain,
                       const ScheduleKeyFn &Key,
                       const ScheduleRunOptions &Opts) {
  runSchedule(P, Storage, Domain, adaptKeyFn(Key), Opts);
}

std::string exec::checkScheduleEquivalence(const ir::StencilProgram &P,
                                           const ScheduleKeyIntoFn &Key,
                                           const ScheduleRunOptions &Opts) {
  GridStorage Ref(P);
  runReference(P, Ref);

  std::unique_ptr<FieldStorage> Tiled = makeStorage(P, Opts);
  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  runSchedule(P, *Tiled, Domain, Key, Opts);

  // Compare the last TimeBuffers' worth of steps: every live value.
  int64_t LastStep = P.timeSteps() - 1;
  return compareStoragesAtStep(Ref, *Tiled, LastStep);
}

std::string exec::checkScheduleEquivalence(const ir::StencilProgram &P,
                                           const ScheduleKeyFn &Key,
                                           const ScheduleRunOptions &Opts) {
  return checkScheduleEquivalence(P, adaptKeyFn(Key), Opts);
}
