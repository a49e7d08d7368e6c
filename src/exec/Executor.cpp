//===- Executor.cpp - Reference and schedule-driven execution -------------===//

#include "exec/Executor.h"

#include "exec/PartitionedGridStorage.h"

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
  ExecutionBackend *Backend = Opts.BackendOverride;
  if (const gpu::DeviceTopology *Topo =
          Backend ? Backend->partitionTopology() : nullptr)
    return std::make_unique<PartitionedGridStorage>(P, *Topo, Init);
  return std::make_unique<GridStorage>(P, Init);
}

void exec::runSchedule(const ir::StencilProgram &P, FieldStorage &Storage,
                       const core::IterationDomain &Domain,
                       const ScheduleKeyIntoFn &Key,
                       const ScheduleRunOptions &Opts) {
  SerialBackend Serial;
  ExecutionBackend &Backend =
      Opts.BackendOverride ? *Opts.BackendOverride : Serial;

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
