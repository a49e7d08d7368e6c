//===- ExecutionBackend.cpp - Pluggable wavefront execution ---------------===//

#include "exec/ExecutionBackend.h"

#include "exec/DeviceSimBackend.h"
#include "exec/Executor.h"

#include <algorithm>

using namespace hextile;
using namespace hextile::exec;

void SerialBackend::runWavefront(const ir::StencilProgram &P,
                                 FieldStorage &Storage, const Wavefront &W) {
  // Flat storage takes the devirtualized instance path (GridStorage is
  // final, so read/write inline); other storages go through the virtual
  // interface.
  if (auto *Flat = dynamic_cast<GridStorage *>(&Storage)) {
    for (size_t I = 0, E = W.size(); I < E; ++I)
      executeInstanceOn(P, *Flat, W.point(I));
    return;
  }
  for (size_t I = 0, E = W.size(); I < E; ++I)
    executeInstance(P, Storage, W.point(I));
}

ThreadPoolBackend::ThreadPoolBackend(int NumThreads, size_t MinTaskInstances)
    : Pool(resolveNumThreads(NumThreads)),
      MinTaskInstances(MinTaskInstances) {}

void ThreadPoolBackend::beginReplay() {
  PoolTasksAtBegin = Pool.tasksDispatched();
}

void ThreadPoolBackend::finishReplay(ReplayStats *Stats) {
  if (Stats)
    Stats->PoolTasks = Pool.tasksDispatched() - PoolTasksAtBegin;
}

void ThreadPoolBackend::runWavefront(const ir::StencilProgram &P,
                                     FieldStorage &Storage,
                                     const Wavefront &W) {
  size_t N = W.size();
  GridStorage *Flat = dynamic_cast<GridStorage *>(&Storage);
  // The batching floor is parallelFor's MinPerChunk: wavefronts at or
  // below it run inline with no pool handoff (band-edge fronts dominate
  // most wavefront streams), and larger ones never dispatch a chunk
  // smaller than it.
  if (Flat) {
    Pool.parallelFor(
        N, [&](size_t I) { executeInstanceOn(P, *Flat, W.point(I)); },
        MinTaskInstances);
    return;
  }
  Pool.parallelFor(
      N, [&](size_t I) { executeInstance(P, Storage, W.point(I)); },
      MinTaskInstances);
}

const char *exec::backendKindName(BackendKind K) {
  switch (K) {
  case BackendKind::Serial:
    return "serial";
  case BackendKind::ThreadPool:
    return "threadpool";
  case BackendKind::DeviceSim:
    return "devicesim";
  }
  return "?";
}

gpu::DeviceTopology exec::defaultSimTopology(unsigned NumDevices) {
  return gpu::DeviceTopology::uniform(gpu::DeviceConfig::gtx470(),
                                      std::max(NumDevices, 1u));
}

std::unique_ptr<ExecutionBackend>
exec::makeBackend(BackendKind K, int NumThreads, unsigned NumDevices,
                  const gpu::DeviceTopology *Topology,
                  size_t MinTaskInstances) {
  switch (K) {
  case BackendKind::Serial:
    return std::make_unique<SerialBackend>();
  case BackendKind::ThreadPool:
    return std::make_unique<ThreadPoolBackend>(NumThreads, MinTaskInstances);
  case BackendKind::DeviceSim: {
    auto B = Topology ? std::make_unique<DeviceSimBackend>(*Topology)
                      : std::make_unique<DeviceSimBackend>(NumDevices);
    B->setMinTaskInstances(MinTaskInstances);
    return B;
  }
  }
  return nullptr;
}
