//===- BatchingBoundaryTest.cpp - Inline-batching boundary pinning --------===//
//
// Every parallel execution path documents the same batching floor: work
// with *at most* MinTaskInstances instances retires inline on the caller,
// work with more goes through the pool. These tests pin the boundary by
// counting dispatched pool tasks at exactly N and exactly N+1 instances,
// for the thread-pool backend, the device-sim backend, and the overlapped
// banded replay (which batches per band rather than per wavefront).
//
//===----------------------------------------------------------------------===//

#include "exec/DeviceSimBackend.h"
#include "exec/Executor.h"
#include "exec/OverlappedReplay.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::exec;

namespace {

// jacobi1d on 34 cells: the update domain is 32 cells, so with a time-only
// key every wavefront holds exactly 32 instances.
constexpr int64_t GridN = 34;
constexpr size_t FrontSize = 32;

ScheduleKeyIntoFn timeOnlyKey() {
  return [](std::span<const int64_t> Pt, std::vector<int64_t> &Out) {
    Out.push_back(Pt[0]);
  };
}

ReplayStats replayWavefronts(BackendKind Backend, size_t MinTaskInstances) {
  ir::StencilProgram P = ir::makeJacobi1D(GridN, 2);
  ReplayStats Stats;
  std::unique_ptr<ExecutionBackend> B =
      makeBackend(Backend, /*NumThreads=*/4, /*NumDevices=*/2,
                  /*Topology=*/nullptr, MinTaskInstances);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = B.get();
  Opts.ParallelFrom = 1;
  Opts.Stats = &Stats;
  EXPECT_EQ(checkScheduleEquivalence(P, timeOnlyKey(), Opts), "");
  EXPECT_EQ(Stats.MaxWavefrontInstances, FrontSize);
  return Stats;
}

ReplayStats replayOverlappedBanded(size_t MinTaskInstances) {
  // BandSteps 1 on a single-statement program: one band holds exactly one
  // 32-instance tick, so the band-level batching sees the same counts.
  ir::StencilProgram P = ir::makeJacobi1D(GridN, 2);
  core::OverlappedSchedule S(P, /*BandSteps=*/1, /*TileWidth=*/GridN);
  ReplayStats Stats;
  DeviceSimBackend Devices(2u);
  Devices.setMinTaskInstances(MinTaskInstances);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  Opts.Stats = &Stats;
  EXPECT_EQ(checkOverlappedEquivalence(P, S, Opts), "");
  return Stats;
}

} // namespace

TEST(BatchingBoundaryTest, ThreadPoolAtMostThresholdRunsInline) {
  EXPECT_EQ(replayWavefronts(BackendKind::ThreadPool, FrontSize).PoolTasks,
            0u);
}

TEST(BatchingBoundaryTest, ThreadPoolAboveThresholdDispatches) {
  EXPECT_GT(replayWavefronts(BackendKind::ThreadPool, FrontSize - 1).PoolTasks,
            0u);
}

TEST(BatchingBoundaryTest, DeviceSimAtMostThresholdRunsInline) {
  // The historical bug: DeviceSim pooled at >= threshold while its docs
  // (and every other path) promise "at most N runs inline".
  EXPECT_EQ(replayWavefronts(BackendKind::DeviceSim, FrontSize).PoolTasks,
            0u);
}

TEST(BatchingBoundaryTest, DeviceSimAboveThresholdDispatches) {
  EXPECT_GT(replayWavefronts(BackendKind::DeviceSim, FrontSize - 1).PoolTasks,
            0u);
}

TEST(BatchingBoundaryTest, OverlappedBandAtMostThresholdRunsInline) {
  EXPECT_EQ(replayOverlappedBanded(FrontSize).PoolTasks, 0u);
}

TEST(BatchingBoundaryTest, OverlappedBandAboveThresholdDispatches) {
  EXPECT_GT(replayOverlappedBanded(FrontSize - 1).PoolTasks, 0u);
}
