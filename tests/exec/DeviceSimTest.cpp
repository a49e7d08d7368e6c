//===- DeviceSimTest.cpp - Simulated multi-device execution tests ------------===//
//
// The DeviceSim backend's halo-exchange accounting is cross-checked against
// the analytic per-boundary model (gpu::predictHaloExchangeValues): in an
// owner-computes decomposition every boundary-strip write is exchanged
// exactly once, so for a legal schedule the *measured* traffic is fully
// determined by the stencil's halos, the slab boundaries and the step
// count -- independent of which tiling produced the replay order. Classical
// tiling is required to match the count exactly; hex/hybrid must land
// within 10% of the model prediction (they match exactly too, but the
// bound is the documented contract).
//
//===----------------------------------------------------------------------===//

#include "exec/DeviceSimBackend.h"
#include "exec/Executor.h"
#include "exec/PartitionedGridStorage.h"
#include "gpu/MemoryModel.h"
#include "harness/StencilOracle.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <stdexcept>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// Replays \p P under schedule kind \p K on \p NumDevices simulated
/// devices; returns the stats and (through \p Boundaries) the interior
/// slab cuts of the partitioned storage actually used. Asserts the replay
/// stays bit-exact against the flat reference.
ReplayStats replayOnDevices(const ir::StencilProgram &P,
                            harness::ScheduleKind K, unsigned NumDevices,
                            std::vector<int64_t> *Boundaries = nullptr) {
  harness::OracleTiling T;
  T.H = 2;
  T.W0 = 4;
  T.InnerWidths = {5};
  harness::OracleSchedule S = harness::makeOracleSchedule(P, K, T);
  EXPECT_NE(S.Key, nullptr) << S.Skipped;

  DeviceSimBackend Devices(NumDevices);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  Opts.ParallelFrom = S.ParallelFrom;
  ReplayStats Stats;
  Opts.Stats = &Stats;

  std::unique_ptr<FieldStorage> Storage = makeStorage(P, Opts);
  auto *Parts = dynamic_cast<PartitionedGridStorage *>(Storage.get());
  EXPECT_NE(Parts, nullptr);
  if (Boundaries) {
    Boundaries->clear();
    for (unsigned D = 1; D < Parts->numDevices(); ++D)
      Boundaries->push_back(Parts->owned(D).Lo);
  }

  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  runSchedule(P, *Storage, Domain, S.Key, Opts);

  GridStorage Ref(P);
  runReference(P, Ref);
  EXPECT_EQ(compareStoragesAtStep(Ref, *Storage, P.timeSteps() - 1), "")
      << harness::scheduleKindName(K) << " on " << NumDevices << " devices";
  return Stats;
}

} // namespace

TEST(DeviceSimTest, ClassicalHaloBytesEqualAnalyticCount) {
  // The acceptance bar: classical tiling's measured halo traffic equals the
  // analytic per-boundary count exactly, on 2 and on 4 devices.
  for (unsigned Devices : {2u, 4u}) {
    ir::StencilProgram P = ir::makeJacobi2D(32, 6);
    std::vector<int64_t> Cuts;
    ReplayStats Stats = replayOnDevices(P, harness::ScheduleKind::Classical,
                                        Devices, &Cuts);
    ASSERT_EQ(Cuts.size(), Devices - 1);
    EXPECT_EQ(static_cast<int64_t>(Stats.HaloValuesExchanged),
              gpu::predictHaloExchangeValues(P, Cuts));
    EXPECT_EQ(static_cast<int64_t>(Stats.HaloBytesExchanged),
              gpu::predictHaloExchangeBytes(P, Cuts));
    EXPECT_GT(Stats.HaloBytesExchanged, 0u);
  }
}

TEST(DeviceSimTest, HexAndHybridHaloBytesWithinModelPrediction) {
  // Hex/hybrid replays must land within 10% of the MemoryModel prediction.
  ir::StencilProgram P = ir::makeHeat2D(28, 5);
  for (harness::ScheduleKind K :
       {harness::ScheduleKind::Hex, harness::ScheduleKind::Hybrid}) {
    std::vector<int64_t> Cuts;
    ReplayStats Stats = replayOnDevices(P, K, 2, &Cuts);
    double Predicted =
        static_cast<double>(gpu::predictHaloExchangeBytes(P, Cuts));
    double Measured = static_cast<double>(Stats.HaloBytesExchanged);
    EXPECT_GT(Predicted, 0.0);
    EXPECT_LE(std::abs(Measured - Predicted), 0.1 * Predicted)
        << harness::scheduleKindName(K) << ": measured " << Measured
        << " vs predicted " << Predicted;
  }
}

TEST(DeviceSimTest, DeeperReadDepthExchangesMoreTraffic) {
  // skewed1d reads two steps back at distance 2 (loHalo = hiHalo = 2,
  // triple-buffered): the wider strips and deeper rotation must both be
  // carried by the exchange, and the analytic count still matches.
  ir::StencilProgram P = ir::makeSkewedExample1D(40, 6);
  std::vector<int64_t> Cuts;
  ReplayStats Stats =
      replayOnDevices(P, harness::ScheduleKind::Classical, 2, &Cuts);
  EXPECT_EQ(static_cast<int64_t>(Stats.HaloValuesExchanged),
            gpu::predictHaloExchangeValues(P, Cuts));
  // Width-2 strips on both sides of one cut, 6 steps: 4 * 6 values.
  EXPECT_EQ(Stats.HaloValuesExchanged, 24u);
}

TEST(DeviceSimTest, PerDeviceCountersPartitionComputeAndTraffic) {
  ir::StencilProgram P = ir::makeGradient2D(30, 4);
  ReplayStats Stats =
      replayOnDevices(P, harness::ScheduleKind::Classical, 4);
  core::IterationDomain D = core::IterationDomain::forProgram(P);

  EXPECT_EQ(Stats.Devices, 4u);
  ASSERT_EQ(Stats.PerDevice.size(), 4u);
  size_t InstanceSum = 0, SentSum = 0;
  for (const DeviceReplayStats &Dev : Stats.PerDevice) {
    EXPECT_GT(Dev.Instances, 0u); // Every device got real work.
    InstanceSum += Dev.Instances;
    SentSum += Dev.HaloValuesSent;
  }
  EXPECT_EQ(InstanceSum, static_cast<size_t>(D.numPoints()));
  EXPECT_EQ(InstanceSum, Stats.Instances);
  EXPECT_EQ(SentSum, Stats.HaloValuesExchanged);
  // One exchange round per wavefront barrier.
  EXPECT_EQ(Stats.HaloExchanges, Stats.Wavefronts);
  // Interior devices send through both faces, edge devices through one, so
  // with >= 3 devices traffic cannot be uniform but every boundary device
  // must send something.
  EXPECT_GT(Stats.PerDevice.front().HaloValuesSent, 0u);
  EXPECT_GT(Stats.PerDevice.back().HaloValuesSent, 0u);
}

TEST(DeviceSimTest, SingleDeviceRunsWithoutTraffic) {
  ir::StencilProgram P = ir::makeJacobi1D(24, 5);
  ReplayStats Stats = replayOnDevices(P, harness::ScheduleKind::Hex, 1);
  EXPECT_EQ(Stats.Devices, 1u);
  EXPECT_EQ(Stats.HaloValuesExchanged, 0u);
  EXPECT_EQ(Stats.HaloBytesExchanged, 0u);
}

TEST(DeviceSimTest, FlatStorageIsRejectedWithClearError) {
  // The backend cannot fake distributed memory over a flat array; handing
  // it one is a caller bug and must fail loudly, not silently measure
  // nothing.
  ir::StencilProgram P = ir::makeJacobi2D(12, 2);
  DeviceSimBackend Backend(2u);
  GridStorage Flat(P);
  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Backend;
  ScheduleKeyIntoFn Key = [](std::span<const int64_t> Pt,
                             std::vector<int64_t> &Out) {
    Out.insert(Out.end(), Pt.begin(), Pt.end());
  };
  try {
    runSchedule(P, Flat, Domain, Key, Opts);
    FAIL() << "flat storage must be rejected";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("PartitionedGridStorage"),
              std::string::npos)
        << E.what();
  }
}

TEST(DeviceSimTest, WeightedTopologySplitsSlabsBySmCount) {
  // A GTX 470 (14 SMs) chained with an NVS 5200M (2 SMs) owns ~7x the
  // cells; placement follows, so the big device computes most instances.
  gpu::DeviceTopology Topo;
  Topo.Devices = {gpu::DeviceConfig::gtx470(), gpu::DeviceConfig::nvs5200()};
  ir::StencilProgram P = ir::makeJacobi2D(32, 3);

  harness::OracleSchedule S = harness::makeOracleSchedule(
      P, harness::ScheduleKind::Classical, harness::OracleTiling{});
  ASSERT_NE(S.Key, nullptr);
  DeviceSimBackend Devices(Topo);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  Opts.ParallelFrom = S.ParallelFrom;
  ReplayStats Stats;
  Opts.Stats = &Stats;
  std::unique_ptr<FieldStorage> Storage = makeStorage(P, Opts);
  auto *Parts = dynamic_cast<PartitionedGridStorage *>(Storage.get());
  ASSERT_NE(Parts, nullptr);
  ASSERT_EQ(Parts->numDevices(), 2u);
  EXPECT_EQ(Parts->owned(0).width(), 28); // 32 * 14/16.
  EXPECT_EQ(Parts->owned(1).width(), 4);

  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  runSchedule(P, *Storage, Domain, S.Key, Opts);
  GridStorage Ref(P);
  runReference(P, Ref);
  EXPECT_EQ(compareStoragesAtStep(Ref, *Storage, P.timeSteps() - 1), "");
  ASSERT_EQ(Stats.PerDevice.size(), 2u);
  EXPECT_GT(Stats.PerDevice[0].Instances, 5 * Stats.PerDevice[1].Instances);
}

TEST(DeviceSimTest, NarrowGridFallsBackToFewerDevices) {
  // 8 owned columns cannot feed 8 devices of jacobi width >= 1 *and* halo
  // floors; the storage keeps a usable prefix and the replay stays exact.
  ir::StencilProgram P = ir::makeSkewedExample1D(9, 4); // MinWidth 2.
  DeviceSimBackend Devices(8u);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  std::unique_ptr<FieldStorage> Storage = makeStorage(P, Opts);
  auto *Parts = dynamic_cast<PartitionedGridStorage *>(Storage.get());
  ASSERT_NE(Parts, nullptr);
  EXPECT_EQ(Parts->requestedDevices(), 8u);
  EXPECT_EQ(Parts->numDevices(), 4u); // floor(9 / MinWidth 2).

  harness::OracleSchedule S = harness::makeOracleSchedule(
      P, harness::ScheduleKind::Classical, harness::OracleTiling{});
  ASSERT_NE(S.Key, nullptr);
  Opts.ParallelFrom = S.ParallelFrom;
  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  runSchedule(P, *Storage, Domain, S.Key, Opts);
  GridStorage Ref(P);
  runReference(P, Ref);
  EXPECT_EQ(compareStoragesAtStep(Ref, *Storage, P.timeSteps() - 1), "");
}
