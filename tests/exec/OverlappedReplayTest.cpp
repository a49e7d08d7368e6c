//===- OverlappedReplayTest.cpp - Overlapped replay equivalence -----------===//

#include "exec/OverlappedReplay.h"

#include "exec/DeviceSimBackend.h"
#include "exec/PartitionedGridStorage.h"
#include "gpu/MemoryModel.h"
#include "gpu/PerfModel.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

using namespace hextile;
using namespace hextile::exec;

namespace {

/// Small-grid editions of the gallery: every program family the oracle
/// covers, at sizes that keep the redundant recomputation affordable.
std::vector<ir::StencilProgram> smallGallery() {
  std::vector<ir::StencilProgram> G;
  G.push_back(ir::makeJacobi1D(40, 6));
  G.push_back(ir::makeSkewedExample1D(40, 6));
  G.push_back(ir::makeJacobi2D(24, 5));
  G.push_back(ir::makeHeat2D(24, 5));
  G.push_back(ir::makeGradient2D(24, 5));
  G.push_back(ir::makeFdtd2D(24, 5));
  G.push_back(ir::makeWave2D(24, 6));
  G.push_back(ir::makeHeat2D4(28, 5));
  G.push_back(ir::makeVarHeat2D(24, 5));
  G.push_back(ir::makeHeat3D(12, 4));
  return G;
}

int64_t canonicalInstances(const ir::StencilProgram &P) {
  return static_cast<int64_t>(P.numStmts()) * P.timeSteps() *
         P.pointsPerTimeStep();
}

} // namespace

TEST(OverlappedReplayTest, SerialBitExactAcrossGallery) {
  for (const ir::StencilProgram &P : smallGallery()) {
    for (int64_t Band : {int64_t(1), int64_t(2), int64_t(3)}) {
      core::OverlappedSchedule S(P, Band, /*TileWidth=*/7);
      EXPECT_EQ(checkOverlappedEquivalence(P, S), "")
          << P.name() << " band " << Band;
    }
  }
}

TEST(OverlappedReplayTest, ThreadPoolShuffledBitExact) {
  ThreadPoolBackend Pool(4, /*MinTaskInstances=*/1);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Pool;
  Opts.ShuffleSeed = 20260807;
  for (const ir::StencilProgram &P : smallGallery()) {
    core::OverlappedSchedule S(P, /*BandSteps=*/2, /*TileWidth=*/6);
    EXPECT_EQ(checkOverlappedEquivalence(P, S, Opts), "") << P.name();
  }
}

TEST(OverlappedReplayTest, RedundancyAccountsForEveryExtraInstance) {
  // The trapezoids recompute halo cells; everything beyond the canonical
  // instance count must be booked as redundant, and a multi-tile band
  // must actually pay some redundancy.
  ir::StencilProgram P = ir::makeJacobi2D(24, 6);
  core::OverlappedSchedule S(P, /*BandSteps=*/3, /*TileWidth=*/6);
  ReplayStats Stats;
  ScheduleRunOptions Opts;
  Opts.Stats = &Stats;
  EXPECT_EQ(checkOverlappedEquivalence(P, S, Opts), "");
  EXPECT_GT(Stats.RedundantInstances, 0u);
  EXPECT_EQ(static_cast<int64_t>(Stats.Instances) -
                static_cast<int64_t>(Stats.RedundantInstances),
            canonicalInstances(P));
  EXPECT_EQ(Stats.Bands, 2u);
}

TEST(OverlappedReplayTest, DeviceSimBandedBitExactAcrossGallery) {
  DeviceSimBackend Devices(3u);
  Devices.setMinTaskInstances(1);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  for (const ir::StencilProgram &P : smallGallery()) {
    core::OverlappedSchedule S(P, /*BandSteps=*/2, /*TileWidth=*/6);
    EXPECT_EQ(checkOverlappedEquivalence(P, S, Opts), "") << P.name();
  }
}

TEST(OverlappedReplayTest, BandedCadenceExchangesOncePerBand) {
  ir::StencilProgram P = ir::makeJacobi1D(64, 8);
  core::OverlappedSchedule S(P, /*BandSteps=*/4, /*TileWidth=*/16);
  ReplayStats Stats;
  DeviceSimBackend Devices(2u);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  Opts.Stats = &Stats;
  EXPECT_EQ(checkOverlappedEquivalence(P, S, Opts), "");
  // 8 steps in bands of 4: two exchanges, where the per-wavefront cadence
  // would pay one per canonical step.
  EXPECT_EQ(Stats.HaloExchanges, 2u);
  EXPECT_GT(Stats.RedundantInstances, 0u);
  EXPECT_EQ(static_cast<int64_t>(Stats.Instances) -
                static_cast<int64_t>(Stats.RedundantInstances),
            canonicalInstances(P));
}

TEST(OverlappedReplayTest, MeasuredBandedTrafficMatchesPrediction) {
  // The analytic banded model and the measured dirty-cell traffic must
  // agree exactly, for shallow and buffer-deep bands alike.
  for (const ir::StencilProgram &P :
       {ir::makeJacobi2D(32, 6), ir::makeFdtd2D(24, 6),
        ir::makeWave2D(24, 6), ir::makeHeat2D4(32, 6)}) {
    for (int64_t Band : {int64_t(2), int64_t(3)}) {
      core::OverlappedSchedule S(P, Band, /*TileWidth=*/8);
      ReplayStats Stats;
      DeviceSimBackend Devices(2u);
      ScheduleRunOptions Opts;
      Opts.BackendOverride = &Devices;
      Opts.Stats = &Stats;

      auto Storage = makeOverlappedStorage(P, S, Opts);
      auto *Parts = dynamic_cast<PartitionedGridStorage *>(Storage.get());
      ASSERT_NE(Parts, nullptr);
      if (Parts->numDevices() < 2)
        continue; // Band-deep rings forced a single slab: no boundary.
      std::vector<int64_t> Boundaries;
      for (unsigned D = 1; D < Parts->numDevices(); ++D)
        Boundaries.push_back(Parts->owned(D).Lo);

      runOverlapped(P, S, *Storage, Opts);
      int64_t Predicted =
          gpu::predictHaloExchangeValues(P, Boundaries, /*CadenceSteps=*/Band);
      EXPECT_EQ(static_cast<int64_t>(Stats.HaloValuesExchanged), Predicted)
          << P.name() << " band " << Band;
    }
  }
}

TEST(OverlappedReplayTest, BandedCostPricesSavedLatencyRounds) {
  // Deep bands divide the alpha term by the band height: on a
  // latency-dominated link the banded prediction must undercut the
  // per-step cadence, and both must price through the same closed form.
  ir::StencilProgram P = ir::makeJacobi1D(256, 16);
  std::vector<int64_t> Boundaries = {128};
  gpu::DeviceTopology Topo = defaultSimTopology(2);
  Topo.Links.assign(1, gpu::LinkSpec{/*LatencyUs=*/50.0,
                                     /*BandwidthGBps=*/16.0});

  gpu::HaloExchangeCost PerStep = gpu::predictHaloExchangeCost(
      P, Topo, Boundaries, /*ExchangeRounds=*/P.timeSteps());
  gpu::HaloExchangeCost Banded =
      gpu::predictBandedHaloExchangeCost(P, Topo, Boundaries, /*BandSteps=*/4);
  EXPECT_LT(Banded.LatencySeconds, PerStep.LatencySeconds);
  EXPECT_GE(Banded.TransferSeconds, PerStep.TransferSeconds);
  EXPECT_LT(Banded.Seconds, PerStep.Seconds);
}

TEST(OverlappedReplayTest, RejectsStorageWithoutBandDeepRings) {
  // Partitioned storage provisioned for the classic one-step cadence
  // cannot host a deeper band: the replay must refuse, not corrupt.
  ir::StencilProgram P = ir::makeJacobi1D(64, 8);
  core::OverlappedSchedule S(P, /*BandSteps=*/3, /*TileWidth=*/16);
  DeviceSimBackend Devices(2u);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Devices;
  auto Storage = makeStorage(P, Opts); // Rings for a one-step cadence.
  EXPECT_THROW(runOverlapped(P, S, *Storage, Opts), std::invalid_argument);

  // Flat storage has no rings at all: a DeviceSim replay over it must not
  // quietly fall back to a single-address-space tile replay.
  GridStorage Flat(P);
  try {
    runOverlapped(P, S, Flat, Opts);
    FAIL() << "a DeviceSimBackend replayed flat storage";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("'flat'"), std::string::npos)
        << E.what();
  }
}

TEST(OverlappedReplayTest, RejectsForeignProgram) {
  ir::StencilProgram A = ir::makeJacobi1D(64, 8);
  ir::StencilProgram B = ir::makeHeat2D(24, 5);
  core::OverlappedSchedule S(A, 2, 16);
  GridStorage Storage(B);
  EXPECT_THROW(runOverlapped(B, S, Storage, {}), std::invalid_argument);

  // Same program on another grid: the tiles, margins and footprints were
  // laid out for the smaller one, so the replay would silently diverge.
  // The error names both extents.
  ir::StencilProgram Small = ir::makeJacobi2D(24, 5);
  ir::StencilProgram Large = ir::makeJacobi2D(48, 5);
  core::OverlappedSchedule SmallSched(Small, /*BandSteps=*/2,
                                      /*TileWidth=*/6);
  GridStorage LargeStorage(Large);
  try {
    runOverlapped(Large, SmallSched, LargeStorage, {});
    FAIL() << "a schedule for a 24x24 grid replayed a 48x48 grid";
  } catch (const std::invalid_argument &E) {
    std::string Msg = E.what();
    EXPECT_NE(Msg.find("24x24"), std::string::npos) << Msg;
    EXPECT_NE(Msg.find("48x48"), std::string::npos) << Msg;
  }
}
