//===- PerfModelTest.cpp - Performance model tests ----------------------------===//

#include "gpu/PerfModel.h"

#include "exec/DeviceSimBackend.h"
#include "exec/Executor.h"
#include "exec/PartitionedGridStorage.h"
#include "harness/StencilOracle.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::gpu;

namespace {

KernelModel baseKernel() {
  KernelModel K;
  K.Name = "k";
  K.Launches = 10;
  K.BlocksPerLaunch = 64;
  K.SlabsPerBlock = 4;
  K.UpdatesPerSlab = 1000;
  K.FlopsPerSlab = 6000;
  RowBatch B;
  B.Count = 10;
  B.Len = 32;
  B.AlignElems = 0;
  K.LoadRequestRows = {B};
  K.StoreRows = {B};
  K.SharedLoadsPerSlab = 3000;
  K.SharedStoresPerSlab = 1000;
  return K;
}

} // namespace

TEST(PerfModelTest, BasicInvariants) {
  DeviceConfig Dev = DeviceConfig::gtx470();
  PerfResult R = simulate(Dev, {baseKernel()});
  EXPECT_GT(R.Seconds, 0.0);
  EXPECT_GT(R.GStencilsPerSec, 0.0);
  EXPECT_EQ(R.TotalUpdates, 10 * 64 * 4 * 1000);
  EXPECT_DOUBLE_EQ(R.Counters.GldEfficiency, 1.0);
  EXPECT_DOUBLE_EQ(R.Counters.SharedLoadsPerRequest, 1.0);
}

TEST(PerfModelTest, SlowerDeviceIsSlower) {
  PerfResult Big = simulate(DeviceConfig::gtx470(), {baseKernel()});
  PerfResult Small = simulate(DeviceConfig::nvs5200(), {baseKernel()});
  EXPECT_GT(Big.GStencilsPerSec, Small.GStencilsPerSec);
}

TEST(PerfModelTest, NonOverlappedCopyIsSlower) {
  KernelModel K = baseKernel();
  // Make memory traffic significant.
  K.LoadRequestRows[0].Count = 2000;
  PerfResult Overlap = simulate(DeviceConfig::gtx470(), {K});
  K.OverlapCopyOut = false;
  PerfResult Serial = simulate(DeviceConfig::gtx470(), {K});
  EXPECT_LT(Overlap.Seconds, Serial.Seconds);
}

TEST(PerfModelTest, BankConflictsSlowSharedBoundKernels) {
  KernelModel K = baseKernel();
  K.SharedLoadsPerSlab = 200000; // Shared-memory bound.
  PerfResult Clean = simulate(DeviceConfig::gtx470(), {K});
  K.SharedTransactionsPerRequest = 2.0;
  PerfResult Conflicted = simulate(DeviceConfig::gtx470(), {K});
  EXPECT_LT(Conflicted.GStencilsPerSec, Clean.GStencilsPerSec);
  EXPECT_DOUBLE_EQ(Conflicted.Counters.SharedLoadsPerRequest, 2.0);
}

TEST(PerfModelTest, MisalignmentRaisesDramTraffic) {
  KernelModel K = baseKernel();
  PerfResult Aligned = simulate(DeviceConfig::gtx470(), {K});
  K.LoadRequestRows[0].AlignElems = 31;
  PerfResult Misaligned = simulate(DeviceConfig::gtx470(), {K});
  EXPECT_GT(Misaligned.Counters.DramReadTransactions,
            Aligned.Counters.DramReadTransactions);
  EXPECT_LT(Misaligned.Counters.GldEfficiency,
            Aligned.Counters.GldEfficiency);
}

TEST(PerfModelTest, DistinctRowsDriveDram) {
  KernelModel K = baseKernel();
  // Request 10x the distinct traffic (cached re-reads).
  RowBatch Req = K.LoadRequestRows[0];
  Req.Count *= 10;
  K.LoadRequestRows = {Req};
  RowBatch Distinct = Req;
  Distinct.Count /= 10;
  K.LoadDistinctRows = {Distinct};
  PerfResult R = simulate(DeviceConfig::gtx470(), {K});
  // DRAM follows distinct lines; gld inst follows requests.
  double SlabsTotal = 10.0 * 64 * 4;
  EXPECT_DOUBLE_EQ(R.Counters.DramReadTransactions,
                   SlabsTotal * Distinct.Count * 4);
  EXPECT_DOUBLE_EQ(R.Counters.GldInst32bit, SlabsTotal * Req.Count * 32);
}

TEST(PerfModelTest, LaunchOverheadDominatesTinyKernels) {
  KernelModel K = baseKernel();
  K.Launches = 10000;
  K.BlocksPerLaunch = 1;
  K.SlabsPerBlock = 1;
  K.UpdatesPerSlab = 10;
  K.FlopsPerSlab = 60;
  K.LoadRequestRows.clear();
  K.StoreRows.clear();
  K.SharedLoadsPerSlab = 30;
  K.SharedStoresPerSlab = 10;
  DeviceConfig Dev = DeviceConfig::gtx470();
  PerfResult R = simulate(Dev, {K});
  EXPECT_GE(R.Seconds, 10000 * Dev.LaunchOverheadUs * 1e-6);
}

TEST(PerfModelTest, FewBlocksUnderutilizeSMs) {
  KernelModel K = baseKernel();
  K.BlocksPerLaunch = 1;
  K.Launches = 1;
  K.SlabsPerBlock = 256;
  PerfResult One = simulate(DeviceConfig::gtx470(), {K});
  K.BlocksPerLaunch = 64;
  K.SlabsPerBlock = 4;
  PerfResult Many = simulate(DeviceConfig::gtx470(), {K});
  // Same total work, but one block cannot fill 14 SMs.
  EXPECT_GT(One.Seconds, Many.Seconds);
}

TEST(HaloExchangeCostTest, NarrowGridsAreLatencyDominated) {
  // jacobi1d has a one-point inner extent: each exchange round moves a
  // handful of bytes, so the alpha term (rounds * latency) towers over the
  // beta term at any realistic round count.
  ir::StencilProgram P = ir::makeJacobi1D(64, 40);
  DeviceTopology Topo = DeviceTopology::uniform(
      DeviceConfig::gtx470(), 2, LinkSpec{10.0, 1.0});
  std::vector<int64_t> Cuts = {32};
  HaloExchangeCost Cost = predictHaloExchangeCost(P, Topo, Cuts,
                                                  /*ExchangeRounds=*/437);
  ASSERT_EQ(Cost.PerLinkValues.size(), 1u);
  EXPECT_GT(Cost.PerLinkValues[0], 0);
  EXPECT_GT(Cost.LatencySeconds, 10.0 * Cost.TransferSeconds);
  EXPECT_NEAR(Cost.Seconds, Cost.LatencySeconds + Cost.TransferSeconds,
              1e-12 * Cost.Seconds);
}

TEST(HaloExchangeCostTest, WideGridsAreBandwidthDominated) {
  // Same link, same per-round latency -- but a wide 2D grid moves whole
  // boundary rows per round, so bytes over bandwidth dominates.
  ir::StencilProgram P = ir::makeJacobi2D(20000, 40);
  DeviceTopology Topo = DeviceTopology::uniform(
      DeviceConfig::gtx470(), 2, LinkSpec{10.0, 1.0});
  std::vector<int64_t> Cuts = {10000};
  HaloExchangeCost Cost =
      predictHaloExchangeCost(P, Topo, Cuts, /*ExchangeRounds=*/40);
  EXPECT_GT(Cost.TransferSeconds, 10.0 * Cost.LatencySeconds);
}

TEST(HaloExchangeCostTest, AsymmetricLinksPriceEqualTrafficDifferently) {
  // Symmetric cuts of a uniform grid carry identical byte counts, so with
  // per-edge link specs the *cost* split is exactly the link asymmetry --
  // total bytes alone could never see it.
  ir::StencilProgram P = ir::makeJacobi2D(30, 6);
  DeviceTopology Topo =
      DeviceTopology::uniform(DeviceConfig::gtx470(), 3);
  Topo.Links = {LinkSpec{1.0, 32.0},   // NVLink-ish edge 0.
                LinkSpec{25.0, 2.0}};  // Narrow PCIe switch on edge 1.
  std::vector<int64_t> Cuts = {10, 20};
  HaloExchangeCost Cost = predictHaloExchangeCost(P, Topo, Cuts, 6);
  ASSERT_EQ(Cost.PerLinkSeconds.size(), 2u);
  EXPECT_EQ(Cost.PerLinkValues[0], Cost.PerLinkValues[1]);
  EXPECT_GT(Cost.PerLinkSeconds[1], 10.0 * Cost.PerLinkSeconds[0]);
}

TEST(HaloExchangeCostTest, PredictionEqualsMeasuredReplayCostExactly) {
  // The cross-check the shared closed form exists for: replay classical
  // tiling on a heterogeneous chain, feed the *measured* exchange cadence
  // into the analytic model, and the per-link simulated costs must agree
  // to the last bit -- classical byte counts match the analytic strip
  // model exactly, and both sides price traffic through the identical
  // LinkSpec::seconds call in the same accumulation order.
  ir::StencilProgram P = ir::makeJacobi2D(32, 6);
  gpu::DeviceTopology Topo =
      DeviceTopology::uniform(DeviceConfig::gtx470(), 3);
  Topo.Links = {LinkSpec{3.0, 24.0}, LinkSpec{40.0, 0.5}};

  harness::OracleSchedule S = harness::makeOracleSchedule(
      P, harness::ScheduleKind::Classical, harness::OracleTiling{});
  ASSERT_NE(S.Key, nullptr);
  exec::DeviceSimBackend Backend(Topo);
  Backend.setMinTaskInstances(1);
  exec::ScheduleRunOptions Opts;
  Opts.BackendOverride = &Backend;
  Opts.ParallelFrom = S.ParallelFrom;
  exec::ReplayStats Stats;
  Opts.Stats = &Stats;
  std::unique_ptr<exec::FieldStorage> Storage = exec::makeStorage(P, Opts);
  auto *Parts = dynamic_cast<exec::PartitionedGridStorage *>(Storage.get());
  ASSERT_NE(Parts, nullptr);
  std::vector<int64_t> Cuts;
  for (unsigned D = 1; D < Parts->numDevices(); ++D)
    Cuts.push_back(Parts->owned(D).Lo);

  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  exec::runSchedule(P, *Storage, Domain, S.Key, Opts);
  ASSERT_EQ(Stats.PerLink.size(), Cuts.size());
  ASSERT_GT(Stats.HaloExchanges, 0u);

  HaloExchangeCost Predicted = predictHaloExchangeCost(
      P, Topo, Cuts, static_cast<int64_t>(Stats.HaloExchanges));
  for (size_t E = 0; E < Cuts.size(); ++E) {
    EXPECT_EQ(static_cast<size_t>(Predicted.PerLinkValues[E]),
              Stats.PerLink[E].Values)
        << "link " << E;
    EXPECT_DOUBLE_EQ(Predicted.PerLinkSeconds[E],
                     Stats.PerLink[E].SimulatedSeconds)
        << "link " << E;
  }
  EXPECT_DOUBLE_EQ(Predicted.Seconds, Stats.HaloSimulatedSeconds);
}
