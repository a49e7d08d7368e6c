//===- DeviceConfigTest.cpp - Device preset tests ------------------------------===//

#include "gpu/DeviceConfig.h"
#include "gpu/DeviceTopology.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::gpu;

TEST(DeviceConfigTest, Gtx470MatchesBoardSpecs) {
  DeviceConfig D = DeviceConfig::gtx470();
  EXPECT_EQ(D.NumSMs * D.CoresPerSM, 448); // 448 CUDA cores.
  EXPECT_NEAR(D.ClockGHz, 1.215, 1e-9);
  EXPECT_NEAR(D.DramBandwidthGBs, 133.9, 1e-9);
  EXPECT_EQ(D.SharedMemPerBlock, 48 << 10);
  EXPECT_EQ(D.L2Bytes, 640 << 10);
}

TEST(DeviceConfigTest, Nvs5200MatchesBoardSpecs) {
  DeviceConfig D = DeviceConfig::nvs5200();
  EXPECT_EQ(D.NumSMs * D.CoresPerSM, 96); // 96 CUDA cores.
  EXPECT_NEAR(D.DramBandwidthGBs, 14.4, 1e-9);
}

TEST(DeviceConfigTest, PeakRatesScaleWithSpecs) {
  DeviceConfig Big = DeviceConfig::gtx470();
  DeviceConfig Small = DeviceConfig::nvs5200();
  EXPECT_GT(Big.peakGFlops(), 4 * Small.peakGFlops());
  EXPECT_GT(Big.peakSharedWordsPerSec(), Small.peakSharedWordsPerSec());
  // GTX 470: 448 * 1.215 = 544 GFLOP/s at 1 FLOP/core/cycle.
  EXPECT_NEAR(Big.peakGFlops(), 544.3, 0.5);
}

TEST(DeviceConfigTest, FermiMemoryGeometry) {
  DeviceConfig D = DeviceConfig::gtx470();
  EXPECT_EQ(D.WarpSize, 32);
  EXPECT_EQ(D.SharedBanks, 32);
  EXPECT_EQ(D.CacheLineBytes, 128);
  EXPECT_EQ(D.SectorBytes, 32);
  EXPECT_EQ(D.CacheLineBytes % D.SectorBytes, 0);
}

// --- DeviceTopology: the simulated multi-device substrate -------------------

TEST(DeviceTopologyTest, UniformSplitIsBalancedAndContiguous) {
  DeviceTopology T = DeviceTopology::uniform(DeviceConfig::gtx470(), 4);
  ASSERT_EQ(T.numDevices(), 4u);
  std::vector<SlabRange> S = T.planSlabs(64, 1);
  ASSERT_EQ(S.size(), 4u);
  EXPECT_EQ(S.front().Lo, 0);
  EXPECT_EQ(S.back().Hi, 64);
  for (size_t I = 0; I < S.size(); ++I) {
    EXPECT_EQ(S[I].width(), 16);
    if (I) {
      EXPECT_EQ(S[I].Lo, S[I - 1].Hi); // No gaps, no overlap.
    }
  }
}

TEST(DeviceTopologyTest, HeterogeneousSplitFollowsSmCounts) {
  DeviceTopology T;
  T.Devices = {DeviceConfig::gtx470(), DeviceConfig::nvs5200()};
  std::vector<SlabRange> S = T.planSlabs(32, 1);
  ASSERT_EQ(S.size(), 2u);
  // 14 vs 2 SMs: 32 * 14/16 = 28 against 4.
  EXPECT_EQ(S[0].width(), 28);
  EXPECT_EQ(S[1].width(), 4);
}

TEST(DeviceTopologyTest, MinWidthFloorBindsSkewedSplits) {
  DeviceTopology T;
  T.Devices = {DeviceConfig::gtx470(), DeviceConfig::nvs5200()};
  // Proportional split would give the small device 1 cell; the floor of 3
  // must push the boundary down while keeping the cover exact.
  std::vector<SlabRange> S = T.planSlabs(10, 3);
  ASSERT_EQ(S.size(), 2u);
  EXPECT_EQ(S[0].Hi, S[1].Lo);
  EXPECT_EQ(S[1].Hi, 10);
  EXPECT_GE(S[0].width(), 3);
  EXPECT_GE(S[1].width(), 3);
}

TEST(DeviceTopologyTest, NarrowExtentFallsBackToDevicePrefix) {
  DeviceTopology T = DeviceTopology::uniform(DeviceConfig::nvs5200(), 6);
  EXPECT_EQ(T.planSlabs(5, 2).size(), 2u);  // floor(5/2).
  EXPECT_EQ(T.planSlabs(1, 2).size(), 1u);  // Single device, no floor.
  EXPECT_EQ(T.planSlabs(100, 2).size(), 6u);
}

TEST(DeviceTopologyTest, DescriptionRunLengthEncodes) {
  DeviceTopology T = DeviceTopology::uniform(DeviceConfig::gtx470(), 2);
  T.Devices.push_back(DeviceConfig::nvs5200());
  std::string S = T.str();
  EXPECT_NE(S.find("2 x"), std::string::npos) << S;
  EXPECT_NE(S.find("1 x"), std::string::npos) << S;
}

TEST(DeviceTopologyTest, EmptyTopologyDegeneratesToOneSlab) {
  DeviceTopology Empty;
  std::vector<SlabRange> S = Empty.planSlabs(20, 3);
  ASSERT_EQ(S.size(), 1u);
  EXPECT_EQ(S[0].Lo, 0);
  EXPECT_EQ(S[0].Hi, 20);
}
