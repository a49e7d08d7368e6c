//===- CoverageExtrasTest.cpp - Cross-module edge-case coverage ---------------===//

#include "baselines/Baselines.h"
#include "codegen/HybridCompiler.h"
#include "exec/Executor.h"
#include "frontend/Parser.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;

TEST(CoverageExtras, ParallelFromTruncatesKeyComparison) {
  // With ParallelFrom = 1 only the first key component orders execution;
  // jacobi keyed by [t, s0] must still be correct because s0 within a step
  // is parallel.
  ir::StencilProgram P = ir::makeJacobi2D(12, 4);
  exec::ScheduleKeyIntoFn Key = [](std::span<const int64_t> Pt,
                                   std::vector<int64_t> &Out) {
    Out.push_back(Pt[0]);
    Out.push_back(Pt[1]);
  };
  exec::ScheduleRunOptions Opts;
  Opts.ParallelFrom = 1;
  Opts.ShuffleSeed = 77;
  EXPECT_EQ(exec::checkScheduleEquivalence(P, Key, Opts), "");
}

TEST(CoverageExtras, OvertileRespectsSharedBudget) {
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  for (const ir::StencilProgram &P : ir::makeBenchmarkSuite()) {
    baselines::BaselineResult R = baselines::compileOvertile(P, Dev);
    for (const gpu::KernelModel &K : R.Kernels)
      EXPECT_LE(K.SharedBytesPerBlock, Dev.SharedMemPerBlock) << P.name();
  }
}

TEST(CoverageExtras, PpcgThreadsWithinDeviceLimit) {
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  for (const ir::StencilProgram &P : ir::makeBenchmarkSuite()) {
    baselines::BaselineResult R = baselines::compilePpcg(P, Dev);
    for (const gpu::KernelModel &K : R.Kernels) {
      EXPECT_LE(K.ThreadsPerBlock, 1024) << P.name();
      EXPECT_GE(K.ThreadsPerBlock, 32) << P.name();
    }
  }
}

TEST(CoverageExtras, BaselinesCoverAllUpdates) {
  // Each tool's launch model must account for every stencil update of the
  // full problem (PPCG/Par4All exactly; Overtile at least, given its
  // boundary-tile rounding).
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  ir::StencilProgram P = ir::makeJacobi2D(3072, 512);
  int64_t Expected = P.pointsPerTimeStep() * P.timeSteps();
  gpu::PerfResult Ppcg =
      gpu::simulate(Dev, baselines::compilePpcg(P, Dev).Kernels);
  EXPECT_GE(Ppcg.TotalUpdates, Expected);
  EXPECT_LE(Ppcg.TotalUpdates, Expected * 3 / 2); // Boundary rounding.
  gpu::PerfResult Ovt =
      gpu::simulate(Dev, baselines::compileOvertile(P, Dev).Kernels);
  EXPECT_GE(Ovt.TotalUpdates, Expected);
}

TEST(CoverageExtras, HybridCoversAllUpdates) {
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  ir::StencilProgram P = ir::makeJacobi2D(3072, 512);
  codegen::TileSizeRequest Sizes;
  Sizes.H = 2;
  Sizes.W0 = 7;
  Sizes.InnerWidths = {32};
  codegen::CompiledHybrid C = codegen::compileHybrid(P, Sizes);
  int64_t Expected = P.pointsPerTimeStep() * P.timeSteps();
  gpu::PerfResult R = gpu::simulate(Dev, C.kernelModels(Dev));
  // Full tiles everywhere (boundary tiles modeled as full): within 2x.
  EXPECT_GE(R.TotalUpdates, Expected);
  EXPECT_LE(R.TotalUpdates, 2 * Expected);
}

TEST(CoverageExtras, Parse3DStencil) {
  frontend::ParseResult R = frontend::parseStencilProgram(R"(
grid A[64][64][64];
for (t = 0; t < 8; t++)
  for (i = 1; i < 63; i++)
    for (j = 1; j < 63; j++)
      for (k = 1; k < 63; k++)
        A[t+1][i][j][k] = 0.16f * (A[t][i][j][k] + A[t][i+1][j][k]
          + A[t][i-1][j][k] + A[t][i][j+1][k] + A[t][i][j-1][k]
          + A[t][i][j][k+1] + A[t][i][j][k-1]);
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program.spaceRank(), 3u);
  EXPECT_EQ(R.Program.totalReads(), 7u);
}

TEST(CoverageExtras, Parse1DStencilAndCompile) {
  frontend::ParseResult R = frontend::parseStencilProgram(R"(
grid A[128];
for (t = 0; t < 12; t++)
  for (i = 1; i < 127; i++)
    A[t+1][i] = 0.33f * (A[t][i-1] + A[t][i] + A[t][i+1]);
)");
  ASSERT_TRUE(R.ok()) << R.Error;
  // 1D: the hybrid method degenerates to pure hexagonal tiling (Sec. 6.1).
  codegen::TileSizeRequest Sizes;
  Sizes.H = 2;
  Sizes.W0 = 4;
  codegen::CompiledHybrid C = codegen::compileHybrid(R.Program, Sizes);
  EXPECT_EQ(C.schedule().inner().size(), 0u);
  EXPECT_EQ(exec::checkScheduleEquivalence(R.Program, C.scheduleKey(5)),
            "");
}

TEST(CoverageExtras, TileSelectionRejectsImpossibleBudget) {
  ir::StencilProgram P = ir::makeHeat3D(384, 128);
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  std::vector<deps::ConeBounds> Cones = deps::computeAllConeBounds(Deps);
  core::TileSizeConstraints C;
  C.SharedMemBytes = 256; // Nothing fits in 256 bytes.
  C.MaxH = 2;
  C.W0Widths = {3};
  C.InnermostWidths = {32};
  EXPECT_FALSE(core::selectTileSizes(P, Deps, Cones, C).has_value());
}

TEST(CoverageExtras, CompiledProgramsAreIndependent) {
  // Two compilations must not share mutable state: their schedule keys
  // stay usable after the compiler objects go out of scope.
  exec::ScheduleKeyIntoFn K1, K2;
  {
    codegen::TileSizeRequest S1;
    S1.H = 1;
    S1.W0 = 2;
    S1.InnerWidths = {4};
    K1 = codegen::compileHybrid(ir::makeJacobi2D(16, 4), S1).scheduleKey();
    codegen::TileSizeRequest S2;
    S2.H = 2;
    S2.W0 = 3;
    S2.InnerWidths = {8};
    K2 = codegen::compileHybrid(ir::makeJacobi2D(16, 4), S2).scheduleKey();
  }
  EXPECT_EQ(exec::checkScheduleEquivalence(ir::makeJacobi2D(16, 4), K1),
            "");
  EXPECT_EQ(exec::checkScheduleEquivalence(ir::makeJacobi2D(16, 4), K2),
            "");
}
