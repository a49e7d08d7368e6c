//===- RegisterTileTest.cpp - Register tiling extension tests -----------------===//

#include "codegen/HybridCompiler.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::codegen;

TEST(RegisterTileTest, UnitTileMatchesSlidingWindowCounts) {
  // A register tile of width 1 must reproduce the Sec. 4.3.2 group counts.
  ir::StencilProgram J = ir::makeJacobi2D();
  EXPECT_DOUBLE_EQ(sharedLoadsPerPointRegisterTiled(J, 0, 1), 3.0);
  ir::StencilProgram H = ir::makeHeat3D();
  EXPECT_DOUBLE_EQ(sharedLoadsPerPointRegisterTiled(H, 0, 1), 9.0);
  ir::StencilProgram L = ir::makeLaplacian3D();
  // 7-point: groups (ds1, ds2) in {(0,0),(0,+-1),(+-1,0)} -> 5 groups.
  EXPECT_DOUBLE_EQ(sharedLoadsPerPointRegisterTiled(L, 0, 1), 5.0);
}

TEST(RegisterTileTest, LoadsDecreaseMonotonically) {
  ir::StencilProgram P = ir::makeHeat3D();
  double Prev = 1e9;
  for (int64_t RT : {1, 2, 4, 8}) {
    double Loads = sharedLoadsPerPointRegisterTiled(P, 0, RT);
    EXPECT_LT(Loads, Prev);
    Prev = Loads;
  }
  // heat3d at rt=2: 3 groups x (3+1)/2 = 6 loads per point.
  EXPECT_DOUBLE_EQ(sharedLoadsPerPointRegisterTiled(P, 0, 2), 6.0);
  // Asymptotically one value per group per point: -> 3.
  EXPECT_NEAR(sharedLoadsPerPointRegisterTiled(P, 0, 64), 3.0, 0.2);
}
