//===- GridStorageTest.cpp - Rotating-buffer storage tests -------------------===//

#include "exec/GridStorage.h"
#include "exec/PartitionedGridStorage.h"
#include "gpu/DeviceTopology.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::exec;

namespace {

gpu::DeviceTopology chainOf(unsigned N) {
  return gpu::DeviceTopology::uniform(gpu::DeviceConfig::gtx470(), N);
}

} // namespace

TEST(GridStorageTest, DepthsFollowReadOffsets) {
  GridStorage S2(ir::makeJacobi2D(16, 2));
  EXPECT_EQ(S2.depth(0), 2u); // Reads one step back: double buffer.
  GridStorage S3(ir::makeSkewedExample1D(32, 2));
  EXPECT_EQ(S3.depth(0), 3u); // Reads two steps back: triple buffer.
}

TEST(GridStorageTest, RotatingSlots) {
  ir::StencilProgram P = ir::makeJacobi2D(8, 2);
  GridStorage S(P);
  int64_t C[2] = {3, 4};
  S.at(0, 0, C) = 1.5f;
  S.at(0, 1, C) = 2.5f;
  // Slot t mod 2: step 2 aliases step 0, step -1 aliases step 1.
  EXPECT_FLOAT_EQ(S.at(0, 2, C), 1.5f);
  EXPECT_FLOAT_EQ(S.at(0, -1, C), 2.5f);
  EXPECT_FLOAT_EQ(S.at(0, 3, C), 2.5f);
}

TEST(GridStorageTest, AllSlotsStartIdentical) {
  ir::StencilProgram P = ir::makeSkewedExample1D(32, 2);
  GridStorage S(P);
  int64_t C[1] = {7};
  EXPECT_EQ(S.at(0, 0, C), S.at(0, 1, C));
  EXPECT_EQ(S.at(0, 1, C), S.at(0, 2, C));
}

TEST(GridStorageTest, DefaultInitIsDeterministicAndVaried) {
  int64_t A[2] = {1, 2}, B[2] = {2, 1};
  EXPECT_EQ(defaultInit(0, A), defaultInit(0, A));
  EXPECT_NE(defaultInit(0, A), defaultInit(0, B));
  EXPECT_NE(defaultInit(0, A), defaultInit(1, A));
  EXPECT_GE(defaultInit(0, A), 0.0f);
  EXPECT_LT(defaultInit(0, A), 1.0f);
}

TEST(GridStorageTest, CompareAtStepDetectsMismatch) {
  ir::StencilProgram P = ir::makeJacobi2D(8, 2);
  GridStorage A(P), B(P);
  EXPECT_EQ(compareStoragesAtStep(A, B, 1), "");
  int64_t C[2] = {3, 3};
  B.at(0, 1, C) = 99.0f;
  std::string Diff = compareStoragesAtStep(A, B, 1);
  EXPECT_NE(Diff.find("field 0"), std::string::npos);
  EXPECT_NE(Diff.find("(3, 3)"), std::string::npos);
  // The other slot still matches.
  EXPECT_EQ(compareStoragesAtStep(A, B, 0), "");
}

TEST(GridStorageTest, InBounds) {
  GridStorage S(ir::makeJacobi2D(8, 2));
  int64_t In[2] = {0, 7}, Out[2] = {0, 8}, Neg[2] = {-1, 0};
  EXPECT_TRUE(S.inBounds(In));
  EXPECT_FALSE(S.inBounds(Out));
  EXPECT_FALSE(S.inBounds(Neg));
}

// --- Partitioned-storage edge cases the slab decomposition makes
// --- load-bearing ----------------------------------------------------------

TEST(GridStorageTest, PartitionedReadDepth3KeepsRotationSemantics) {
  // skewed1d reads two steps back: triple-buffered fields, so every device
  // slab (and its halo rings) must carry three rotating copies with the
  // same slot-aliasing rules as the flat storage.
  ir::StencilProgram P = ir::makeSkewedExample1D(32, 2);
  PartitionedGridStorage S(P, chainOf(2));
  EXPECT_EQ(S.depth(0), 3u);
  int64_t C[1] = {7};
  S.write(0, 0, C, 1.5f);
  S.write(0, 1, C, 2.5f);
  S.write(0, 2, C, 3.5f);
  // Slot t mod 3: step 3 aliases 0, step -1 aliases 2.
  EXPECT_FLOAT_EQ(S.read(0, 3, C), 1.5f);
  EXPECT_FLOAT_EQ(S.read(0, -1, C), 3.5f);
  EXPECT_FLOAT_EQ(S.read(0, 4, C), 2.5f);
}

TEST(GridStorageTest, PartitionedMatchesFlatEverywhereAfterGlobalWrites) {
  // The coherent write-through path: global writes through the
  // FieldStorage interface must leave flat and partitioned storages
  // bit-identical at every cell and slot -- including cells inside halo
  // rings, where the partitioned storage updates several replicas.
  ir::StencilProgram P = ir::makeJacobi2D(16, 3);
  GridStorage Flat(P);
  PartitionedGridStorage Parts(P, chainOf(4));
  for (int64_t I = 0; I < 16; ++I)
    for (int64_t J = 0; J < 16; ++J) {
      int64_t C[2] = {I, J};
      float V = static_cast<float>(I * 100 + J);
      Flat.write(0, I % 2, C, V);
      Parts.write(0, I % 2, C, V);
    }
  for (int64_t T = 0; T < 2; ++T)
    EXPECT_EQ(compareStoragesAtStep(Flat, Parts, T), "") << "step " << T;
  // Device-scoped reads of replicated cells see the written value too.
  int64_t AtCut[2] = {8, 3}; // Owned by device 2, replicated by device 1.
  EXPECT_EQ(Parts.ownerOf(8), 2u);
  EXPECT_FLOAT_EQ(Parts.readOn(1, 0, 0, AtCut), 803.0f);
  EXPECT_FLOAT_EQ(Parts.readOn(2, 0, 0, AtCut), 803.0f);
}

TEST(GridStorageTest, PartitionedExtentSmallerThanSlabFallsBack) {
  // A 6-cell grid cannot feed 4 devices once the halo floor (skewed1d
  // needs 2-wide slabs) is applied: the decomposition falls back to the
  // largest prefix that fits instead of failing.
  ir::StencilProgram P = ir::makeSkewedExample1D(6, 2);
  PartitionedGridStorage S(P, chainOf(4));
  EXPECT_EQ(S.requestedDevices(), 4u);
  EXPECT_EQ(S.numDevices(), 3u); // floor(6 / 2).
  // Degenerate extreme: a grid narrower than one halo still works on the
  // single surviving device (no neighbors, no exchange).
  ir::StencilProgram Tiny = ir::makeJacobi1D(3, 1);
  PartitionedGridStorage S1(Tiny, chainOf(5));
  EXPECT_EQ(S1.numDevices(), 3u);
  ir::StencilProgram Tiniest = ir::makeSkewedExample1D(5, 1);
  PartitionedGridStorage S2(Tiniest, chainOf(5));
  EXPECT_EQ(S2.numDevices(), 2u);
}

TEST(GridStorageTest, PartitionedNeverUpdatedBoundaryReadsConsistently) {
  // Boundary cells outside the update domain are never written; every
  // device replica and every rotating slot must agree with the flat
  // storage at any time offset, from the same seeded initializer.
  Initializer Init = [](unsigned F, std::span<const int64_t> C) {
    return static_cast<float>(F + 1) * 0.25f +
           static_cast<float>(C[0] * 31 + C[1]);
  };
  ir::StencilProgram P = ir::makeHeat2D(12, 2);
  GridStorage Flat(P, Init);
  PartitionedGridStorage Parts(P, chainOf(3), Init);
  for (int64_t T = -1; T <= 2; ++T)
    EXPECT_EQ(compareStoragesAtStep(Flat, Parts, T), "") << "offset " << T;
  // A corner cell, read as each device allowed to see it.
  int64_t Corner[2] = {0, 0};
  EXPECT_FLOAT_EQ(Parts.readOn(0, 0, 5, Corner), Flat.at(0, 5, Corner));
}

TEST(GridStorageTest, RowRangesShareTheWholeGridLayout) {
  // One layout over any rows of dimension 0: a row range reads what the
  // whole grid reads, copyRows moves exactly the rows asked for between
  // storages holding different ranges, and field() is the [slot][row-major
  // grid] buffer the emitted entry point indexes (ht_fields[F]).
  ir::StencilProgram P = ir::makeFdtd2D(8, 2);
  GridStorage Whole(P), Rows(P, defaultInit, 2, 6), Other(P, {}, 3, 99);
  EXPECT_EQ(Rows.rowLo(), 2);
  EXPECT_EQ(Rows.rowHi(), 6);
  EXPECT_EQ(Other.rowHi(), 8); // Clipped to the grid.
  auto EachCell = [&](int64_t Lo, int64_t Hi, const auto &Fn) {
    for (int64_t I = Lo; I < Hi; ++I)
      for (int64_t J = 0; J < 8; ++J)
        for (unsigned F = 0; F < P.fields().size(); ++F)
          for (unsigned S = 0; S < P.bufferDepth(F); ++S) {
            int64_t C[2] = {I, J};
            Fn(F, S, std::span<const int64_t>(C));
          }
  };
  auto Distinct = [](unsigned F, unsigned S, std::span<const int64_t> C) {
    return static_cast<float>(F * 1000 + S * 100 + C[0] * 10 + C[1]);
  };

  EachCell(2, 6, [&](unsigned F, unsigned S, std::span<const int64_t> C) {
    EXPECT_EQ(Rows.at(F, S, C), Whole.at(F, S, C)) << F << "/" << S;
  });

  EachCell(2, 6, [&](unsigned F, unsigned S, std::span<const int64_t> C) {
    Rows.at(F, S, C) = Distinct(F, S, C);
  });
  Other.copyRows(Rows, 3, 5);
  EachCell(3, 8, [&](unsigned F, unsigned S, std::span<const int64_t> C) {
    EXPECT_EQ(Other.at(F, S, C), C[0] < 5 ? Distinct(F, S, C) : 0.0f)
        << "row " << C[0] << " field " << F << " slot " << S;
  });

  EachCell(0, 8, [&](unsigned F, unsigned S, std::span<const int64_t> C) {
    Whole.at(F, S, C) = Distinct(F, S, C);
  });
  const int64_t PointsPerCopy = 8 * 8;
  for (unsigned F = 0; F < P.fields().size(); ++F)
    EXPECT_EQ(Whole.field(F).size(),
              static_cast<size_t>(P.bufferDepth(F) * PointsPerCopy));
  EachCell(0, 8, [&](unsigned F, unsigned S, std::span<const int64_t> C) {
    EXPECT_EQ(Whole.field(F)[S * PointsPerCopy + Whole.rowMajor(C)],
              Whole.at(F, S, C));
  });
}
