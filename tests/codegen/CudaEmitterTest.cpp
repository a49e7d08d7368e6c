//===- CudaEmitterTest.cpp - CUDA rendering tests ------------------------------===//

#include "codegen/CudaEmitter.h"
#include "codegen/HostEmitter.h"
#include "codegen/HybridCompiler.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <sstream>

using namespace hextile;
using namespace hextile::codegen;

namespace {

CompiledHybrid compile(const ir::StencilProgram &P, int64_t H, int64_t W0,
                       std::vector<int64_t> Inner,
                       OptimizationConfig Config = {}) {
  TileSizeRequest R;
  R.H = H;
  R.W0 = W0;
  R.InnerWidths = std::move(Inner);
  return compileHybrid(P, R, Config);
}

/// The kernels \p Src defines, in definition order.
std::vector<std::string> definedKernels(const std::string &Src) {
  const std::string Def = "__global__ void ";
  std::vector<std::string> Names;
  for (size_t At = Src.find(Def); At != std::string::npos;
       At = Src.find(Def, At + 1)) {
    size_t Begin = At + Def.size();
    Names.push_back(Src.substr(Begin, Src.find('(', Begin) - Begin));
  }
  return Names;
}

/// The kernels the `<Prog>_host` driver of \p Src launches, in launch
/// order: `HT_LAUNCH_1D(name, ...)` on the host, `name<<<...>>>` in CUDA.
std::vector<std::string> launchedKernels(const std::string &Src,
                                         const std::string &Prog) {
  size_t Driver = Src.find("void " + Prog + "_host(");
  if (Driver == std::string::npos)
    return {};
  std::istringstream Body(
      Src.substr(Driver, Src.find("\n}\n", Driver) - Driver));
  const std::string HostLaunch = "HT_LAUNCH_1D(";
  std::vector<std::string> Names;
  for (std::string L; std::getline(Body, L);) {
    size_t Begin = L.find_first_not_of(' ');
    if (Begin == std::string::npos)
      continue;
    if (L.compare(Begin, HostLaunch.size(), HostLaunch) == 0) {
      Begin += HostLaunch.size();
      Names.push_back(L.substr(Begin, L.find(',', Begin) - Begin));
    } else if (size_t End = L.find("<<<"); End != std::string::npos) {
      Names.push_back(L.substr(Begin, End - Begin));
    }
  }
  return Names;
}

} // namespace

TEST(CudaEmitterTest, ThreeDimensionalKernelStructure) {
  CompiledHybrid C = compile(ir::makeHeat3D(64, 8), 2, 3, {4, 32});
  std::string Src = emitCuda(C);
  // Two sequential classical tile loops inside the kernel (S1 and S2).
  EXPECT_NE(Src.find("for (ht_int S1 = "), std::string::npos);
  EXPECT_NE(Src.find("for (ht_int S2 = "), std::string::npos);
  // Time loop over the 2h+2 = 6 local rows, with the row barrier.
  EXPECT_NE(Src.find("for (ht_int a = 0; a < 6; ++a)"), std::string::npos);
  EXPECT_NE(Src.find("__syncthreads();"), std::string::npos);
  // Threads cover each row with a blockDim-stride loop.
  EXPECT_NE(Src.find("ht_tid += (ht_int)blockDim.x"), std::string::npos);
}

TEST(CudaEmitterTest, FdtdEmitsAllFieldsAndStatements) {
  CompiledHybrid C = compile(ir::makeFdtd2D(64, 6), 2, 3, {8});
  std::string Src = emitCuda(C);
  EXPECT_NE(Src.find("float *g_ey"), std::string::npos);
  EXPECT_NE(Src.find("float *g_ex"), std::string::npos);
  EXPECT_NE(Src.find("float *g_hz"), std::string::npos);
  // Multi-statement programs dispatch on the canonical time.
  EXPECT_NE(Src.find("switch ((int)(t % 3))"), std::string::npos);
  EXPECT_NE(Src.find("case 0: { // ey"), std::string::npos);
  EXPECT_NE(Src.find("case 1: { // ex"), std::string::npos);
  EXPECT_NE(Src.find("case 2: { // hz"), std::string::npos);
}

TEST(CudaEmitterTest, ScheduleCommentMatchesFormulas) {
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 2, 3, {8});
  std::string Src = emitCuda(C);
  // The schedule header comment carries the Fig. 6 forms.
  EXPECT_NE(Src.find("floor((t + 3) / 6)"), std::string::npos);
  EXPECT_NE(Src.find("(t mod 6)"), std::string::npos);
}

TEST(CudaEmitterTest, MemoryStrategyAnnotatedAndRendered) {
  // The Sec. 4.2 staging ladder is named in the header *and* rendered:
  // staged configs declare __shared__ windows, the global-only config
  // addresses the rotating buffers directly.
  CompiledHybrid F = compile(ir::makeJacobi2D(64, 8), 2, 3, {8},
                             OptimizationConfig::level('f'));
  std::string SrcF = emitCuda(F);
  EXPECT_NE(SrcF.find("dynamic reuse"), std::string::npos);
  EXPECT_NE(SrcF.find("__shared__ float ht_s_A["), std::string::npos);
  CompiledHybrid E = compile(ir::makeJacobi2D(64, 8), 2, 3, {8},
                             OptimizationConfig::level('e'));
  EXPECT_NE(emitCuda(E).find("static reuse"), std::string::npos);
  CompiledHybrid A = compile(ir::makeJacobi2D(64, 8), 2, 3, {8},
                             OptimizationConfig::level('a'));
  std::string SrcA = emitCuda(A);
  EXPECT_NE(SrcA.find("global-memory only"), std::string::npos);
  EXPECT_EQ(SrcA.find("__shared__"), std::string::npos);
}

TEST(CudaEmitterTest, OversizedStagingWindowIsFlaggedInTheHeader) {
  // The hex flavor's degenerate inner tiles make the staging window span
  // the whole inner extent: at production sizes that exceeds any GPU's
  // per-block __shared__ budget, which nvcc would reject with an opaque
  // error. The emitted header must flag it; a tile-sized hybrid window
  // of the same compile must not be flagged.
  CompiledHybrid C = compile(ir::makeJacobi2D(3072, 16), 2, 3, {8});
  std::string Hex = emitCuda(C, EmitSchedule::Hex);
  std::string Hybrid = emitCuda(C, EmitSchedule::Hybrid);
  EXPECT_NE(Hex.find("// WARNING: staging windows need "),
            std::string::npos);
  EXPECT_EQ(Hybrid.find("// WARNING"), std::string::npos);
}

TEST(CudaEmitterTest, StagedKernelLoadsCooperativelyBeforeCompute) {
  // Config (b): the load phase is a blockDim-stride sweep over the
  // (depth x window) staging elements, synchronized before any staged
  // value is consumed, with the separate copy-out replay at the end.
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 2, 3, {8},
                             OptimizationConfig::level('b'));
  std::string Src = emitCuda(C);
  size_t Decl = Src.find("__shared__ float ht_s_A[");
  size_t Load = Src.find("// Cooperative load phase");
  size_t LoadLoop = Src.find("for (ht_int ht_ld = (ht_int)threadIdx.x;");
  size_t Barrier = Src.find("__syncthreads();", Load);
  size_t Compute = Src.find("const float ht_v0 = ht_s_A[");
  size_t CopyOut = Src.find("// Separate copy-out");
  ASSERT_NE(Decl, std::string::npos);
  ASSERT_NE(Load, std::string::npos);
  ASSERT_NE(LoadLoop, std::string::npos);
  ASSERT_NE(Barrier, std::string::npos);
  ASSERT_NE(Compute, std::string::npos);
  ASSERT_NE(CopyOut, std::string::npos);
  EXPECT_LT(Decl, Load);
  EXPECT_LT(Load, LoadLoop);
  EXPECT_LT(LoadLoop, Barrier);
  EXPECT_LT(Barrier, Compute);
  EXPECT_LT(Compute, CopyOut);
}

TEST(CudaEmitterTest, HostLoopLaunchesBothPhases) {
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 2, 3, {8});
  std::string Src = emitCuda(C);
  size_t P0 = Src.find("jacobi2d_phase0<<<");
  size_t P1 = Src.find("jacobi2d_phase1<<<");
  ASSERT_NE(P0, std::string::npos);
  ASSERT_NE(P1, std::string::npos);
  EXPECT_LT(P0, P1); // Phase 0 launches first within a time tile.
}

TEST(CudaEmitterTest, DomainGuardsClampEveryDimension) {
  // 64x64 grid, halo 1: updates guarded to [1, 63) in both dimensions.
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 1, 2, {8});
  std::string Src = emitCuda(C);
  EXPECT_NE(Src.find("s0 >= 1 && s0 < 63"), std::string::npos);
  EXPECT_NE(Src.find("s1 >= 1 && s1 < 63"), std::string::npos);
}

TEST(CudaEmitterTest, HexFlavorLeavesInnerDimensionsUntiled) {
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 2, 3, {8});
  std::string Src = emitCuda(C, EmitSchedule::Hex);
  // One degenerate inner tile: no sequential S1 loop, no skew table.
  EXPECT_NE(Src.find("const ht_int S1 = 0;"), std::string::npos);
  EXPECT_EQ(Src.find("for (ht_int S1 = "), std::string::npos);
  EXPECT_EQ(Src.find("ht_skew1"), std::string::npos);
}

TEST(CudaEmitterTest, ClassicalFlavorEmitsBandKernel) {
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 2, 3, {8});
  std::string Src = emitCuda(C, EmitSchedule::Classical);
  // Single band kernel over skewed tiles of every spatial dimension.
  EXPECT_NE(Src.find("jacobi2d_band"), std::string::npos);
  EXPECT_EQ(Src.find("_phase0"), std::string::npos);
  EXPECT_NE(Src.find("for (ht_int S0 = "), std::string::npos);
  EXPECT_NE(Src.find("ht_skew0"), std::string::npos);
  EXPECT_NE(Src.find("for (ht_int u = 0; u < 6; ++u)"), std::string::npos);
}

TEST(CudaEmitterTest, ConstantsAreExactHexFloats) {
  // 0.2f is not exactly representable in decimal: the emitted literal must
  // be the hex-float form that round-trips the bits, never a rounded
  // decimal rendering.
  CompiledHybrid C = compile(ir::makeJacobi2D(64, 8), 2, 3, {8});
  std::string Src = emitCuda(C);
  EXPECT_NE(Src.find("0x1.99999ap-3f"), std::string::npos);
  EXPECT_EQ(Src.find("0.200000"), std::string::npos);
}

TEST(CudaEmitterTest, EveryFlavorLaunchesItsKernelsAndOverlappedUsesScratch) {
  // Both targets take the kernel set and the driver from EmissionCore:
  // for every flavor, `<prog>_host` launches each kernel the unit defines,
  // in the order the unit defines them. At this tiling the staging windows
  // exceed the 48 KiB __shared__ budget (53,352 bytes per overlapped
  // block), so the hex flavor is flagged.
  CompiledHybrid C = compile(ir::makeJacobi2D(512, 16), 2, 5, {32});
  for (EmitSchedule S : {EmitSchedule::Hex, EmitSchedule::Hybrid,
                         EmitSchedule::Classical, EmitSchedule::Overlapped})
    for (bool Cuda : {true, false}) {
      std::string Src = Cuda ? emitCuda(C, S) : emitHost(C, S);
      std::vector<std::string> Defined = definedKernels(Src);
      EXPECT_FALSE(Defined.empty());
      EXPECT_EQ(launchedKernels(Src, "jacobi2d"), Defined)
          << emitScheduleName(S) << (Cuda ? " cuda" : " host");
    }
  EXPECT_NE(emitCuda(C, EmitSchedule::Hex).find("// WARNING"),
            std::string::npos);
  // The overlapped windows live across the oband -> ocopy launch
  // boundary: per-tile __device__ scratch sliced by the block index,
  // never __shared__, so the __shared__ budget does not apply.
  std::string Over = emitCuda(C, EmitSchedule::Overlapped);
  EXPECT_NE(Over.find("static __device__ float ht_sg_A["), std::string::npos);
  EXPECT_NE(Over.find("const ht_int S0 = (ht_int)blockIdx.x;"),
            std::string::npos);
  EXPECT_EQ(Over.find("__shared__"), std::string::npos);
  EXPECT_EQ(Over.find("WARNING"), std::string::npos);
}
