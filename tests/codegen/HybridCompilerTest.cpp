//===- HybridCompilerTest.cpp - Compiler driver tests -------------------------===//

#include "codegen/CudaEmitter.h"
#include "codegen/HybridCompiler.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <map>

using namespace hextile;
using namespace hextile::codegen;

namespace {

TileSizeRequest sizes(int64_t H, int64_t W0, std::vector<int64_t> Inner) {
  TileSizeRequest R;
  R.H = H;
  R.W0 = W0;
  R.InnerWidths = std::move(Inner);
  return R;
}

} // namespace

TEST(HybridCompilerTest, CompilesWithExplicitSizes) {
  CompiledHybrid C =
      compileHybrid(ir::makeJacobi2D(256, 32), sizes(2, 3, {32}));
  EXPECT_EQ(C.schedule().params().H, 2);
  EXPECT_EQ(C.schedule().params().W0, 3);
  EXPECT_EQ(C.threadsPerBlock(), 32);
  EXPECT_GT(C.slabCosts().Instances, 0);
}

TEST(HybridCompilerTest, KernelModelStructure) {
  CompiledHybrid C =
      compileHybrid(ir::makeJacobi2D(256, 32), sizes(2, 3, {32}));
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  std::vector<gpu::KernelModel> Ks = C.kernelModels(Dev);
  ASSERT_EQ(Ks.size(), 1u);
  const gpu::KernelModel &K = Ks[0];
  EXPECT_EQ(K.Launches, core::launches(C.program(), C.schedule()));
  EXPECT_EQ(K.BlocksPerLaunch,
            core::blocksPerLaunch(C.program(), C.schedule()));
  EXPECT_GT(K.SharedBytesPerBlock, 0);
  EXPECT_FALSE(K.LoadRequestRows.empty());
  EXPECT_FALSE(K.StoreRows.empty());
}

TEST(HybridCompilerTest, OptimizationLadderOrdering) {
  // On the large GPU the ladder of Sec. 6.2 must be broadly monotone:
  // (a) <= (b) <= (c) <= (d) and (f) the best of all.
  ir::StencilProgram P = ir::makeHeat3D(384, 128);
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  std::map<char, double> GF;
  for (char L : {'a', 'b', 'c', 'd', 'e', 'f'}) {
    CompiledHybrid C = compileHybrid(P, sizes(2, 7, {10, 32}),
                                     OptimizationConfig::level(L));
    GF[L] = gpu::simulate(Dev, C.kernelModels(Dev)).GFlops;
  }
  EXPECT_LT(GF['a'], GF['c']);
  EXPECT_LT(GF['b'], GF['c']);
  EXPECT_LE(GF['c'], GF['d'] * 1.05);
  EXPECT_LE(GF['e'], GF['f']);
  // The roofline hides latency perfectly once copy-out is interleaved, so
  // the (d) -> (f) step is smaller than the paper's +50% (see
  // EXPERIMENTS.md); it must at least not regress materially.
  EXPECT_GE(GF['f'], 0.95 * GF['d']);
  EXPECT_GE(GF['f'], 1.2 * GF['b']);
}

TEST(HybridCompilerTest, CounterShapesMatchTable5) {
  ir::StencilProgram P = ir::makeHeat3D(384, 128);
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  auto Counters = [&](char L) {
    CompiledHybrid C = compileHybrid(P, sizes(2, 7, {10, 32}),
                                     OptimizationConfig::level(L));
    return gpu::simulate(Dev, C.kernelModels(Dev)).Counters;
  };
  gpu::PerfCounters A = Counters('a'), B = Counters('b'),
                    D = Counters('d'), F = Counters('f');
  // Shared memory cuts global load instructions by an order of magnitude
  // (Table 5: 171e9 -> 8.7e9, a factor of ~20).
  EXPECT_GT(A.GldInst32bit / B.GldInst32bit, 10.0);
  // Alignment improves gld efficiency; reuse reaches 100%.
  EXPECT_LT(B.GldEfficiency, 0.45);
  EXPECT_GT(D.GldEfficiency, B.GldEfficiency);
  EXPECT_DOUBLE_EQ(F.GldEfficiency, 1.0);
  // L2 transactions collapse once shared memory filters re-reads.
  EXPECT_GT(A.L2ReadTransactions / B.L2ReadTransactions, 4.0);
  // Static reuse pays bank conflicts.
  EXPECT_GT(Counters('e').SharedLoadsPerRequest, 1.5);
  EXPECT_DOUBLE_EQ(F.SharedLoadsPerRequest, 1.0);
}

TEST(HybridCompilerTest, Table4And5ModelPinned) {
  // The model behind Tables 4 and 5 on their heat3d configuration, per
  // rung: the kernel model's global request/distinct/store elements and
  // shared loads/stores exactly, the simulated GFLOPS on both device
  // models and the Table 5 counters (GTX 470) to a relative 1e-12. The
  // values are the model's before the ladder became one rung letter, so
  // no refactor can move the paper's tables silently.
  struct Pin {
    char Rung;
    int64_t LoadRequest, LoadDistinct, Store, SharedLoads, SharedStores;
    double Transactions, GFlopsGtx470, GFlopsNvs5200;
    gpu::PerfCounters Counters;
  };
  const Pin Pins[] = {
      {'a', 518400, 12736, 19200, 0, 0, 1, 37.362146940531517,
       6.9905020769803343,
       {224172748800, 2297078784, 16345929600, 1, 0.59999999999999998}},
      {'b', 29376, 0, 19200, 172800, 19200, 1, 40.310075251424152,
       7.2429104078444899,
       {12703122432, 4483454976, 2615348736, 1, 0.35416666666666669}},
      {'c', 29376, 0, 19200, 172800, 19200, 1, 48.250606953447274,
       8.9101894678853384,
       {12703122432, 4483454976, 2615348736, 1, 0.35416666666666669}},
      {'d', 29376, 0, 19200, 172800, 19200, 1, 48.250606953447274,
       8.9101894678853384,
       {12703122432, 2988969984, 1868106240, 1, 0.53125}},
      {'e', 11008, 0, 19200, 172800, 19200, 2, 76.148056560575,
       14.418664779963208, {4760211456, 595026432, 595026432, 2, 1}},
      {'f', 11008, 0, 19200, 174528, 20928, 1, 89.832293522383551,
       19.269604288996682, {4760211456, 595026432, 595026432, 1, 1}},
  };
  ir::StencilProgram P = ir::makeHeat3D(384, 128);
  gpu::DeviceConfig Gtx = gpu::DeviceConfig::gtx470(),
                    Nvs = gpu::DeviceConfig::nvs5200();
  auto Elems = [](const std::vector<gpu::RowBatch> &Rows) {
    int64_t N = 0;
    for (const gpu::RowBatch &B : Rows)
      N += B.Count * B.Len;
    return N;
  };
  auto Near = [](double Got, double Want) {
    EXPECT_NEAR(Got, Want, 1e-12 * Want);
  };
  for (const Pin &W : Pins) {
    SCOPED_TRACE(std::string("rung ") + W.Rung);
    CompiledHybrid C = compileHybrid(P, sizes(2, 7, {10, 32}),
                                     OptimizationConfig::level(W.Rung));
    std::vector<gpu::KernelModel> Ks = C.kernelModels(Gtx);
    ASSERT_EQ(Ks.size(), 1u);
    EXPECT_EQ(Elems(Ks[0].LoadRequestRows), W.LoadRequest);
    EXPECT_EQ(Elems(Ks[0].LoadDistinctRows), W.LoadDistinct);
    EXPECT_EQ(Elems(Ks[0].StoreRows), W.Store);
    EXPECT_EQ(Ks[0].SharedLoadsPerSlab, W.SharedLoads);
    EXPECT_EQ(Ks[0].SharedStoresPerSlab, W.SharedStores);
    EXPECT_EQ(Ks[0].SharedTransactionsPerRequest, W.Transactions);
    gpu::PerfResult R = gpu::simulate(Gtx, Ks);
    Near(R.GFlops, W.GFlopsGtx470);
    Near(gpu::simulate(Nvs, C.kernelModels(Nvs)).GFlops, W.GFlopsNvs5200);
    Near(R.Counters.GldInst32bit, W.Counters.GldInst32bit);
    Near(R.Counters.DramReadTransactions, W.Counters.DramReadTransactions);
    Near(R.Counters.L2ReadTransactions, W.Counters.L2ReadTransactions);
    Near(R.Counters.SharedLoadsPerRequest, W.Counters.SharedLoadsPerRequest);
    Near(R.Counters.GldEfficiency, W.Counters.GldEfficiency);
  }
}

TEST(HybridCompilerTest, AutomaticTileSelection) {
  TileSizeRequest R;
  R.Constraints.MaxH = 3;
  R.Constraints.W0Widths = {3, 5, 7};
  R.Constraints.InnermostWidths = {32};
  CompiledHybrid C = compileHybrid(ir::makeJacobi2D(512, 64), R);
  EXPECT_TRUE(C.schedule().params().isValid());
  EXPECT_LE(C.slabCosts().SharedBytes, 48 * 1024);
}

TEST(HybridCompilerTest, CudaEmissionStructure) {
  CompiledHybrid C =
      compileHybrid(ir::makeJacobi2D(256, 32), sizes(2, 3, {32}));
  std::string Src = emitCuda(C);
  EXPECT_NE(Src.find("__global__ void jacobi2d_phase0"), std::string::npos);
  EXPECT_NE(Src.find("__global__ void jacobi2d_phase1"), std::string::npos);
  EXPECT_NE(Src.find("blockIdx.x"), std::string::npos);
  EXPECT_NE(Src.find("__syncthreads()"), std::string::npos);
  EXPECT_NE(Src.find("jacobi2d_phase0<<<"), std::string::npos);
  // The executable rendering guards every update against the domain.
  EXPECT_NE(Src.find("s1 >= 1 && s1 < "), std::string::npos);
}

TEST(HybridCompilerTest, GlobalOnlyConfigHasNoSharedMemory) {
  CompiledHybrid C = compileHybrid(ir::makeJacobi2D(256, 32),
                                   sizes(2, 3, {32}),
                                   OptimizationConfig::level('a'));
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();
  std::vector<gpu::KernelModel> Ks = C.kernelModels(Dev);
  EXPECT_EQ(Ks[0].SharedBytesPerBlock, 0);
  EXPECT_EQ(Ks[0].SharedLoadsPerSlab, 0);
  std::string Src = emitCuda(C);
  EXPECT_EQ(Src.find("__shared__"), std::string::npos);
}
