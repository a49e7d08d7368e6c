//===- quickstart.cpp - hextile in five minutes ---------------------------===//
//
// The shortest end-to-end tour of the public API: build the Fig. 1 Jacobi
// 2D stencil, analyze its dependences, compute a hybrid hexagonal/classical
// schedule, validate it by bit-exact execution, inspect the generated CUDA,
// and estimate GPU performance.
//
// Run:  ./quickstart   (exits 1 when the bit-exact validation fails)
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"
#include "codegen/HybridCompiler.h"
#include "deps/DeltaBounds.h"
#include "ir/StencilGallery.h"

#include <cstdio>

using namespace hextile;

int main() {
  // 1. The input program (Fig. 1). Gallery builders cover the paper's
  //    benchmarks; StencilProgram/StencilStmt let you define your own.
  ir::StencilProgram P = ir::makeJacobi2D(/*N=*/512, /*T=*/64);
  std::printf("== input ==\n%s\n", P.str().c_str());

  // 2. Dependence analysis and cone slopes (Sec. 3.3.2).
  deps::DependenceInfo Deps = deps::analyzeDependences(P);
  std::printf("== dependences ==\n%s\n\n", Deps.str().c_str());
  for (unsigned D = 0; D < P.spaceRank(); ++D)
    std::printf("dimension s%u: %s\n", D,
                deps::computeConeBounds(Deps, D).str().c_str());

  // 3. Compile: hexagonal tiling on (t, s0), classical tiling on s1.
  codegen::TileSizeRequest Sizes;
  Sizes.H = 2;
  Sizes.W0 = 3;
  Sizes.InnerWidths = {32};
  codegen::CompiledHybrid C = codegen::compileHybrid(P, Sizes);
  std::printf("\n== hexagonal tile (%s) ==\n%s\n",
              C.schedule().params().str().c_str(),
              C.schedule().hex().hexagon().ascii().c_str());
  std::printf("== hybrid schedule ==\n%s\n", C.schedule().str().c_str());

  // 4. Validate: execute in tile order (blocks pseudo-randomly serialized)
  //    and compare bit-exactly with the reference execution.
  std::string Check = exec::checkScheduleEquivalence(
      ir::makeJacobi2D(64, 12), codegen::compileHybrid(
                                    ir::makeJacobi2D(64, 12), Sizes)
                                    .scheduleKey(/*BlockPermSeed=*/42));
  std::printf("== validation ==\nbit-exact vs reference: %s\n\n",
              Check.empty() ? "yes" : Check.c_str());

  // 5. Inspect the CUDA rendering (host loop + two kernels, Sec. 4.1).
  std::string Cuda = codegen::emitCuda(C);
  std::printf("== generated CUDA (first lines) ==\n%.600s...\n\n",
              Cuda.c_str());

  // 6. Estimate performance on the two paper GPUs.
  for (const gpu::DeviceConfig &Dev :
       {gpu::DeviceConfig::gtx470(), gpu::DeviceConfig::nvs5200()}) {
    gpu::PerfResult R = gpu::simulate(Dev, C.kernelModels(Dev));
    std::printf("%-10s %6.2f GStencils/s, %6.1f GFLOPS, gld efficiency"
                " %3.0f%%\n",
                Dev.Name.c_str(), R.GStencilsPerSec, R.GFlops,
                R.Counters.GldEfficiency * 100);
  }
  return Check.empty() ? 0 : 1;
}
