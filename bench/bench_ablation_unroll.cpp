//===- bench_ablation_unroll.cpp - Unrolling / register-tiling ablation ---------===//
//
// Ablates the two register-level optimizations by their shared loads per
// point: the Sec. 4.3.2 unrolling with sliding-window register reuse
// (Fig. 2), which every Table 4 rung assumes, and the paper's future-work
// register tiling along s1, which no rung renders or prices.
//
//===----------------------------------------------------------------------===//

#include "BenchSupport.h"
#include "codegen/HybridCompiler.h"
#include "ir/StencilGallery.h"

#include <cstdio>

using namespace hextile;
using namespace hextile::codegen;

int main(int argc, char **argv) {
  bool Smoke = bench::smokeMode(argc, argv);
  std::printf("Shared loads per point: naive vs unrolled (sliding window)"
              " vs register-tiled\n");
  std::printf("%-14s %7s %9s %7s %7s %7s\n", "benchmark", "naive",
              "unrolled", "rt=2", "rt=4", "rt=8");
  for (const ir::StencilProgram &P : bench::smokeSuite(Smoke)) {
    double Naive = 0, RT1 = 0, RT2 = 0, RT4 = 0, RT8 = 0;
    for (unsigned S = 0; S < P.numStmts(); ++S) {
      Naive += P.stmts()[S].numReads();
      RT1 += sharedLoadsPerPointRegisterTiled(P, S, 1);
      RT2 += sharedLoadsPerPointRegisterTiled(P, S, 2);
      RT4 += sharedLoadsPerPointRegisterTiled(P, S, 4);
      RT8 += sharedLoadsPerPointRegisterTiled(P, S, 8);
    }
    unsigned K = P.numStmts();
    std::printf("%-14s %7.1f %9.2f %7.2f %7.2f %7.2f\n", P.name().c_str(),
                Naive / K, RT1 / K, RT2 / K, RT4 / K, RT8 / K);
  }
  std::printf("\n(register tiling attacks the shared-memory bound the"
              " paper identifies as the final bottleneck of Sec. 6.2)\n");
  return 0;
}
