//===- bench_table5_counters.cpp - Table 5 reproduction ------------------------===//
//
// Regenerates Table 5: the performance counters of the (a)-(f)
// configurations of Sec. 6.2 for heat 3D on the GTX 470 model, in units of
// 1e9 events: 32-bit global load instructions, DRAM read transactions,
// L2 read transactions, shared loads per request and global load
// efficiency.
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
  ir::StencilProgram P =
      Smoke ? ir::makeHeat3D(64, 16) : ir::makeHeat3D(384, 128);
  TileSizeRequest Sizes;
  Sizes.H = 2;
  Sizes.W0 = 7;
  Sizes.InnerWidths = {10, 32};
  gpu::DeviceConfig Dev = gpu::DeviceConfig::gtx470();

  std::printf("Table 5: Performance counters, heat 3D on GTX 470 "
              "(units of 1e9 events)\n");
  std::printf("%-5s %14s %14s %14s %16s %10s\n", "", "gld inst 32b",
              "dram read tx", "l2 read tx", "shld per request",
              "gld eff");
  for (char L : bench::smokeOptLevels(Smoke)) {
    CompiledHybrid C = compileHybrid(P, Sizes, OptimizationConfig::level(L));
    gpu::PerfCounters K = gpu::simulate(Dev, C.kernelModels(Dev)).Counters;
    char Shld[16] = "n/a";
    if (C.config().useSharedMemory())
      std::snprintf(Shld, sizeof(Shld), "%.1f", K.SharedLoadsPerRequest);
    std::printf("(%c)   %14.1f %14.2f %14.2f %16s %9.0f%%\n", L,
                K.GldInst32bit / 1e9, K.DramReadTransactions / 1e9,
                K.L2ReadTransactions / 1e9, Shld,
                K.GldEfficiency * 100.0);
  }
  std::printf("\n(cf. paper: gld inst drops ~20x with shared memory;\n"
              " efficiency 54%% -> 30%% -> ~56%% -> 100%%; static reuse"
              " pays ~2x bank conflicts)\n");
  return 0;
}
