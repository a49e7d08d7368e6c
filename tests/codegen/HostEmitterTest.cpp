//===- HostEmitterTest.cpp - Host (CPU shim) rendering tests ------------------===//
//
// Structure, golden-snapshot and regression tests for the HostEmitter
// target, covering both ends of the Sec. 4.2 ladder: the global-direct
// baseline (config (a)) and a staged kernel (config (b): shared-memory
// window, cooperative load phase, separate copy-out). The golden literals
// are re-baselined like CudaEmitterGoldenTest: copy the "actual" text from
// the failure output when drift is intended.
//
//===----------------------------------------------------------------------===//

#include "codegen/CudaEmitter.h"
#include "codegen/HostEmitter.h"
#include "codegen/HybridCompiler.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <set>
#include <sstream>

using namespace hextile;
using namespace hextile::codegen;

namespace {

/// Number of (non-overlapping) occurrences of \p Needle in \p Hay.
size_t countOf(const std::string &Hay, const std::string &Needle) {
  size_t N = 0;
  for (size_t At = Hay.find(Needle); At != std::string::npos;
       At = Hay.find(Needle, At + Needle.size()))
    ++N;
  return N;
}

CompiledHybrid compile(const ir::StencilProgram &P, int64_t H, int64_t W0,
                       std::vector<int64_t> Inner,
                       OptimizationConfig Config = {}) {
  TileSizeRequest R;
  R.H = H;
  R.W0 = W0;
  R.InnerWidths = std::move(Inner);
  return compileHybrid(P, R, Config);
}

/// The snapshot subject mirrors CudaEmitterGoldenTest: jacobi 1D, h=1,
/// w0=2, hybrid flavor, rendered at ladder rung \p Level.
std::string emitSnapshotSubject(char Level) {
  TileSizeRequest R;
  R.H = 1;
  R.W0 = 2;
  CompiledHybrid C = compileHybrid(ir::makeJacobi1D(32, 8), R,
                                   OptimizationConfig::level(Level));
  return emitHost(C);
}

/// Ladder rung (a): global-direct, no staging.
constexpr const char *GoldenHostBaseline = R"golden(// jacobi1d: hybrid tiling, host (CPU shim) rendering
// tile: h=1, w0=2, delta0=1, delta1=1
// memory strategy (Sec. 4.2 ladder): global-memory only
// (global-direct: kernels address the rotating buffers directly)
#include "cuda_shim.h"

// Hexagon row b-ranges per local time a (empty rows have lo > hi).
HT_TABLE ht_row_lo[4] = {1, 0, 0, 1};
HT_TABLE ht_row_hi[4] = {3, 4, 4, 3};

__global__ void jacobi1d_phase0(ht_int ht_block, float *g_A, ht_int TT, ht_int S0lo) {
  const ht_int S0 = S0lo + ht_block;
  const ht_int t0 = TT * 4 + (-2);
  const ht_int s0_0 = S0 * 8 - TT * (0) + (-4);
  for (ht_int a = 0; a < 4; ++a) {
    const ht_int t = t0 + a;
    const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;
    if (t >= 0 && t < 8 && ht_nb > 0) {
      const ht_int ht_run = s0_0 + ht_row_lo[a];
      const ht_int s0 = ht_run > 1 ? ht_run : 1;
      const ht_int ht_n = (ht_run + ht_nb < 31 ? ht_run + ht_nb : 31) - s0;
      if (ht_n > 0) {
        HT_FOR_THREADS(ht_row, 1) {
          const ht_int ht_step = t;
          // jacobi
          const ht_int ht_b0 = ht_emod(ht_step + (-1), 2) * 32 + (s0 + (-1));
          ht_check_run(g_A, ht_b0, 2 + ht_n, 64, "g_A");
          const ht_int ht_b1 = ht_emod(ht_step, 2) * 32 + s0;
          ht_check_run(g_A, ht_b1, ht_n, 64, "g_A");
          for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
            const float ht_v0 = g_A[ht_b0 + ht_i];
            const float ht_v1 = g_A[ht_b0 + (1) + ht_i];
            const float ht_v2 = g_A[ht_b0 + (2) + ht_i];
            g_A[ht_b1 + ht_i] = (0x1.555556p-2f * ((ht_v0 + ht_v1) + ht_v2));
          }
        }
      }
    }
    __syncthreads();
  }
}

__global__ void jacobi1d_phase1(ht_int ht_block, float *g_A, ht_int TT, ht_int S0lo) {
  const ht_int S0 = S0lo + ht_block;
  const ht_int t0 = TT * 4 + (0);
  const ht_int s0_0 = S0 * 8 - TT * (0) + (0);
  for (ht_int a = 0; a < 4; ++a) {
    const ht_int t = t0 + a;
    const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;
    if (t >= 0 && t < 8 && ht_nb > 0) {
      const ht_int ht_run = s0_0 + ht_row_lo[a];
      const ht_int s0 = ht_run > 1 ? ht_run : 1;
      const ht_int ht_n = (ht_run + ht_nb < 31 ? ht_run + ht_nb : 31) - s0;
      if (ht_n > 0) {
        HT_FOR_THREADS(ht_row, 1) {
          const ht_int ht_step = t;
          // jacobi
          const ht_int ht_b0 = ht_emod(ht_step + (-1), 2) * 32 + (s0 + (-1));
          ht_check_run(g_A, ht_b0, 2 + ht_n, 64, "g_A");
          const ht_int ht_b1 = ht_emod(ht_step, 2) * 32 + s0;
          ht_check_run(g_A, ht_b1, ht_n, 64, "g_A");
          for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
            const float ht_v0 = g_A[ht_b0 + ht_i];
            const float ht_v1 = g_A[ht_b0 + (1) + ht_i];
            const float ht_v2 = g_A[ht_b0 + (2) + ht_i];
            g_A[ht_b1 + ht_i] = (0x1.555556p-2f * ((ht_v0 + ht_v1) + ht_v2));
          }
        }
      }
    }
    __syncthreads();
  }
}

static void jacobi1d_host(float *g_A) {
  for (ht_int TT = 0; TT <= 2; ++TT) {
    if (TT >= 0 && TT <= 2) {
      const ht_int ht_s0lo = ht_fdiv(8 + TT * (0), 8);
      const ht_int ht_s0hi = ht_fdiv(34 + TT * (0), 8);
      if (ht_s0hi >= ht_s0lo) {
        HT_LAUNCH_1D(jacobi1d_phase0, ht_s0hi - ht_s0lo + 1, g_A, TT, ht_s0lo);
      }
    }
    if (TT >= 0 && TT <= 1) {
      const ht_int ht_s0lo = ht_fdiv(4 + TT * (0), 8);
      const ht_int ht_s0hi = ht_fdiv(30 + TT * (0), 8);
      if (ht_s0hi >= ht_s0lo) {
        HT_LAUNCH_1D(jacobi1d_phase1, ht_s0hi - ht_s0lo + 1, g_A, TT, ht_s0lo);
      }
    }
  }
}

extern "C" void jacobi1d_run(float **ht_fields) {
  jacobi1d_host(ht_fields[0]);
}
)golden";

/// Ladder rung (b): shared-memory staging window, cooperative load phase,
/// separate copy-out.
constexpr const char *GoldenHostStaged = R"golden(// jacobi1d: hybrid tiling, host (CPU shim) rendering
// tile: h=1, w0=2, delta0=1, delta1=1
// memory strategy (Sec. 4.2 ladder): shared memory
// (staged: cooperative load into a per-tile window, separate copy-out)
#include "cuda_shim.h"

// Hexagon row b-ranges per local time a (empty rows have lo > hi).
HT_TABLE ht_row_lo[4] = {1, 0, 0, 1};
HT_TABLE ht_row_hi[4] = {3, 4, 4, 3};

__global__ void jacobi1d_phase0(ht_int ht_block, float *g_A, ht_int TT, ht_int S0lo) {
  const ht_int S0 = S0lo + ht_block;
  // Sec. 4.2 staging: per-tile 7 window per rotating copy.
  HT_SHARED(ht_s_A, 14);
  const ht_int t0 = TT * 4 + (-2);
  const ht_int s0_0 = S0 * 8 - TT * (0) + (-4);
  const ht_int ht_wb0 = s0_0 + (-1);
  // Cooperative load phase: global -> staging window.
  const ht_int ht_run_lo = ht_wb0 > 0 ? ht_wb0 : 0;
  const ht_int ht_run_hi = ht_wb0 + 7 < 32 ? ht_wb0 + 7 : 32;
  HT_FOR_THREADS(ht_ld, 2) {
    ht_int ht_r = ht_ld;
    HT_COPY_RUN(ht_s_A, ht_r * 7 + (ht_run_lo - ht_wb0), 14, g_A, ht_r * 32 + ht_run_lo, 64, ht_run_hi - ht_run_lo);
  }
  __syncthreads();
  for (ht_int a = 0; a < 4; ++a) {
    const ht_int t = t0 + a;
    const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;
    if (t >= 0 && t < 8 && ht_nb > 0) {
      const ht_int ht_run = s0_0 + ht_row_lo[a];
      const ht_int s0 = ht_run > 1 ? ht_run : 1;
      const ht_int ht_n = (ht_run + ht_nb < 31 ? ht_run + ht_nb : 31) - s0;
      if (ht_n > 0) {
        HT_FOR_THREADS(ht_row, 1) {
          const ht_int ht_step = t;
          // jacobi
          const ht_int ht_b0 = ht_emod(ht_step + (-1), 2) * 7 + (s0 + (-1) - ht_wb0);
          ht_check_run(ht_s_A, ht_b0, 2 + ht_n, 14, "ht_s_A");
          const ht_int ht_b1 = ht_emod(ht_step, 2) * 7 + (s0 - ht_wb0);
          ht_check_run(ht_s_A, ht_b1, ht_n, 14, "ht_s_A");
          for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
            const float ht_v0 = ht_s_A[ht_b0 + ht_i];
            const float ht_v1 = ht_s_A[ht_b0 + (1) + ht_i];
            const float ht_v2 = ht_s_A[ht_b0 + (2) + ht_i];
            const float ht_out = (0x1.555556p-2f * ((ht_v0 + ht_v1) + ht_v2));
            ht_s_A[ht_b1 + ht_i] = ht_out;
          }
        }
      }
    }
    __syncthreads();
  }
  // Separate copy-out: staged results -> global (interleaving off).
  for (ht_int a = 0; a < 4; ++a) {
    const ht_int t = t0 + a;
    const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;
    if (t >= 0 && t < 8 && ht_nb > 0) {
      const ht_int ht_run = s0_0 + ht_row_lo[a];
      const ht_int s0 = ht_run > 1 ? ht_run : 1;
      const ht_int ht_n = (ht_run + ht_nb < 31 ? ht_run + ht_nb : 31) - s0;
      if (ht_n > 0) {
        HT_FOR_THREADS(ht_row, 1) {
          const ht_int ht_step = t;
          // jacobi
          const ht_int ht_b0 = ht_emod(ht_step, 2) * 7 + (s0 - ht_wb0);
          ht_check_run(ht_s_A, ht_b0, ht_n, 14, "ht_s_A");
          const ht_int ht_b1 = ht_emod(ht_step, 2) * 32 + s0;
          ht_check_run(g_A, ht_b1, ht_n, 64, "g_A");
          for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
            g_A[ht_b1 + ht_i] = ht_s_A[ht_b0 + ht_i];
          }
        }
      }
    }
    __syncthreads();
  }
}

__global__ void jacobi1d_phase1(ht_int ht_block, float *g_A, ht_int TT, ht_int S0lo) {
  const ht_int S0 = S0lo + ht_block;
  // Sec. 4.2 staging: per-tile 7 window per rotating copy.
  HT_SHARED(ht_s_A, 14);
  const ht_int t0 = TT * 4 + (0);
  const ht_int s0_0 = S0 * 8 - TT * (0) + (0);
  const ht_int ht_wb0 = s0_0 + (-1);
  // Cooperative load phase: global -> staging window.
  const ht_int ht_run_lo = ht_wb0 > 0 ? ht_wb0 : 0;
  const ht_int ht_run_hi = ht_wb0 + 7 < 32 ? ht_wb0 + 7 : 32;
  HT_FOR_THREADS(ht_ld, 2) {
    ht_int ht_r = ht_ld;
    HT_COPY_RUN(ht_s_A, ht_r * 7 + (ht_run_lo - ht_wb0), 14, g_A, ht_r * 32 + ht_run_lo, 64, ht_run_hi - ht_run_lo);
  }
  __syncthreads();
  for (ht_int a = 0; a < 4; ++a) {
    const ht_int t = t0 + a;
    const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;
    if (t >= 0 && t < 8 && ht_nb > 0) {
      const ht_int ht_run = s0_0 + ht_row_lo[a];
      const ht_int s0 = ht_run > 1 ? ht_run : 1;
      const ht_int ht_n = (ht_run + ht_nb < 31 ? ht_run + ht_nb : 31) - s0;
      if (ht_n > 0) {
        HT_FOR_THREADS(ht_row, 1) {
          const ht_int ht_step = t;
          // jacobi
          const ht_int ht_b0 = ht_emod(ht_step + (-1), 2) * 7 + (s0 + (-1) - ht_wb0);
          ht_check_run(ht_s_A, ht_b0, 2 + ht_n, 14, "ht_s_A");
          const ht_int ht_b1 = ht_emod(ht_step, 2) * 7 + (s0 - ht_wb0);
          ht_check_run(ht_s_A, ht_b1, ht_n, 14, "ht_s_A");
          for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
            const float ht_v0 = ht_s_A[ht_b0 + ht_i];
            const float ht_v1 = ht_s_A[ht_b0 + (1) + ht_i];
            const float ht_v2 = ht_s_A[ht_b0 + (2) + ht_i];
            const float ht_out = (0x1.555556p-2f * ((ht_v0 + ht_v1) + ht_v2));
            ht_s_A[ht_b1 + ht_i] = ht_out;
          }
        }
      }
    }
    __syncthreads();
  }
  // Separate copy-out: staged results -> global (interleaving off).
  for (ht_int a = 0; a < 4; ++a) {
    const ht_int t = t0 + a;
    const ht_int ht_nb = ht_row_hi[a] - ht_row_lo[a] + 1;
    if (t >= 0 && t < 8 && ht_nb > 0) {
      const ht_int ht_run = s0_0 + ht_row_lo[a];
      const ht_int s0 = ht_run > 1 ? ht_run : 1;
      const ht_int ht_n = (ht_run + ht_nb < 31 ? ht_run + ht_nb : 31) - s0;
      if (ht_n > 0) {
        HT_FOR_THREADS(ht_row, 1) {
          const ht_int ht_step = t;
          // jacobi
          const ht_int ht_b0 = ht_emod(ht_step, 2) * 7 + (s0 - ht_wb0);
          ht_check_run(ht_s_A, ht_b0, ht_n, 14, "ht_s_A");
          const ht_int ht_b1 = ht_emod(ht_step, 2) * 32 + s0;
          ht_check_run(g_A, ht_b1, ht_n, 64, "g_A");
          for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
            g_A[ht_b1 + ht_i] = ht_s_A[ht_b0 + ht_i];
          }
        }
      }
    }
    __syncthreads();
  }
}

static void jacobi1d_host(float *g_A) {
  for (ht_int TT = 0; TT <= 2; ++TT) {
    if (TT >= 0 && TT <= 2) {
      const ht_int ht_s0lo = ht_fdiv(8 + TT * (0), 8);
      const ht_int ht_s0hi = ht_fdiv(34 + TT * (0), 8);
      if (ht_s0hi >= ht_s0lo) {
        HT_LAUNCH_1D(jacobi1d_phase0, ht_s0hi - ht_s0lo + 1, g_A, TT, ht_s0lo);
      }
    }
    if (TT >= 0 && TT <= 1) {
      const ht_int ht_s0lo = ht_fdiv(4 + TT * (0), 8);
      const ht_int ht_s0hi = ht_fdiv(30 + TT * (0), 8);
      if (ht_s0hi >= ht_s0lo) {
        HT_LAUNCH_1D(jacobi1d_phase1, ht_s0hi - ht_s0lo + 1, g_A, TT, ht_s0lo);
      }
    }
  }
}

extern "C" void jacobi1d_run(float **ht_fields) {
  jacobi1d_host(ht_fields[0]);
}
)golden";

} // namespace

TEST(HostEmitterGoldenTest, Jacobi1DBaselineSnapshotIsStable) {
  EXPECT_EQ(emitSnapshotSubject('a'), GoldenHostBaseline)
      << "Emitted host C++ drifted from the golden snapshot. If the change "
         "is intended, replace the GoldenHostBaseline literal with the "
         "actual text above.";
}

TEST(HostEmitterGoldenTest, Jacobi1DStagedSnapshotIsStable) {
  EXPECT_EQ(emitSnapshotSubject('b'), GoldenHostStaged)
      << "Emitted staged host C++ drifted from the golden snapshot. If the "
         "change is intended, replace the GoldenHostStaged literal with "
         "the actual text above.";
}

TEST(HostEmitterGoldenTest, EmissionIsDeterministic) {
  EXPECT_EQ(emitSnapshotSubject('d'), emitSnapshotSubject('d'));
}

TEST(HostEmitterTest, UnitIncludesShimAndExportsEntry) {
  ir::StencilProgram P = ir::makeJacobi2D(64, 8);
  CompiledHybrid C = compile(P, 2, 3, {8});
  std::string Src = emitHost(C);
  EXPECT_NE(Src.find("#include \"cuda_shim.h\""), std::string::npos);
  EXPECT_NE(Src.find("extern \"C\" void jacobi2d_run(float **ht_fields)"),
            std::string::npos);
  EXPECT_EQ(hostEntryName(P), "jacobi2d_run");
}

TEST(HostEmitterTest, ShimDefinesTheExecutionModel) {
  std::string Shim = hostShimSource();
  // The CUDA surface the emitted units rely on.
  EXPECT_NE(Shim.find("#define HT_LAUNCH_1D"), std::string::npos);
  EXPECT_NE(Shim.find("#define HT_FOR_THREADS"), std::string::npos);
  EXPECT_NE(Shim.find("#define HT_SHARED"), std::string::npos);
  EXPECT_NE(Shim.find("void __syncthreads"), std::string::npos);
  EXPECT_NE(Shim.find("ht_at"), std::string::npos);
  EXPECT_NE(Shim.find("abort()"), std::string::npos);
  // Header-free: a unit's compile parses the shim and its own kernels only.
  EXPECT_EQ(Shim.find("#include"), std::string::npos);
}

TEST(HostEmitterTest, ParallelShimSelectionIsEmittedPerUnit) {
  // The shim ships both execution models; a unit selects the parallel one
  // by defining HT_SHIM_THREADS before the include. Serial units must not
  // define it (their text -- and compile key -- stays byte-identical to
  // the pre-parallel renderer; the goldens above pin that), and staged
  // parallel units must additionally pin the single-team rule, because
  // cooperative loads of neighboring blocks overlap in their halos. The
  // parallel half binds the worker-team runtime at load (its team
  // geometry and HT_SHIM_TEAMS live in service/ShimRuntime, pinned by
  // ShimRuntimeTest).
  std::string Shim = hostShimSource();
  EXPECT_NE(Shim.find("extern \"C\" int ht_shim_bind("), std::string::npos);
  EXPECT_NE(Shim.find("barrier()"), std::string::npos);

  ir::StencilProgram P = ir::makeJacobi2D(48, 6);
  std::string Serial =
      emitHost(compile(P, 2, 3, {6}, OptimizationConfig::level('d')));
  EXPECT_EQ(Serial.find("HT_SHIM_THREADS"), std::string::npos);

  OptimizationConfig Par = OptimizationConfig::level('a');
  Par.ShimThreads = 4;
  std::string ParallelUnstaged =
      emitHost(compile(P, 2, 3, {6}, Par));
  EXPECT_NE(ParallelUnstaged.find("#define HT_SHIM_THREADS 4"),
            std::string::npos);
  EXPECT_EQ(ParallelUnstaged.find("HT_SHIM_SINGLE_TEAM"),
            std::string::npos);

  Par = OptimizationConfig::level('d');
  Par.ShimThreads = 2;
  std::string ParallelStaged = emitHost(compile(P, 2, 3, {6}, Par));
  EXPECT_NE(ParallelStaged.find("#define HT_SHIM_THREADS 2"),
            std::string::npos);
  EXPECT_NE(ParallelStaged.find("#define HT_SHIM_SINGLE_TEAM 1"),
            std::string::npos);
}

TEST(HostEmitterTest, FlavorsRenderDistinctSchedules) {
  CompiledHybrid C = compile(ir::makeJacobi2D(48, 6), 2, 3, {6});
  std::string Hybrid = emitHost(C, EmitSchedule::Hybrid);
  std::string Hex = emitHost(C, EmitSchedule::Hex);
  std::string Classical = emitHost(C, EmitSchedule::Classical);
  EXPECT_NE(Hybrid.find("_phase0"), std::string::npos);
  EXPECT_NE(Hex.find("_phase0"), std::string::npos);
  EXPECT_NE(Classical.find("_band"), std::string::npos);
  // Hybrid tiles the inner dimension classically; hex leaves it untiled.
  EXPECT_NE(Hybrid.find("ht_skew1"), std::string::npos);
  EXPECT_EQ(Hex.find("ht_skew1"), std::string::npos);
}

/// The staged kernel structure the Sec. 4.2 ladder rungs must render: a
/// staging declaration, the cooperative load phase with its barrier
/// *before* the first compute access, and the separate-vs-interleaved
/// copy-out shapes.
TEST(HostEmitterTest, StagedKernelHasLoadPhaseBarrierBeforeCompute) {
  CompiledHybrid C = compile(ir::makeJacobi2D(48, 6), 2, 3, {6},
                             OptimizationConfig::level('b'));
  std::string Src = emitHost(C);
  size_t Decl = Src.find("HT_SHARED(ht_s_A, ");
  size_t Load = Src.find("// Cooperative load phase");
  size_t Barrier = Src.find("__syncthreads();", Load);
  size_t Compute = Src.find("const float ht_v0 = ht_s_A[");
  ASSERT_NE(Decl, std::string::npos);
  ASSERT_NE(Load, std::string::npos);
  ASSERT_NE(Barrier, std::string::npos);
  ASSERT_NE(Compute, std::string::npos);
  EXPECT_LT(Decl, Load);
  EXPECT_LT(Load, Barrier);
  EXPECT_LT(Barrier, Compute);
}

TEST(HostEmitterTest, SeparateVersusInterleavedCopyOutShapes) {
  ir::StencilProgram P = ir::makeJacobi2D(48, 6);
  std::string Separate =
      emitHost(compile(P, 2, 3, {6}, OptimizationConfig::level('b')));
  std::string Interleaved =
      emitHost(compile(P, 2, 3, {6}, OptimizationConfig::level('c')));
  // Separate copy-out: each phase kernel gets a second guarded time loop
  // moving staged results out, and the compute stores only to staging
  // (one "= ht_out;" per phase).
  EXPECT_EQ(countOf(Separate, "// Separate copy-out"), 2u);
  EXPECT_EQ(countOf(Separate, "= ht_out;"), 2u);
  // Interleaved copy-out: no second loop; every compute stores to both
  // staging and global (two "= ht_out;" per phase).
  EXPECT_EQ(countOf(Interleaved, "// Separate copy-out"), 0u);
  EXPECT_EQ(countOf(Interleaved, "= ht_out;"), 4u);
}

TEST(HostEmitterTest, AlignedLoadsTranslateTheWindowBase) {
  ir::StencilProgram P = ir::makeJacobi2D(48, 6);
  std::string Aligned =
      emitHost(compile(P, 2, 3, {6}, OptimizationConfig::level('d')));
  std::string Natural =
      emitHost(compile(P, 2, 3, {6}, OptimizationConfig::level('c')));
  // Sec. 4.2.3: the innermost window base is rounded down to the 128-byte
  // (32-float) quantum; the natural placement is not.
  EXPECT_NE(Aligned.find(", 32) * 32;"), std::string::npos);
  EXPECT_EQ(Natural.find(", 32) * 32;"), std::string::npos);
}

TEST(HostEmitterTest, RungEPlacesStaticallyRungDByWindow) {
  ir::StencilProgram P = ir::makeJacobi1D(40, 8);
  std::string Windowed =
      emitHost(compile(P, 2, 3, {}, OptimizationConfig::level('d')));
  std::string Placed =
      emitHost(compile(P, 2, 3, {}, OptimizationConfig::level('e')));
  // Rung (d) addresses staged cells relative to the tile's window base;
  // rung (e) through the fixed Sec. 4.2.2 s mod extent placement.
  EXPECT_NE(Windowed.find(" - ht_wb0)"), std::string::npos);
  EXPECT_EQ(Windowed.find(" + ht_emod(s0 + ht_i, "), std::string::npos);
  EXPECT_NE(Placed.find(" + ht_emod(s0 + ht_i, "), std::string::npos);

  // A staged window row is checked once per row, whichever accesses share
  // it: jacobi2d's s0 row holds three of its five reads, so each phase's
  // row checks three staged rows, the staged write and the global write.
  ir::StencilProgram J = ir::makeJacobi2D(48, 6);
  for (auto [Rung, Checks] : {std::pair{'d', 6}, std::pair{'e', 10}})
    EXPECT_EQ(countOf(emitHost(compile(J, 2, 3, {6},
                                       OptimizationConfig::level(Rung))),
                      "ht_check_run("),
              static_cast<size_t>(Checks))
        << "rung " << Rung;
}

namespace {

/// The count text and body of every `HT_FOR_THREADS(<Tid>, <count>) {...}`
/// loop in \p Src, in order.
std::vector<std::pair<std::string, std::string>>
threadLoops(const std::string &Src, const std::string &Tid) {
  std::vector<std::pair<std::string, std::string>> Loops;
  const std::string Head = "HT_FOR_THREADS(" + Tid + ", ";
  for (size_t At = Src.find(Head); At != std::string::npos;
       At = Src.find(Head, At + 1)) {
    size_t CountAt = At + Head.size(), Open = Src.find(") {", At) + 2;
    size_t End = Open + 1;
    for (int Depth = 1; Depth > 0; ++End)
      Depth += Src[End] == '{' ? 1 : Src[End] == '}' ? -1 : 0;
    Loops.emplace_back(Src.substr(CountAt, Open - 2 - CountAt),
                       Src.substr(Open, End - Open));
  }
  return Loops;
}

} // namespace

/// The host stages windows by row: every load and ocopy thread loop runs
/// over (rotating slot x outer rows), decodes only the outer dimensions
/// and moves each row's innermost run with one HT_COPY_RUN.
TEST(HostEmitterTest, StagingCopiesRunOverSlotsTimesOuterRows) {
  struct Subject {
    ir::StencilProgram P;
    std::vector<int64_t> Inner;
  };
  for (const Subject &S : {Subject{ir::makeJacobi2D(48, 6), {6}},
                           Subject{ir::makeHeat3D(16, 4), {4, 6}}}) {
    CompiledHybrid C =
        compile(S.P, 2, 3, S.Inner, OptimizationConfig::level('d'));
    for (EmitSchedule F : {EmitSchedule::Hybrid, EmitSchedule::Classical,
                           EmitSchedule::Overlapped}) {
      SCOPED_TRACE(S.P.name() + " " + emitScheduleName(F));
      EmissionPlan Plan = EmissionPlan::build(C, F);
      std::string Src = emitHost(C, F);
      // Outer rows: the window's outer extents (load); the core column
      // times the inner grid extents but the last (ocopy).
      int64_t LoadRows = 1, CopyRows = Plan.Over.TileW;
      for (unsigned Dim = 0; Dim + 1 < Plan.Rank; ++Dim) {
        LoadRows *= Plan.Staging.Ext[Dim];
        if (Dim > 0)
          CopyRows *= Plan.Sizes[Dim];
      }
      std::vector<bool> Written(S.P.fields().size(), false);
      for (const ir::StencilStmt &St : S.P.stmts())
        Written[St.WriteField] = true;
      // One load per field in every staging kernel (both hybrid phases,
      // the classical band, the oband), one ocopy per written field.
      std::vector<int64_t> LoadCounts, CopyCounts;
      for (int K = 0; K < (F == EmitSchedule::Hybrid ? 2 : 1); ++K)
        for (unsigned Fld = 0; Fld < Written.size(); ++Fld)
          LoadCounts.push_back(Plan.Depth[Fld] * LoadRows);
      for (unsigned Fld = 0; Fld < Written.size(); ++Fld)
        if (F == EmitSchedule::Overlapped && Written[Fld])
          CopyCounts.push_back(Plan.Depth[Fld] * CopyRows);

      for (auto [Tid, Counts] : {std::pair{"ht_ld", LoadCounts},
                                 std::pair{"ht_cp", CopyCounts}}) {
        auto Loops = threadLoops(Src, Tid);
        ASSERT_EQ(Loops.size(), Counts.size()) << Tid;
        for (size_t I = 0; I < Loops.size(); ++I) {
          const std::string &Body = Loops[I].second;
          EXPECT_EQ(Loops[I].first, std::to_string(Counts[I])) << Tid;
          EXPECT_EQ(countOf(Body, "ht_r /= "), Plan.Rank - 1) << Body;
          EXPECT_NE(Body.find("HT_COPY_RUN("), std::string::npos) << Body;
          EXPECT_EQ(Body.find("HT_AT("), std::string::npos) << Body;
        }
      }
    }
  }
}

namespace {

constexpr EmitSchedule AllFlavors[] = {EmitSchedule::Hex, EmitSchedule::Hybrid,
                                       EmitSchedule::Classical,
                                       EmitSchedule::Overlapped};

/// One program of the row-form sweep and its inner tile widths.
struct SweepProgram {
  ir::StencilProgram P;
  std::vector<int64_t> Inner;
};

/// The row-form sweep's programs: jacobi1d, jacobi2d, fdtd2d (three
/// statements) and heat3d.
std::vector<SweepProgram> rowSweepPrograms() {
  return {{ir::makeJacobi1D(40, 8), {}},
          {ir::makeJacobi2D(48, 6), {6}},
          {ir::makeFdtd2D(32, 5), {5}},
          {ir::makeHeat3D(16, 4), {4, 6}}};
}

/// The row-form sweep's subjects: its programs at ladder rungs a-e (rung
/// f renders as d).
std::vector<std::pair<std::string, CompiledHybrid>> rowSweepSubjects() {
  std::vector<std::pair<std::string, CompiledHybrid>> Out;
  for (const SweepProgram &S : rowSweepPrograms())
    for (char Rung : {'a', 'b', 'c', 'd', 'e'})
      Out.emplace_back(S.P.name() + " rung " + Rung,
                       compile(S.P, 2, 3, S.Inner,
                               OptimizationConfig::level(Rung)));
  return Out;
}

/// Where each subscript `<Buffer>[` of \p Src starts its index (just past
/// the bracket); a longer name ending in \p Buffer does not count.
std::vector<size_t> subscripts(const std::string &Src,
                               const std::string &Buffer) {
  std::vector<size_t> At;
  for (size_t P = Src.find(Buffer + "["); P != std::string::npos;
       P = Src.find(Buffer + "[", P + 1))
    if (P == 0 || !(std::isalnum(static_cast<unsigned char>(Src[P - 1])) ||
                    Src[P - 1] == '_'))
      At.push_back(P + Buffer.size() + 1);
  return At;
}

/// Consumes \p Tok at \p At of \p S when it is there.
bool eat(const std::string &S, size_t &At, const std::string &Tok) {
  if (S.compare(At, Tok.size(), Tok) != 0)
    return false;
  At += Tok.size();
  return true;
}

/// Consumes the integer at \p At of \p S.
int64_t parseInt(const std::string &S, size_t &At) {
  size_t Len = 0;
  int64_t V = std::stoll(S.substr(At, 24), &Len);
  At += Len;
  return V;
}

} // namespace

/// The host renders each region's compute with one logical thread per
/// outer row: every coordinate but the innermost, one row at rank 1. No
/// compute loop counts points or decodes the innermost coordinate; the
/// run's first cell is bound once per region, outside the loop.
TEST(HostEmitterTest, ComputeSweepsRunOneThreadPerOuterRow) {
  for (const auto &[Label, C] : rowSweepSubjects())
    for (EmitSchedule F : AllFlavors) {
      SCOPED_TRACE(Label + " " + emitScheduleName(F));
      EmissionPlan Plan = EmissionPlan::build(C, F);
      std::string Src = emitHost(C, F);
      unsigned In = Plan.Rank - 1;
      int64_t Outer = 1;
      for (unsigned Dim = 1; Dim < In; ++Dim)
        Outer *= Plan.Inner[Dim - Plan.innerBaseDim()].Width;
      std::string Rows;
      if (In == 0)
        Rows = "1";
      else if (F == EmitSchedule::Classical)
        Rows = std::to_string(Plan.Inner[0].Width * Outer);
      else
        Rows = std::string(F == EmitSchedule::Overlapped ? "(ht_chi - ht_clo)"
                                                         : "ht_nb") +
               (Outer == 1 ? "" : " * " + std::to_string(Outer));
      // One sweep per kernel, and one more for a separate copy-out.
      bool Separate = F != EmitSchedule::Overlapped &&
                      Plan.Staging.Enabled && !Plan.Staging.Interleaved;
      size_t Sweeps = (Plan.TwoPhase ? 2 : 1) * (Separate ? 2 : 1);
      EXPECT_EQ(Src.find("HT_FOR_THREADS(ht_tid"), std::string::npos);
      auto Loops = threadLoops(Src, "ht_row");
      ASSERT_EQ(Loops.size(), Sweeps);
      std::string Inner = std::to_string(In);
      for (const auto &[Count, Body] : Loops) {
        EXPECT_EQ(Count, Rows);
        EXPECT_EQ(Body.find("ht_l" + Inner + " = "), std::string::npos)
            << Body;
        EXPECT_EQ(Body.find("const ht_int s" + Inner + " = "),
                  std::string::npos)
            << Body;
      }
    }
}

/// No raw subscript escapes a span check: every global g_<field> and
/// staged ht_s_<field> subscript sits in a row, indexes its group's base
/// ht_b<k>, and follows that group's ht_check_run in the row, whose span
/// covers the subscript's displacement over the run's ht_n cells (its
/// whole window row under static placement).
TEST(HostEmitterTest, EveryAccessIsBoundsChecked) {
  for (const auto &[Label, C] : rowSweepSubjects())
    for (EmitSchedule F : AllFlavors) {
      SCOPED_TRACE(Label + " " + emitScheduleName(F));
      std::string Src = emitHost(C, F);
      std::vector<std::string> Buffers;
      for (const ir::FieldDecl &Fd : C.program().fields()) {
        Buffers.push_back("g_" + Fd.Name);
        Buffers.push_back("ht_s_" + Fd.Name);
      }
      size_t All = 0, InRows = 0;
      for (const std::string &Buf : Buffers)
        All += subscripts(Src, Buf).size();
      for (const auto &Loop : threadLoops(Src, "ht_row")) {
        const std::string &Body = Loop.second;
        for (const std::string &Buf : Buffers)
          for (size_t At : subscripts(Body, Buf)) {
            ++InRows;
            std::string Where = Body.substr(At - Buf.size() - 1, 64);
            size_t P = At;
            ASSERT_TRUE(eat(Body, P, "ht_b")) << Where;
            std::string Base = "ht_b" + std::to_string(parseInt(Body, P));
            size_t Decl = Body.rfind("const ht_int " + Base + " = ", At);
            ASSERT_NE(Decl, std::string::npos) << Where;
            std::string CheckHead = "ht_check_run(" + Buf + ", " + Base;
            size_t Q = Body.find(CheckHead, Decl);
            ASSERT_LT(Q, At) << Where;
            // The check: [Base + Lo, Base + Lo + Len + ht_n), or a window
            // row [Base, Base + Len) when the subscript wraps.
            Q += CheckHead.size();
            int64_t Lo = 0, Len = 0;
            if (eat(Body, Q, " + (")) {
              Lo = parseInt(Body, Q);
              ASSERT_TRUE(eat(Body, Q, ")"));
            }
            ASSERT_TRUE(eat(Body, Q, ", "));
            bool Wraps = false;
            if (!eat(Body, Q, "ht_n")) {
              Len = parseInt(Body, Q);
              Wraps = !eat(Body, Q, " + ht_n");
            }
            int64_t Disp = 0;
            if (eat(Body, P, " + (")) {
              Disp = parseInt(Body, P);
              ASSERT_TRUE(eat(Body, P, ")"));
            }
            if (Wraps) {
              ASSERT_TRUE(eat(Body, P, " + ht_emod(")) << Where;
              size_t End = Body.find(")]", P);
              size_t Mod = Body.rfind(", ", End) + 2;
              EXPECT_EQ(Body.substr(Mod, End - Mod), std::to_string(Len))
                  << Where;
              EXPECT_EQ(Disp, 0) << Where;
            } else {
              EXPECT_TRUE(eat(Body, P, " + ht_i]")) << Where;
              EXPECT_LE(Lo, Disp) << Where;
              EXPECT_LE(Disp, Lo + Len) << Where;
            }
          }
      }
      EXPECT_GT(All, 0u);
      EXPECT_EQ(InRows, All) << "a subscript outside every row";
    }
}

/// The plan behind the checks: a statement's accesses share a group
/// exactly when they share a buffer and a rotating slot, each one's
/// displacement is its row-major offset from the group's first access, and
/// each group's span is [lowest, highest displacement + n). Under static
/// placement, staged accesses also share their window row (equal outer
/// offsets), and the group spans that whole row.
TEST(HostEmitterTest, AccessGroupSpansAreExactOverTheirDisplacements) {
  for (const auto &[Label, C] : rowSweepSubjects())
    for (EmitSchedule F : AllFlavors)
      for (bool CopyOut : {false, true}) {
        SCOPED_TRACE(Label + " " + emitScheduleName(F) +
                     (CopyOut ? " copy-out" : ""));
        EmissionPlan Plan = EmissionPlan::build(C, F);
        const StagingPlan &St = Plan.Staging;
        if (CopyOut && !St.Enabled)
          continue;
        std::vector<SweptStmt> Stmts = sweptStmts(Plan, CopyOut);
        ASSERT_EQ(Stmts.size(), C.program().stmts().size());
        for (size_t I = 0; I < Stmts.size(); ++I) {
          const ir::StencilStmt &IR = C.program().stmts()[I];
          const SweptStmt &S = Stmts[I];
          // Each access with the cell the IR says it addresses.
          struct Cell {
            const SweptAccess *A;
            bool Staged;
            unsigned Field;
            int64_t Slot;
            std::vector<int64_t> Off;
          };
          std::vector<Cell> Cells;
          std::vector<int64_t> Zero(Plan.Rank, 0);
          if (CopyOut) {
            Cells.push_back({&S.Reads.at(0), true, IR.WriteField, 0, Zero});
            Cells.push_back({&S.Writes.at(0), false, IR.WriteField, 0, Zero});
          } else {
            ASSERT_EQ(S.Reads.size(), IR.Reads.size());
            for (size_t R = 0; R < IR.Reads.size(); ++R) {
              const ir::ReadAccess &Rd = IR.Reads[R];
              int64_t Depth = Plan.Depth[Rd.Field];
              std::vector<int64_t> Off = Rd.Offsets;
              Off.resize(Plan.Rank, 0);
              Cells.push_back({&S.Reads[R], St.Enabled, Rd.Field,
                               ((Rd.TimeOffset % Depth) + Depth) % Depth,
                               Off});
            }
            size_t W = 0;
            if (St.Enabled)
              Cells.push_back(
                  {&S.Writes.at(W++), true, IR.WriteField, 0, Zero});
            if (!St.Enabled || St.Interleaved)
              Cells.push_back(
                  {&S.Writes.at(W++), false, IR.WriteField, 0, Zero});
            EXPECT_EQ(W, S.Writes.size());
          }
          size_t Keys = 0;
          for (const Cell &X : Cells) {
            const AccessGroup &G = S.Groups.at(X.A->Group);
            EXPECT_EQ(G.Buffer, X.Staged ? Plan.stageArg(X.Field)
                                         : Plan.fieldArg(X.Field));
            bool Wraps = X.Staged && St.StaticPlacement;
            const Cell *First = &X;
            for (const Cell &Y : Cells)
              if (Y.Staged == X.Staged && Y.Field == X.Field &&
                  Y.Slot == X.Slot &&
                  (!Wraps ||
                   std::equal(X.Off.begin(), X.Off.end() - 1, Y.Off.begin()))) {
                First = &Y;
                break;
              }
            Keys += First == &X;
            EXPECT_EQ(X.A->Group, First->A->Group);
            if (Wraps) {
              EXPECT_EQ(G.Wrap, St.Ext.back());
              EXPECT_EQ(X.A->Disp, 0);
              continue;
            }
            EXPECT_EQ(G.Wrap, 0);
            const std::vector<int64_t> &Ext = X.Staged ? St.Ext : Plan.Sizes;
            int64_t Disp = 0;
            for (unsigned Dim = 0; Dim < Plan.Rank; ++Dim)
              Disp = Disp * Ext[Dim] + X.Off[Dim] - First->Off[Dim];
            EXPECT_EQ(X.A->Disp, Disp);
          }
          EXPECT_EQ(S.Groups.size(), Keys);
          for (size_t G = 0; G < S.Groups.size(); ++G) {
            int64_t Lo = INT64_MAX, Hi = INT64_MIN;
            for (const Cell &X : Cells)
              if (X.A->Group == G) {
                Lo = std::min(Lo, X.A->Disp);
                Hi = std::max(Hi, X.A->Disp);
              }
            EXPECT_EQ(S.Groups[G].Lo, Lo);
            EXPECT_EQ(S.Groups[G].Hi, Hi);
          }
        }
      }
}

/// A row binds one base per access group, so no two bases of one
/// statement's row name the same cell of the same buffer: under static
/// placement, accesses sharing a window row share its base and its check.
TEST(HostEmitterTest, NoRowBindsTwoBasesToOneCell) {
  for (const auto &[Label, C] : rowSweepSubjects())
    for (EmitSchedule F : AllFlavors) {
      SCOPED_TRACE(Label + " " + emitScheduleName(F));
      std::string Src = emitHost(C, F);
      for (const auto &Loop : threadLoops(Src, "ht_row")) {
        // (buffer, base) pairs of the statement row being read; its cell
        // loop ends it.
        std::set<std::pair<std::string, std::string>> Bases;
        std::string Base;
        std::istringstream Lines(Loop.second);
        for (std::string Line; std::getline(Lines, Line);) {
          Line.erase(0, Line.find_first_not_of(' '));
          if (Line.rfind("const ht_int ht_b", 0) == 0) {
            Base = Line.substr(Line.find(" = ") + 3);
          } else if (Line.rfind("ht_check_run(", 0) == 0) {
            std::string Buffer = Line.substr(13, Line.find(',') - 13);
            EXPECT_TRUE(Bases.emplace(Buffer, Base).second)
                << Buffer << " bound twice to " << Base;
          } else if (Line.rfind("for (ht_int ht_i ", 0) == 0) {
            Bases.clear();
          }
        }
      }
    }
}

/// Each rung renders its own kernels: in the hex, hybrid and classical
/// flavors rungs a-e emit pairwise different bodies on both targets, and
/// rung f emits rung d's (only the model prices its shared->shared move).
/// The overlapped flavor stages by construction, so every rung emits one
/// body. A body is the unit without the `// memory strategy` line, which
/// names the rung.
TEST(HostEmitterTest, EachRungRendersItsOwnKernels) {
  auto Body = [](std::string Src) {
    size_t At = Src.find("// memory strategy");
    Src.erase(At, Src.find('\n', At) + 1 - At);
    return Src;
  };
  for (const SweepProgram &S : rowSweepPrograms()) {
    std::vector<CompiledHybrid> Rungs;
    for (char Rung = 'a'; Rung <= 'f'; ++Rung)
      Rungs.push_back(
          compile(S.P, 2, 3, S.Inner, OptimizationConfig::level(Rung)));
    for (EmitSchedule F : AllFlavors)
      for (bool Cuda : {false, true}) {
        SCOPED_TRACE(S.P.name() + " " + emitScheduleName(F) +
                     (Cuda ? " cuda" : " host"));
        std::vector<std::string> Bodies;
        for (const CompiledHybrid &C : Rungs)
          Bodies.push_back(Body(Cuda ? emitCuda(C, F) : emitHost(C, F)));
        EXPECT_EQ(Bodies[5], Bodies[3]) << "rung f differs from rung d";
        for (size_t X = 0; X < 5; ++X)
          for (size_t Y = X + 1; Y < 5; ++Y)
            EXPECT_EQ(Bodies[X] == Bodies[Y], F == EmitSchedule::Overlapped)
                << "rungs " << char('a' + X) << " and " << char('a' + Y);
      }
  }
}

TEST(HostEmitterTest, GlobalDirectConfigStillAddressesGlobalBuffers) {
  CompiledHybrid C = compile(ir::makeJacobi2D(48, 6), 2, 3, {6},
                             OptimizationConfig::level('a'));
  std::string Src = emitHost(C);
  EXPECT_EQ(Src.find("HT_SHARED"), std::string::npos);
  EXPECT_EQ(Src.find("// Cooperative load phase"), std::string::npos);
  EXPECT_NE(Src.find("const float ht_v0 = g_A["), std::string::npos);
}

/// Regression: the first differential run of the emitted classical flavor
/// caught the thread space dropping dimension 0 -- only one point per tile
/// row was enumerated, so most of each band went uncomputed (caught as a
/// bit-level divergence by the oracle's fourth mechanism). The classical
/// sweep must cover the *full* tile volume, dimension 0's width included.
TEST(HostEmitterTest, RegressionClassicalThreadSpaceCoversDim0) {
  CompiledHybrid C = compile(ir::makeJacobi2D(48, 6), 2, 4, {6});
  std::string Src = emitHost(C, EmitSchedule::Classical);
  // w0 = 4 rows per (tile, u), each binding s0 from its id ...
  EXPECT_NE(Src.find("HT_FOR_THREADS(ht_row, 4)"), std::string::npos);
  EXPECT_NE(Src.find("const ht_int s0 = S0 * 4 + ht_row"), std::string::npos);
  // ... and each sweeping a run of w1 = 6 cells.
  EXPECT_NE(Src.find("const ht_int ht_run = S1 * 6"), std::string::npos);
  EXPECT_NE(Src.find("ht_run + 6 < "), std::string::npos);
}
