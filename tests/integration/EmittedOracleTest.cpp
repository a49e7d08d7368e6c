//===- EmittedOracleTest.cpp - Emitted-code differential sweep ----------------===//
//
// The oracle's fourth mechanism end to end: every gallery stencil is
// compiled for hybrid tiling, rendered by HostEmitter as the hex, hybrid,
// classical and overlapped flavors *at every rung of the Sec. 4.2
// shared-memory ladder*, JIT-built with the system compiler, *executed*
// over seeded
// rotating buffers and compared bit-exactly against the naive reference
// executor. This is the closed loop ROADMAP asked for: the generated code
// path -- loop bounds, hexagon row tables, skew tables, buffer depths,
// boundary guards, staging windows, cooperative loads, separate and
// interleaved copy-out, aligned window bases, static placement -- is
// proven by execution, not by text snapshot. Machines without a system
// compiler skip (visibly, not silently).
//
// Reproducing a failure: the diagnostic names the tiling, the memory
// config, the seed and a kept scratch directory with kernel.cpp +
// cuda_shim.h + compile.log; rebuild with
// `c++ -std=c++17 -O1 -fPIC -shared -o kernel.so kernel.cpp`
// (see docs/oracle.md).
//
//===----------------------------------------------------------------------===//

#include "harness/HostKernelRunner.h"
#include "harness/StencilOracle.h"

#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::harness;

namespace {

struct EmittedCase {
  const char *Name;
  int64_t N;
  int64_t Steps;
  OracleTiling Tiling;
};

/// The rendered rungs of the Table 4 ladder the sweep proves bit-exact:
/// (a) global-direct, (b) staged with separate copy-out, (c) staged with
/// interleaved copy-out (Sec. 4.2.1), (d) (c) + 128B-aligned window bases
/// (Sec. 4.2.3), (e) (d) + the Sec. 4.2.2 static placement. Rung (f)
/// emits (d)'s kernels (HostEmitterTest pins that), so it is not run.
struct LadderRung {
  const char *Name;
  char Level;
};

constexpr LadderRung Rungs[] = {
    {"off", 'a'},
    {"shared", 'b'},
    {"shared+interleaved", 'c'},
    {"shared+aligned", 'd'},
    {"shared+static", 'e'},
};

class EmittedOracleSweep : public ::testing::TestWithParam<EmittedCase> {
protected:
  ir::StencilProgram program() const {
    const EmittedCase &C = GetParam();
    ir::StencilProgram P = ir::makeByName(C.Name);
    P.setSpaceSizes(std::vector<int64_t>(P.spaceRank(), C.N));
    P.setTimeSteps(C.Steps);
    return P;
  }
};

} // namespace

/// The acceptance sweep: every gallery stencil x every emitted flavor x
/// every ladder rung, all bit-exact against the naive executor via the
/// JIT harness.
TEST_P(EmittedOracleSweep, EmittedKernelsBitExactAllKindsAllRungs) {
  if (!emittedMechanismAvailable())
    GTEST_SKIP() << "no system C++ compiler; emitted kernels not run";
  ir::StencilProgram P = program();
  for (const LadderRung &R : Rungs) {
    OracleOptions Opts;
    Opts.RunEmitted = true;
    Opts.NumShuffles = 1; // The key mechanisms have their own sweeps.
    Opts.EmitConfig = codegen::OptimizationConfig::level(R.Level);
    for (ScheduleKind K :
         {ScheduleKind::Hex, ScheduleKind::Hybrid, ScheduleKind::Classical,
          ScheduleKind::Overlapped})
      EXPECT_EQ(runDifferential(P, K, GetParam().Tiling, Opts), "")
          << scheduleKindName(K) << " rung=" << R.Name;
  }
}

/// The shim-thread axis: the same stencils x 4 flavors x 5 rungs, as
/// *parallel* units -- HT_LAUNCH_1D dispatches blocks across worker teams
/// with a real __syncthreads barrier -- each compiled once and replayed
/// at 1, 2 and 4 shim threads (the pool re-shapes from the environment,
/// so the axis costs one JIT build per rung, not three). Unstaged rung
/// (a) units run blocks genuinely concurrently, racing the paper's
/// phase-independence claim; staged rungs (b)-(e) keep blocks serial
/// (single team) while the staging-ladder barriers are crossed by real
/// threads. Overlapped units are *always* multi-team -- their trapezoids
/// stage into disjoint file-scope windows, so the fifth family's
/// no-intra-band-synchronization claim is raced for real. Everything must
/// stay bit-exact against the naive executor -- and under the TSan CI job
/// the emitted barrier handshakes are raced with the same tool that
/// checks ThreadPoolBackend.
TEST_P(EmittedOracleSweep, ParallelShimBitExactAllRungsAllThreadCounts) {
  if (!emittedMechanismAvailable())
    GTEST_SKIP() << "no system C++ compiler; emitted kernels not run";
  ir::StencilProgram P = program();
  exec::Initializer Init = seededInit(0x9e3779b97f4a7c15ull);
  for (const LadderRung &R : Rungs) {
    codegen::OptimizationConfig Config =
        codegen::OptimizationConfig::level(R.Level);
    Config.ShimThreads = 4; // Baked default; each run overrides below.
    codegen::CompiledHybrid C =
        compileOracleHybrid(P, GetParam().Tiling, Config);
    for (codegen::EmitSchedule S :
         {codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
          codegen::EmitSchedule::Classical,
          codegen::EmitSchedule::Overlapped}) {
      EmittedUnit Unit;
      ASSERT_EQ(Unit.build(P, C, S), "")
          << "rung=" << R.Name << " flavor=" << codegen::emitScheduleName(S);
      for (int Threads : {1, 2, 4})
        EXPECT_EQ(Unit.runDifferential(
                      Init,
                      std::string("[parallel shim] rung=") + R.Name +
                          " threads=" + std::to_string(Threads),
                      Threads),
                  "");
    }
  }
}

// The full Table 3 gallery plus the beyond-the-paper entries (1D extras,
// the depth-3 wave equation, the read-only-coefficient heat), at
// sweep-friendly sizes, each against all four emitted flavors and all
// five rendered ladder rungs.
INSTANTIATE_TEST_SUITE_P(
    Gallery, EmittedOracleSweep,
    ::testing::Values(
        EmittedCase{"jacobi1d", 48, 12, {3, 4, {}, 4}},
        EmittedCase{"skewed1d", 48, 10, {2, 3, {}, 4}},
        EmittedCase{"jacobi2d", 20, 8, {1, 2, {6}, 4}},
        EmittedCase{"laplacian2d", 20, 8, {2, 2, {6}, 4}},
        EmittedCase{"heat2d", 18, 6, {1, 3, {5}, 4}},
        EmittedCase{"gradient2d", 18, 6, {2, 4, {6}, 4}},
        EmittedCase{"fdtd2d", 16, 5, {2, 3, {5}, 4}},
        EmittedCase{"wave2d", 16, 6, {2, 3, {5}, 4}},
        EmittedCase{"heat2d4", 20, 6, {1, 3, {6}, 4}},
        EmittedCase{"varheat2d", 16, 6, {1, 3, {5}, 4}},
        EmittedCase{"laplacian3d", 12, 4, {1, 2, {4, 4}, 4}},
        EmittedCase{"heat3d", 12, 4, {2, 2, {4, 4}, 4}},
        EmittedCase{"gradient3d", 12, 4, {1, 3, {3, 4}, 4}}),
    [](const ::testing::TestParamInfo<EmittedCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(EmittedOracleTest, DiamondKindHasNoEmitterAndStaysGreen) {
  // RunEmitted on the Diamond kind is a clean no-op: the key mechanisms
  // still run, the emitted mechanism reports agreement.
  ir::StencilProgram P = ir::makeJacobi1D(32, 6);
  OracleOptions Opts;
  Opts.RunEmitted = true;
  Opts.NumShuffles = 1;
  EXPECT_EQ(runDifferential(P, ScheduleKind::Diamond, {2, 3, {}, 4}, Opts),
            "");
}

TEST(EmittedOracleTest, IllegalTilingRequestsAreLegalizedLikeTheKeys) {
  if (!emittedMechanismAvailable())
    GTEST_SKIP() << "no system C++ compiler; emitted kernels not run";
  // A below-minimum w0 must be legalized to the eq. (1) width for the
  // emitted mechanism exactly as for the key mechanisms -- at both ends
  // of the ladder.
  ir::StencilProgram P = ir::makeSkewedExample1D(40, 8);
  for (char Level : {'a', 'd'}) {
    OracleOptions Opts;
    Opts.RunEmitted = true;
    Opts.NumShuffles = 1;
    Opts.EmitConfig = codegen::OptimizationConfig::level(Level);
    EXPECT_EQ(runDifferential(P, ScheduleKind::Hybrid, {2, 1, {}, 4}, Opts),
              "")
        << "rung " << Level;
  }
}

TEST(EmittedOracleTest, DistinctSeedsDistinctData) {
  if (!emittedMechanismAvailable())
    GTEST_SKIP() << "no system C++ compiler; emitted kernels not run";
  ir::StencilProgram P = ir::makeJacobi2D(16, 5);
  OracleTiling T{2, 3, {5}, 4};
  for (uint64_t Seed : {0x1ull, 0xdeadbeefull}) {
    OracleOptions Opts;
    Opts.RunEmitted = true;
    Opts.NumShuffles = 1;
    Opts.Seed = Seed;
    EXPECT_EQ(runDifferential(P, ScheduleKind::Hybrid, T, Opts), "")
        << "seed " << Seed;
  }
}
