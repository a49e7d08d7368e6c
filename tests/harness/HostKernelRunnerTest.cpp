//===- HostKernelRunnerTest.cpp - JIT harness tests ---------------------------===//
//
// Exercises the emitted-kernel JIT itself: compiler discovery, the
// compile/load/run round trip, diagnostics for broken units, and the
// shim's out-of-bounds trap (a negative test: a deliberately bad index
// must abort with a diagnostic, not read garbage). Every test skips
// cleanly on machines without a system C++ compiler.
//
//===----------------------------------------------------------------------===//

#include "harness/HostKernelRunner.h"

#include "codegen/HostEmitter.h"
#include "codegen/HybridCompiler.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <filesystem>

using namespace hextile;
using namespace hextile::harness;

namespace {

#define SKIP_WITHOUT_COMPILER()                                              \
  do {                                                                       \
    if (!JitUnit::available())                                               \
      GTEST_SKIP() << "no system C++ compiler; emitted kernels not run";     \
  } while (0)

codegen::CompiledHybrid compileSmall(const ir::StencilProgram &P, int64_t H,
                                     int64_t W0,
                                     std::vector<int64_t> Inner) {
  codegen::TileSizeRequest R;
  R.H = H;
  R.W0 = W0;
  R.InnerWidths = std::move(Inner);
  return codegen::compileHybrid(P, R);
}

} // namespace

TEST(HostKernelRunnerTest, RoundTripRunsEmittedUnit) {
  SKIP_WITHOUT_COMPILER();
  ir::StencilProgram P = ir::makeJacobi1D(40, 10);
  codegen::CompiledHybrid C = compileSmall(P, 2, 3, {});
  EmittedUnit Unit;
  ASSERT_EQ(Unit.build(P, C, codegen::EmitSchedule::Hybrid), "");
  EXPECT_FALSE(Unit.skipped());
  EXPECT_EQ(Unit.runDifferential(exec::defaultInit, "unit-test"), "");
}

TEST(HostKernelRunnerTest, ReportsWithoutRunningWhenNoCompiler) {
  // The skip path itself must be exercised wherever a compiler *is*
  // available too: a null-compiler build reports skipped() and its
  // reason, and leaves nothing to run.
  if (JitUnit::available())
    GTEST_SKIP() << "compiler present; skip path covered on bare machines";
  ir::StencilProgram P = ir::makeJacobi1D(24, 4);
  codegen::CompiledHybrid C = compileSmall(P, 1, 2, {});
  EmittedUnit Unit;
  EXPECT_EQ(Unit.build(P, C, codegen::EmitSchedule::Hybrid),
            "no system C++ compiler");
  EXPECT_TRUE(Unit.skipped());
  EXPECT_NE(Unit.runDifferential(exec::defaultInit, ""), "");
}

TEST(HostKernelRunnerTest, CompileFailureKeepsArtifactsAndLog) {
  SKIP_WITHOUT_COMPILER();
  JitUnit Unit;
  std::string Err = Unit.build("#include \"cuda_shim.h\"\n"
                               "this is not C++;\n");
  ASSERT_NE(Err, "");
  EXPECT_NE(Err.find("failed to compile"), std::string::npos);
  EXPECT_NE(Err.find(Unit.workDir()), std::string::npos);
  // The kept scratch dir holds the unit and the compiler log for offline
  // reproduction.
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(Unit.workDir()) / "kernel.cpp"));
  EXPECT_TRUE(std::filesystem::exists(
      std::filesystem::path(Unit.workDir()) / "compile.log"));
  std::filesystem::remove_all(Unit.workDir());
}

TEST(HostKernelRunnerTest, SymbolLookupFindsExportedEntry) {
  SKIP_WITHOUT_COMPILER();
  JitUnit Unit;
  ASSERT_EQ(Unit.build("#include \"cuda_shim.h\"\n"
                       "extern \"C\" ht_int ht_probe(void) "
                       "{ return ht_fdiv(-7, 2); }\n"),
            "");
  using ProbeFn = long long (*)();
  auto Probe = reinterpret_cast<ProbeFn>(Unit.symbol("ht_probe"));
  ASSERT_NE(Probe, nullptr);
  EXPECT_EQ(Probe(), -4); // Floor division, not C truncation.
  EXPECT_EQ(Unit.symbol("ht_no_such_symbol"), nullptr);
}

using HostKernelRunnerDeathTest = ::testing::Test;

TEST(HostKernelRunnerDeathTest, ShimTrapsOutOfBoundsAccess) {
  SKIP_WITHOUT_COMPILER();
  // A unit that indexes one past the end through the checked accessor: the
  // shim must abort with a diagnostic naming the buffer, never touch the
  // memory.
  JitUnit Unit;
  ASSERT_EQ(Unit.build("#include \"cuda_shim.h\"\n"
                       "extern \"C\" float ht_oob(float *g_buf) "
                       "{ return HT_AT(g_buf, 4, 4); }\n"),
            "");
  using OobFn = float (*)(float *);
  auto Oob = reinterpret_cast<OobFn>(Unit.symbol("ht_oob"));
  ASSERT_NE(Oob, nullptr);
  float Buf[4] = {0, 1, 2, 3};
  EXPECT_DEATH(Oob(Buf), "out-of-bounds access to g_buf");
}

TEST(HostKernelRunnerDeathTest, ShimTrapsStagedWindowEscape) {
  SKIP_WITHOUT_COMPILER();
  // The staged mirror of the global-buffer OOB test: a kernel whose
  // staged HT_AT access escapes its HT_SHARED staging window must abort
  // with a diagnostic naming the *staging* buffer -- never spill into
  // whatever sits next to the arena.
  JitUnit Unit;
  ASSERT_EQ(Unit.build("#include \"cuda_shim.h\"\n"
                       "extern \"C\" float ht_stage_oob(ht_int idx) {\n"
                       "  HT_SHARED(ht_s_A, 14);\n"
                       "  for (ht_int i = 0; i < 14; ++i)\n"
                       "    HT_AT(ht_s_A, i, 14) = (float)i;\n"
                       "  return HT_AT(ht_s_A, idx, 14);\n"
                       "}\n"),
            "");
  using StageFn = float (*)(long long);
  auto Stage = reinterpret_cast<StageFn>(Unit.symbol("ht_stage_oob"));
  ASSERT_NE(Stage, nullptr);
  EXPECT_EQ(Stage(3), 3.0f); // In-window staged access works.
  EXPECT_DEATH(Stage(14), "out-of-bounds access to ht_s_A");
  EXPECT_DEATH(Stage(-1), "out-of-bounds access to ht_s_A");
}

namespace {

/// A staging load through the shim's run copy: fills an 8-float HT_SHARED
/// window with -1, copies the run g_buf[gIdx, gIdx + n) (g_buf holds 6
/// floats) to ht_s_A[sIdx, ...), and returns the window through \p out.
constexpr const char *RunCopySource = R"cpp(#include "cuda_shim.h"
extern "C" void ht_load_run(float *g_buf, ht_int gIdx, ht_int sIdx,
                            ht_int n, float *out) {
  HT_SHARED(ht_s_A, 8);
  for (ht_int i = 0; i < 8; ++i)
    HT_AT(ht_s_A, i, 8) = -1.0f;
  HT_COPY_RUN(ht_s_A, sIdx, 8, g_buf, gIdx, 6, n);
  for (ht_int i = 0; i < 8; ++i)
    out[i] = HT_AT(ht_s_A, i, 8);
}
)cpp";

using LoadRunFn = void (*)(float *, long long, long long, long long,
                           float *);

} // namespace

TEST(HostKernelRunnerTest, RunCopyMovesExactlyItsCells) {
  SKIP_WITHOUT_COMPILER();
  JitUnit Unit;
  ASSERT_EQ(Unit.build(RunCopySource), "");
  auto Load = reinterpret_cast<LoadRunFn>(Unit.symbol("ht_load_run"));
  ASSERT_NE(Load, nullptr);
  float Global[6] = {0, 1, 2, 3, 4, 5};
  float Out[8];
  // A partial row: g_buf[1, 3) lands at ht_s_A[3, 5); its neighbours keep
  // their fill in both buffers.
  Load(Global, 1, 3, 2, Out);
  const float Want[8] = {-1, -1, -1, 1, 2, -1, -1, -1};
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Out[I], Want[I]) << "staging cell " << I;
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(Global[I], static_cast<float>(I));
  // An empty run checks nothing and copies nothing, as an all-guarded
  // element loop would.
  Load(Global, 100, -100, 0, Out);
  for (int I = 0; I < 8; ++I)
    EXPECT_EQ(Out[I], -1.0f) << "staging cell " << I;
}

TEST(HostKernelRunnerDeathTest, RunCopyTrapsRunsCrossingEitherBufferEnd) {
  SKIP_WITHOUT_COMPILER();
  // A run is checked whole before any cell moves: one crossing either end
  // of the global buffer or of the staging window aborts naming that
  // buffer and the run's first out-of-range index.
  JitUnit Unit;
  ASSERT_EQ(Unit.build(RunCopySource), "");
  auto Load = reinterpret_cast<LoadRunFn>(Unit.symbol("ht_load_run"));
  ASSERT_NE(Load, nullptr);
  float Global[6] = {0, 1, 2, 3, 4, 5};
  float Out[8];
  EXPECT_DEATH(Load(Global, 4, 0, 3, Out),
               "out-of-bounds access to g_buf: index 6 not in \\[0, 6\\)");
  EXPECT_DEATH(Load(Global, -2, 0, 3, Out),
               "out-of-bounds access to g_buf: index -2 not in \\[0, 6\\)");
  EXPECT_DEATH(Load(Global, 0, 6, 3, Out),
               "out-of-bounds access to ht_s_A: index 8 not in \\[0, 8\\)");
  EXPECT_DEATH(Load(Global, 0, -1, 3, Out),
               "out-of-bounds access to ht_s_A: index -1 not in \\[0, 8\\)");
}

namespace {

/// One row of a staged compute sweep, spelled as the emitter spells it: a
/// group of three reads at displacements -1, 0 and +1 from its base s0 in
/// an 8-float HT_SHARED window holding 0..7, checked once over its span
/// and summed into out[0, n).
constexpr const char *RowSweepSource = R"cpp(#include "cuda_shim.h"
extern "C" void ht_row(ht_int s0, ht_int ht_n, float *out) {
  HT_SHARED(ht_s_A, 8);
  for (ht_int i = 0; i < 8; ++i)
    ht_s_A[i] = (float)i;
  const ht_int ht_b0 = s0;
  ht_check_run(ht_s_A, ht_b0 + (-1), 2 + ht_n, 8, "ht_s_A");
  for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i) {
    const float ht_v0 = ht_s_A[ht_b0 + (-1) + ht_i];
    const float ht_v1 = ht_s_A[ht_b0 + ht_i];
    const float ht_v2 = ht_s_A[ht_b0 + (1) + ht_i];
    out[ht_i] = (ht_v0 + ht_v1) + ht_v2;
  }
}
)cpp";

using RowFn = void (*)(long long, long long, float *);

} // namespace

TEST(HostKernelRunnerDeathTest, RowSpanCheckTrapsEitherWindowEnd) {
  SKIP_WITHOUT_COMPILER();
  JitUnit Unit;
  ASSERT_EQ(Unit.build(RowSweepSource), "");
  auto Row = reinterpret_cast<RowFn>(Unit.symbol("ht_row"));
  ASSERT_NE(Row, nullptr);
  // A row whose span [0, 8) stays inside computes every cell.
  float Out[6];
  Row(1, 6, Out);
  for (int I = 0; I < 6; ++I)
    EXPECT_EQ(Out[I], static_cast<float>(3 * I + 3)) << "cell " << I;
  // The highest-displacement read of the last cell crosses the window's
  // end; the lowest-displacement read of the first cell starts before it.
  // Either way the row traps before any cell is read, naming the staging
  // buffer and the first out-of-range index.
  EXPECT_DEATH(Row(2, 6, Out),
               "cuda_shim: out-of-bounds access to ht_s_A: index 8 not in "
               "\\[0, 8\\)");
  EXPECT_DEATH(Row(0, 3, Out),
               "cuda_shim: out-of-bounds access to ht_s_A: index -1 not in "
               "\\[0, 8\\)");
}

TEST(HostKernelRunnerTest, ShimCheckedAccessReadsInBounds) {
  SKIP_WITHOUT_COMPILER();
  JitUnit Unit;
  ASSERT_EQ(Unit.build("#include \"cuda_shim.h\"\n"
                       "extern \"C\" float ht_read(float *g_buf) "
                       "{ return HT_AT(g_buf, 2, 4); }\n"),
            "");
  using ReadFn = float (*)(float *);
  auto Read = reinterpret_cast<ReadFn>(Unit.symbol("ht_read"));
  ASSERT_NE(Read, nullptr);
  float Buf[4] = {0.0f, 1.0f, 7.5f, 3.0f};
  EXPECT_EQ(Read(Buf), 7.5f);
}
