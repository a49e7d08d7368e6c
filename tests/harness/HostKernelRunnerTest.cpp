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
