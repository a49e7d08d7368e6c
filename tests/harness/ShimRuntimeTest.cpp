//===- ShimRuntimeTest.cpp - Parallel cuda_shim runtime semantics ---------===//
//
// Unit tests for the *parallel* mode of the generated cuda_shim.h, driven
// through hand-written kernels (not emitted ones) so each shim mechanism
// is pinned in isolation:
//
//  * barrier rendezvous: a counter armed between barrier-delimited phases
//    is seen by every thread -- under TSan this is only race-free through
//    the barrier's acquire/release handshake, so a broken __syncthreads
//    is a deterministic TSan report, not a flaky value check;
//  * pool geometry: HT_SHIM_THREADS / HT_SHIM_TEAMS environment overrides
//    re-shape the worker pool at run time (observed via HT_THREADS);
//  * oversubscription: more blocks than worker teams -- every block runs
//    exactly once off the shared atomic counter;
//  * bounds traps: HT_AT aborts with the correct buffer name when the
//    out-of-bounds access happens on a worker thread (global buffers and
//    HT_SHARED staging arenas both), and so does an HT_COPY_RUN run that
//    crosses either end of either buffer.
//
// Machines without a system compiler skip (visibly, not silently).
//
//===----------------------------------------------------------------------===//

#include "harness/HostKernelRunner.h"

#include <cstdlib>
#include <gtest/gtest.h>
#include <string>

using namespace hextile;
using harness::JitUnit;

namespace {

/// Scoped environment override for the shim pool-geometry variables.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const std::string &Value) : Name(Name) {
    if (const char *Old = getenv(Name)) {
      HadOld = true;
      OldValue = Old;
    }
    setenv(Name, Value.c_str(), 1);
  }
  ~ScopedEnv() {
    if (HadOld)
      setenv(Name, OldValue.c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  bool HadOld = false;
  std::string OldValue;
};

/// Rendezvous + geometry + block-distribution probes, one unit. The
/// baked-in default is 2 threads/block; every test overrides it through
/// the environment to prove the runtime selection works.
constexpr const char *ProbeSource = R"cpp(#define HT_SHIM_THREADS 2
#include "cuda_shim.h"

static ht_int Flags[512];
static ht_int Counter;
static ht_int Observed[512];
static ht_int ObservedSize;

__global__ void probe(ht_int ht_block, ht_int nthreads) {
  (void)ht_block;
  // Phase 1: every logical thread arms its flag.
  HT_FOR_THREADS(tid, nthreads)
    Flags[tid] = 1;
  __syncthreads();
  // Phase 2: one thread arms the counter from the flags.
  HT_FOR_THREADS(t0, 1) {
    Counter = 0;
    for (ht_int I = 0; I < nthreads; ++I)
      Counter += Flags[I];
    ObservedSize = HT_THREADS;
  }
  __syncthreads();
  // Phase 3: every logical thread must see the armed counter.
  HT_FOR_THREADS(tid, nthreads)
    Observed[tid] = Counter;
}

/// Returns the physical team size when every thread saw the full
/// rendezvous, -1 on any miss.
extern "C" ht_int probe_run(ht_int nthreads) {
  for (ht_int I = 0; I < 512; ++I) {
    Flags[I] = 0;
    Observed[I] = 0;
  }
  Counter = -1;
  ObservedSize = -1;
  HT_LAUNCH_1D(probe, 1, nthreads);
  for (ht_int I = 0; I < nthreads; ++I)
    if (Observed[I] != nthreads)
      return -1;
  return ObservedSize;
}

static ht_int BlockCount[256];

__global__ void bump(ht_int ht_block, ht_int unused) {
  (void)unused;
  HT_FOR_THREADS(t0, 1)
    BlockCount[ht_block] += 1;
}

/// Returns the number of blocks that did not run exactly once.
extern "C" ht_int bump_run(ht_int nblocks) {
  for (ht_int I = 0; I < 256; ++I)
    BlockCount[I] = 0;
  HT_LAUNCH_1D(bump, nblocks, 0);
  ht_int Bad = 0;
  for (ht_int I = 0; I < 256; ++I)
    if (BlockCount[I] != (I < nblocks ? 1 : 0))
      ++Bad;
  return Bad;
}
)cpp";

/// Bounds-trap probes for the death tests; built (and first launched)
/// only inside EXPECT_DEATH children so the forked process creates its
/// own worker pool.
constexpr const char *TrapSource = R"cpp(#define HT_SHIM_THREADS 2
#include "cuda_shim.h"

__global__ void oob(ht_int ht_block, float *g_buf) {
  (void)ht_block;
  HT_FOR_THREADS(tid, 4)
    HT_AT(g_buf, 100 + tid, 8) = 1.0f;
}

extern "C" void oob_run(float *g_buf) { HT_LAUNCH_1D(oob, 2, g_buf); }

__global__ void stage(ht_int ht_block, ht_int idx) {
  (void)ht_block;
  HT_SHARED(ht_s_A, 8);
  HT_FOR_THREADS(t0, 1)
    HT_AT(ht_s_A, idx, 8) = 2.0f;
}

extern "C" void stage_run(ht_int idx) { HT_LAUNCH_1D(stage, 1, idx); }

__global__ void run_copy(ht_int ht_block, float *g_buf, ht_int gIdx,
                         ht_int sIdx, ht_int n) {
  (void)ht_block;
  HT_SHARED(ht_s_A, 8);
  HT_FOR_THREADS(t0, 1)
    HT_COPY_RUN(ht_s_A, sIdx, 8, g_buf, gIdx, 6, n);
}

extern "C" void run_copy_run(float *g_buf, ht_int gIdx, ht_int sIdx,
                             ht_int n) {
  HT_LAUNCH_1D(run_copy, 1, g_buf, gIdx, sIdx, n);
}
)cpp";

using ProbeFn = long long (*)(long long);

} // namespace

TEST(ShimRuntimeTest, BarrierRendezvousArmsCounterBetweenPhases) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  JitUnit Unit;
  ASSERT_EQ(Unit.build(ProbeSource), "");
  auto Probe = reinterpret_cast<ProbeFn>(Unit.symbol("probe_run"));
  ASSERT_NE(Probe, nullptr);

  // 4 physical threads, 4 logical threads: each rank plays one tid; the
  // counter armed between the barriers must be visible to all of them.
  {
    ScopedEnv Threads("HT_SHIM_THREADS", "4");
    EXPECT_EQ(Probe(4), 4);
  }
  // More logical threads than physical: the strided HT_FOR_THREADS must
  // still cover every tid, with the pool re-shaped down to 2 threads.
  {
    ScopedEnv Threads("HT_SHIM_THREADS", "2");
    EXPECT_EQ(Probe(8), 2);
  }
  // Unset environment: the unit's baked-in default (2) applies.
  EXPECT_EQ(Probe(6), 2);
}

TEST(ShimRuntimeTest, OversubscribedBlocksEachRunExactlyOnce) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  JitUnit Unit;
  ASSERT_EQ(Unit.build(ProbeSource), "");
  auto Bump = reinterpret_cast<ProbeFn>(Unit.symbol("bump_run"));
  ASSERT_NE(Bump, nullptr);

  // 64 blocks over 2 teams of 2 threads: 16x oversubscribed, every block
  // claimed exactly once off the shared counter.
  {
    ScopedEnv Teams("HT_SHIM_TEAMS", "2");
    ScopedEnv Threads("HT_SHIM_THREADS", "2");
    EXPECT_EQ(Bump(64), 0);
  }
  // Re-shaped pool (3 single-thread teams), including the empty launch.
  {
    ScopedEnv Teams("HT_SHIM_TEAMS", "3");
    ScopedEnv Threads("HT_SHIM_THREADS", "1");
    EXPECT_EQ(Bump(0), 0);
    EXPECT_EQ(Bump(100), 0);
  }
}

TEST(ShimRuntimeDeathTest, GlobalBoundsTrapNamesBufferUnderParallelDispatch) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  // The abort happens on a worker thread of the forked child; threadsafe
  // style re-execs so the child builds its own pool from scratch.
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  JitUnit Unit;
  ASSERT_EQ(Unit.build(TrapSource), "");
  auto Oob = reinterpret_cast<void (*)(float *)>(Unit.symbol("oob_run"));
  ASSERT_NE(Oob, nullptr);
  float Buf[8] = {0};
  EXPECT_DEATH(Oob(Buf), "out-of-bounds access to g_buf");
}

TEST(ShimRuntimeDeathTest, SharedArenaTrapNamesBufferUnderParallelDispatch) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  JitUnit Unit;
  ASSERT_EQ(Unit.build(TrapSource), "");
  auto Stage =
      reinterpret_cast<void (*)(long long)>(Unit.symbol("stage_run"));
  ASSERT_NE(Stage, nullptr);
  EXPECT_DEATH(Stage(9), "out-of-bounds access to ht_s_A");
  EXPECT_DEATH(Stage(-1), "out-of-bounds access to ht_s_A");
}

TEST(ShimRuntimeDeathTest, RunCopyTrapNamesBufferUnderParallelDispatch) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  JitUnit Unit;
  ASSERT_EQ(Unit.build(TrapSource), "");
  auto Run = reinterpret_cast<void (*)(float *, long long, long long,
                                       long long)>(
      Unit.symbol("run_copy_run"));
  ASSERT_NE(Run, nullptr);
  float Buf[6] = {0};
  // The global buffer holds 6 floats, the staging window 8.
  EXPECT_DEATH(Run(Buf, 4, 0, 3),
               "out-of-bounds access to g_buf: index 6 not in \\[0, 6\\)");
  EXPECT_DEATH(Run(Buf, -2, 0, 3),
               "out-of-bounds access to g_buf: index -2 not in \\[0, 6\\)");
  EXPECT_DEATH(Run(Buf, 0, 6, 3),
               "out-of-bounds access to ht_s_A: index 8 not in \\[0, 8\\)");
  EXPECT_DEATH(Run(Buf, 0, -1, 3),
               "out-of-bounds access to ht_s_A: index -1 not in \\[0, 8\\)");
}
