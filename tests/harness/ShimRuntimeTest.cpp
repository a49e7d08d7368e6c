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
//    re-shape the worker pool at run time (observed via HT_THREADS), and
//    the pool never holds more than 256 threads, nor a worker beside the
//    launcher when one thread plays the whole grid (counted in a forked
//    child's /proc/self/task);
//  * oversubscription: more blocks than worker teams -- every block runs
//    exactly once off the shared atomic counter;
//  * bounds traps: HT_AT aborts with the correct buffer name when the
//    out-of-bounds access happens on a worker thread (global buffers and
//    HT_SHARED staging arenas both), and so do an HT_COPY_RUN run that
//    crosses either end of either buffer and a compute row whose span
//    check sees a read cross either end of its staging window;
//  * the process-wide runtime (service/ShimRuntime): two units with
//    different baked-in team sizes each get their own per launch, a
//    forked child launches on a fresh pool instead of waiting on its
//    parent's workers, a unit loaded without binding traps at its first
//    launch, and a unit that rejects the runtime's ABI fails to load.
//
// Machines without a system compiler skip (visibly, not silently).
//
//===----------------------------------------------------------------------===//

#include "harness/HostKernelRunner.h"

#include <chrono>
#include <cstdlib>
#include <dlfcn.h>
#include <filesystem>
#include <gtest/gtest.h>
#include <iterator>
#include <signal.h>
#include <string>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace hextile;
using harness::JitUnit;

namespace {

#if defined(__SANITIZE_THREAD__)
#define HEXTILE_UNDER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HEXTILE_UNDER_TSAN 1
#endif
#endif
#ifndef HEXTILE_UNDER_TSAN
#define HEXTILE_UNDER_TSAN 0
#endif

/// Scoped environment override for the shim pool-geometry variables; a
/// null \p Value unsets the variable for the scope.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = getenv(Name)) {
      HadOld = true;
      OldValue = Old;
    }
    if (Value)
      setenv(Name, Value, 1);
    else
      unsetenv(Name);
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

static float RowOut[8];

/// One compute-sweep row as the emitter spells it: reads at displacements
/// -1, 0 and +1 from s0 in a window holding 0..7, one span check.
__global__ void row(ht_int ht_block, ht_int s0, ht_int ht_n) {
  (void)ht_block;
  HT_SHARED(ht_s_A, 8);
  HT_FOR_THREADS(ht_row, 1) {
    for (ht_int i = 0; i < 8; ++i)
      ht_s_A[i] = (float)i;
    const ht_int ht_b0 = s0;
    ht_check_run(ht_s_A, ht_b0 + (-1), 2 + ht_n, 8, "ht_s_A");
    for (ht_int ht_i = 0; ht_i < ht_n; ++ht_i)
      RowOut[ht_i] = (ht_s_A[ht_b0 + (-1) + ht_i] + ht_s_A[ht_b0 + ht_i]) +
                     ht_s_A[ht_b0 + (1) + ht_i];
  }
}

/// Runs the row and returns the sum of its n results.
extern "C" float row_run(ht_int s0, ht_int n) {
  HT_LAUNCH_1D(row, 1, s0, n);
  float Sum = 0;
  for (ht_int I = 0; I < n; ++I)
    Sum += RowOut[I];
  return Sum;
}
)cpp";

/// One launch of a unit whose baked-in team size is \p Threads; its
/// size_run returns the HT_THREADS the launched block saw.
std::string teamSizeSource(int Threads) {
  return "#define HT_SHIM_THREADS " + std::to_string(Threads) + R"cpp(
#include "cuda_shim.h"

static ht_int Seen;

__global__ void size_probe(ht_int ht_block, ht_int unused) {
  (void)ht_block;
  (void)unused;
  HT_FOR_THREADS(t0, 1)
    Seen = HT_THREADS;
}

extern "C" ht_int size_run(void) {
  Seen = -1;
  HT_LAUNCH_1D(size_probe, 1, 0);
  return Seen;
}
)cpp";
}

/// A unit built for another runtime ABI: its ht_shim_bind refuses every
/// table, as a unit of a later shim version refuses this build's runtime.
constexpr const char *RejectingSource = R"cpp(
extern "C" int ht_shim_bind(const void *) { return 1; }
)cpp";

using ProbeFn = long long (*)(long long);

/// Threads of this process, once the count has fallen to \p Max or after
/// 10 s: a joined thread may stay listed for a moment after its join.
size_t threadsSettledTo(size_t Max) {
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    size_t N = std::distance(
        std::filesystem::directory_iterator("/proc/self/task"),
        std::filesystem::directory_iterator());
    if (N <= Max || std::chrono::steady_clock::now() > Deadline)
      return N;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Waits (30 s deadline, then SIGKILL) for forked child \p Pid and returns
/// its exit code, or -1 when it hung or did not exit normally.
int childExitCode(pid_t Pid) {
  int Status = 0;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  pid_t Done = 0;
  while ((Done = waitpid(Pid, &Status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (Done == 0) {
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
    return -1;
  }
  return Done == Pid && WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

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

TEST(ShimRuntimeTest, TeamSizeIsChosenPerLaunchNotByTheFirstUnit) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  // One pool serves every unit of the process; each launch must still
  // shape it from the launching unit's baked-in size.
  ScopedEnv Threads("HT_SHIM_THREADS", nullptr);
  ScopedEnv Teams("HT_SHIM_TEAMS", nullptr);
  JitUnit Two, Four;
  ASSERT_EQ(Two.build(teamSizeSource(2)), "");
  ASSERT_EQ(Four.build(teamSizeSource(4)), "");
  using SizeFn = long long (*)();
  auto RunTwo = reinterpret_cast<SizeFn>(Two.symbol("size_run"));
  auto RunFour = reinterpret_cast<SizeFn>(Four.symbol("size_run"));
  ASSERT_NE(RunTwo, nullptr);
  ASSERT_NE(RunFour, nullptr);
  for (int Round = 0; Round < 3; ++Round) {
    EXPECT_EQ(RunTwo(), 2) << "round " << Round;
    EXPECT_EQ(RunFour(), 4) << "round " << Round;
  }
}

TEST(ShimRuntimeTest, ForkedChildLaunchesOnAFreshPool) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  if (HEXTILE_UNDER_TSAN)
    GTEST_SKIP() << "fork-based test; TSan runtime does not support "
                    "fork-and-continue";
  JitUnit Unit;
  ASSERT_EQ(Unit.build(ProbeSource), "");
  auto Probe = reinterpret_cast<ProbeFn>(Unit.symbol("probe_run"));
  ASSERT_NE(Probe, nullptr);
  ScopedEnv Threads("HT_SHIM_THREADS", nullptr);
  // The parent's launch spawns the process's workers; none of them exists
  // in the child, which must not wait for them.
  ASSERT_EQ(Probe(4), 2);

  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0)
    _exit(Probe(4) == 2 && Probe(8) == 2 ? 0 : 1);

  int Status = 0;
  auto Deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  pid_t Done = 0;
  while ((Done = waitpid(Pid, &Status, WNOHANG)) == 0 &&
         std::chrono::steady_clock::now() < Deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  if (Done == 0) {
    kill(Pid, SIGKILL);
    waitpid(Pid, &Status, 0);
    FAIL() << "forked child still launching after 30 s: it waited on its "
              "parent's workers";
  }
  ASSERT_EQ(Done, Pid);
  ASSERT_TRUE(WIFEXITED(Status));
  EXPECT_EQ(WEXITSTATUS(Status), 0);
  // The parent's own pool is untouched by the child's.
  EXPECT_EQ(Probe(6), 2);
}

TEST(ShimRuntimeTest, PoolHoldsAtMost256ThreadsAndNoneBesideALoneLauncher) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  if (HEXTILE_UNDER_TSAN)
    GTEST_SKIP() << "fork-based test; TSan runtime does not support "
                    "fork-and-continue";
  JitUnit Unit;
  ASSERT_EQ(Unit.build(ProbeSource), "");
  auto Bump = reinterpret_cast<ProbeFn>(Unit.symbol("bump_run"));
  ASSERT_NE(Bump, nullptr);

  // The child starts with one thread, so /proc/self/task counts the pool
  // and the launcher alone. Each failed check sets one bit of its exit code.
  pid_t Pid = fork();
  ASSERT_GE(Pid, 0);
  if (Pid == 0) {
    int Bad = 0;
    // 40 teams of 8 would be 320 threads: teams are dropped to fit 256.
    setenv("HT_SHIM_TEAMS", "40", 1);
    setenv("HT_SHIM_THREADS", "8", 1);
    Bad |= Bump(100) != 0 ? 1 : 0;
    Bad |= threadsSettledTo(256) > 256 ? 2 : 0;
    // One team of one thread: the launcher plays it, and the 40 x 8 pool's
    // workers are gone.
    setenv("HT_SHIM_TEAMS", "1", 1);
    setenv("HT_SHIM_THREADS", "1", 1);
    Bad |= Bump(100) != 0 ? 4 : 0;
    Bad |= threadsSettledTo(1) != 1 ? 8 : 0;
    _exit(Bad);
  }
  int Code = childExitCode(Pid);
  ASSERT_NE(Code, -1) << "forked child hung or crashed";
  EXPECT_EQ(Code & 1, 0) << "a block of the capped launch ran not once";
  EXPECT_EQ(Code & 2, 0) << "the 40 x 8 pool holds more than 256 threads";
  EXPECT_EQ(Code & 4, 0) << "a block of the 1 x 1 launch ran not once";
  EXPECT_EQ(Code & 8, 0) << "a 1 x 1 launch left a worker beside the "
                            "launcher";
}

TEST(ShimRuntimeDeathTest, UnboundUnitTrapsAtFirstLaunch) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  JitUnit Unit;
  ASSERT_EQ(Unit.build(ProbeSource), "");
  // A second copy under another path loads as a separate, never-bound
  // instance of the unit.
  std::filesystem::path Copy =
      std::filesystem::path(Unit.workDir()) / "unbound.so";
  std::filesystem::copy_file(Unit.sharedObjectPath(), Copy);
  void *Handle = dlopen(Copy.c_str(), RTLD_NOW | RTLD_LOCAL);
  ASSERT_NE(Handle, nullptr) << dlerror();
  auto Probe = reinterpret_cast<ProbeFn>(dlsym(Handle, "probe_run"));
  ASSERT_NE(Probe, nullptr);
  EXPECT_DEATH(Probe(4), "cuda_shim: launch on an unbound parallel unit");
  dlclose(Handle);
}

TEST(ShimRuntimeTest, UnitRejectingTheRuntimeAbiFailsToLoad) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  JitUnit Unit;
  std::string Err = Unit.build(RejectingSource);
  EXPECT_NE(Err.find("failed to load"), std::string::npos) << Err;
  EXPECT_NE(Err.find("ht_shim_bind"), std::string::npos) << Err;
  EXPECT_EQ(Unit.symbol("ht_shim_bind"), nullptr);
  // A load failure keeps the artifacts for an offline repro.
  std::filesystem::path Dir = Unit.workDir();
  EXPECT_TRUE(std::filesystem::exists(Dir / "kernel.cpp"));
  EXPECT_TRUE(std::filesystem::exists(Dir / "kernel.so"));
  Unit.reset();
  EXPECT_TRUE(std::filesystem::exists(Dir / "kernel.so"));
  std::filesystem::remove_all(Dir);
}

TEST(ShimRuntimeDeathTest, RowSpanTrapNamesBufferUnderParallelDispatch) {
  if (!JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; shim runtime not exercised";
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  JitUnit Unit;
  ASSERT_EQ(Unit.build(TrapSource), "");
  auto Row = reinterpret_cast<float (*)(long long, long long)>(
      Unit.symbol("row_run"));
  ASSERT_NE(Row, nullptr);
  // Inside the window: cells 3i + 3 for i < 6, summed.
  EXPECT_EQ(Row(1, 6), 63.0f);
  // The highest read crosses the window's end; the lowest starts before it.
  EXPECT_DEATH(Row(2, 6),
               "cuda_shim: out-of-bounds access to ht_s_A: index 8 not in "
               "\\[0, 8\\)");
  EXPECT_DEATH(Row(0, 3),
               "cuda_shim: out-of-bounds access to ht_s_A: index -1 not in "
               "\\[0, 8\\)");
}
