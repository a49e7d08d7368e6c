//===- ThreadPoolTest.cpp - Thread pool & pooled backend tests ----------------===//
//
// Covers the pool contract the wavefront replay leans on: every iteration
// runs exactly once, iterations of one call really run at the same time,
// consecutive calls never share a chunk, the parallelFor barrier orders
// wavefronts (all writes of front N visible to front N+1), worker
// exceptions propagate to the caller, oversubscription (more threads than
// iterations) degenerates cleanly -- and, through the oracle keys, that a
// deliberately race-y illegal tiling is flagged by the differential check
// when replayed on real threads. The gang entry the parallel shim's teams
// run on gets its own cases: its ranks all run at once, each exactly once
// per call, with the caller as rank 0.
//
//===----------------------------------------------------------------------===//

#include "exec/ExecutionBackend.h"
#include "exec/Executor.h"
#include "exec/ThreadPool.h"
#include "harness/StencilOracle.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

using namespace hextile;
using namespace hextile::exec;

// Real data races are the *point* of the illegal-tiling test below, so it
// must not run under ThreadSanitizer (the TSan CI job proves the legal
// schedules are race-free; this test proves illegal ones are not).
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

TEST(ThreadPoolTest, RunsEveryIterationExactlyOnce) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.numThreads(), 4u);
  constexpr size_t N = 20000;
  std::vector<std::atomic<int>> Counts(N);
  Pool.parallelFor(N, [&](size_t I) {
    Counts[I].fetch_add(1, std::memory_order_relaxed);
  });
  for (size_t I = 0; I < N; ++I)
    ASSERT_EQ(Counts[I].load(), 1) << "iteration " << I;
}

TEST(ThreadPoolTest, IterationsOverlapInTime) {
  // Each of two iterations waits until the other has started, so both
  // finish waiting only when they run at the same time. A pool that ran
  // every chunk on the caller fails here at the deadline instead of
  // hanging.
  ThreadPool Pool(2);
  std::atomic<bool> Started[2] = {false, false};
  std::atomic<bool> SawOther[2] = {false, false};
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  Pool.parallelFor(2, [&](size_t I) {
    Started[I].store(true);
    while (!Started[1 - I].load()) {
      if (std::chrono::steady_clock::now() > Deadline)
        return;
      std::this_thread::yield();
    }
    SawOther[I].store(true);
  });
  EXPECT_TRUE(SawOther[0].load()) << "iteration 1 never overlapped 0";
  EXPECT_TRUE(SawOther[1].load()) << "iteration 0 never overlapped 1";
}

TEST(ThreadPoolTest, ConsecutiveCallsNeverShareChunks) {
  // Back-to-back calls alternate a two-chunk task (one full chunk plus one
  // iteration) with a many-chunk one, so workers that wake late meet the
  // next call already under way. Each call's counters live on the heap only
  // for that call: a worker running an old call's body after it returned
  // would write freed memory (an ASan report), and a chunk claimed twice or
  // never would leave a counter other than 1.
  ThreadPool Pool(4);
  for (int Call = 0; Call < 2000; ++Call) {
    bool TwoChunks = Call % 2 == 0;
    size_t MinPerChunk = TwoChunks ? 64 : 1;
    size_t N = TwoChunks ? MinPerChunk + 1 : 4096;
    auto Counts = std::make_unique<std::atomic<int>[]>(N);
    Pool.parallelFor(
        N,
        [C = Counts.get()](size_t I) {
          C[I].fetch_add(1, std::memory_order_relaxed);
        },
        MinPerChunk);
    for (size_t I = 0; I < N; ++I)
      ASSERT_EQ(Counts[I].load(), 1) << "call " << Call << " iteration " << I;
  }
}

TEST(ThreadPoolTest, BarrierOrdersWavefronts) {
  // Each round writes round-number into every cell; the next round must
  // observe the previous round's writes everywhere, whichever thread ran
  // them -- the wavefront-barrier / memory-visibility contract.
  ThreadPool Pool(4);
  constexpr size_t N = 4096;
  std::vector<int> Data(N, 0);
  std::atomic<size_t> Violations{0};
  for (int Round = 1; Round <= 16; ++Round) {
    Pool.parallelFor(N, [&, Round](size_t I) {
      if (Data[I] != Round - 1)
        Violations.fetch_add(1, std::memory_order_relaxed);
      Data[I] = Round;
    });
  }
  EXPECT_EQ(Violations.load(), 0u);
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesAndPoolSurvives) {
  ThreadPool Pool(4);
  EXPECT_THROW(Pool.parallelFor(1000,
                                [&](size_t I) {
                                  if (I == 537)
                                    throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool must stay usable after an aborted task.
  std::atomic<size_t> Ran{0};
  Pool.parallelFor(100, [&](size_t) {
    Ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Ran.load(), 100u);
}

TEST(ThreadPoolTest, OversubscriptionMoreThreadsThanWork) {
  ThreadPool Pool(8);
  std::atomic<size_t> Ran{0};
  Pool.parallelFor(2, [&](size_t) {
    Ran.fetch_add(1, std::memory_order_relaxed);
  });
  EXPECT_EQ(Ran.load(), 2u);
  Pool.parallelFor(0, [&](size_t) { FAIL() << "empty trip count ran"; });
  Pool.parallelFor(1, [&](size_t I) { EXPECT_EQ(I, 0u); });
}

TEST(ThreadPoolTest, SingleThreadPoolRunsInline) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.numThreads(), 1u);
  size_t Sum = 0; // Plain variable: everything runs on this thread.
  Pool.parallelFor(100, [&](size_t I) { Sum += I; });
  EXPECT_EQ(Sum, 4950u);
}

TEST(ThreadPoolTest, GangRanksRunTogetherOncePerCall) {
  // Every rank of a call waits until all four have arrived, as a shim team
  // waits at its barrier, so the four ranks must hold four threads at once.
  // An entry that ran ranks on the caller one after another fails here at
  // the deadline instead of hanging. Each call's counters live on the heap
  // only for that call, and a rank run twice or never leaves a count other
  // than 1.
  ThreadPool Pool(4);
  const std::thread::id Caller = std::this_thread::get_id();
  for (int Call = 0; Call < 2000; ++Call) {
    auto Counts = std::make_unique<std::atomic<int>[]>(4);
    std::atomic<int> Arrived{0};
    std::atomic<bool> TimedOut{false}, RankZeroOffCaller{false};
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    Pool.gang([&, C = Counts.get()](size_t Rank) {
      C[Rank].fetch_add(1, std::memory_order_relaxed);
      if (Rank == 0 && std::this_thread::get_id() != Caller)
        RankZeroOffCaller.store(true);
      Arrived.fetch_add(1);
      while (Arrived.load() < 4) {
        if (std::chrono::steady_clock::now() > Deadline) {
          TimedOut.store(true);
          return;
        }
        std::this_thread::yield();
      }
    });
    ASSERT_FALSE(TimedOut.load()) << "call " << Call
                                  << ": the four ranks never met";
    ASSERT_FALSE(RankZeroOffCaller.load()) << "call " << Call;
    for (size_t Rank = 0; Rank < 4; ++Rank)
      ASSERT_EQ(Counts[Rank].load(), 1) << "call " << Call << " rank " << Rank;
  }
}

TEST(ThreadPoolTest, GangOfOneRunsRankZeroOnTheCaller) {
  ThreadPool Pool(1);
  std::vector<size_t> Ranks; // Plain vector: the caller is the only thread.
  std::thread::id Ran;
  Pool.gang([&](size_t Rank) {
    Ranks.push_back(Rank);
    Ran = std::this_thread::get_id();
  });
  EXPECT_EQ(Ranks, std::vector<size_t>{0});
  EXPECT_EQ(Ran, std::this_thread::get_id());
}

TEST(ThreadPoolTest, ManySmallTasksReuseTheWorkers) {
  // Wavefront streams are dominated by small fronts; the pool must survive
  // thousands of tiny barriers without losing iterations.
  ThreadPool Pool(4);
  std::atomic<size_t> Ran{0};
  for (int Task = 0; Task < 2000; ++Task)
    Pool.parallelFor(3, [&](size_t) {
      Ran.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(Ran.load(), 6000u);
}

TEST(ThreadPoolTest, BatchingFloorRunsSmallTripsInlineWithZeroTasks) {
  ThreadPool Pool(4);
  uint64_t Before = Pool.tasksDispatched();
  std::atomic<size_t> Ran{0};
  // Trip counts at or below the floor: inline on the caller, no dispatch.
  for (int Task = 0; Task < 50; ++Task)
    Pool.parallelFor(
        64, [&](size_t) { Ran.fetch_add(1, std::memory_order_relaxed); },
        /*MinPerChunk=*/64);
  EXPECT_EQ(Ran.load(), 50u * 64u);
  EXPECT_EQ(Pool.tasksDispatched(), Before);

  // Above the floor the pool dispatches, but never a chunk smaller than
  // the floor: at most ceil(N / MinPerChunk) chunks.
  Before = Pool.tasksDispatched();
  Ran.store(0);
  Pool.parallelFor(
      1000, [&](size_t) { Ran.fetch_add(1, std::memory_order_relaxed); },
      /*MinPerChunk=*/64);
  EXPECT_EQ(Ran.load(), 1000u);
  uint64_t Chunks = Pool.tasksDispatched() - Before;
  EXPECT_GT(Chunks, 0u);
  EXPECT_LE(Chunks, (1000u + 63u) / 64u);
}

TEST(ThreadPoolBackendTest, BatchingBoundsPoolTasksOnSmallWavefronts) {
  // The regression this pins: classical/diamond replays stream hundreds of
  // tiny band-edge wavefronts, and paying a pool barrier for each made the
  // pooled replay *slower* than serial. With the batching floor those
  // wavefronts must retire inline -- bounded dispatched tasks -- while the
  // replay stays bit-exact against the reference.
  ir::StencilProgram P = ir::makeJacobi2D(20, 8);
  harness::OracleTiling T;
  T.H = 2;
  T.W0 = 3;
  T.InnerWidths = {5};
  for (harness::ScheduleKind K :
       {harness::ScheduleKind::Classical, harness::ScheduleKind::Diamond}) {
    harness::OracleSchedule S = harness::makeOracleSchedule(P, K, T);
    ASSERT_NE(S.Key, nullptr) << harness::scheduleKindName(K);

    auto replay = [&](size_t MinTaskInstances, ReplayStats &Stats) {
      ThreadPoolBackend Pool(4, MinTaskInstances);
      ScheduleRunOptions Opts;
      Opts.ParallelFrom = S.ParallelFrom;
      Opts.BackendOverride = &Pool;
      Opts.Stats = &Stats;
      EXPECT_EQ(checkScheduleEquivalence(P, S.Key, Opts), "")
          << harness::scheduleKindName(K)
          << " MinTaskInstances=" << MinTaskInstances;
    };

    // A floor above every wavefront: the whole replay runs inline.
    ReplayStats Inline;
    replay(1u << 20, Inline);
    EXPECT_EQ(Inline.PoolTasks, 0u) << harness::scheduleKindName(K);

    // Floor 1: every multi-instance wavefront goes through the pool.
    ReplayStats Eager;
    replay(1, Eager);
    EXPECT_GT(Eager.PoolTasks, 0u) << harness::scheduleKindName(K);

    // The default floor: no chunk below 128 instances, so the dispatched
    // task count is bounded by one chunk per wavefront plus the
    // instances-over-floor budget -- far below the eager count on these
    // small-wavefront schedules.
    ReplayStats Batched;
    replay(128, Batched);
    EXPECT_LE(Batched.PoolTasks,
              Batched.Wavefronts + Batched.Instances / 128)
        << harness::scheduleKindName(K);
    EXPECT_LE(Batched.PoolTasks, Eager.PoolTasks)
        << harness::scheduleKindName(K);
  }
}

TEST(ThreadPoolBackendTest, LegalSchedulesStayBitExactOnRealThreads) {
  // Every schedule family, replayed with its parallel dimensions spread
  // over 4 real threads, must still agree bit-exactly with the reference.
  ir::StencilProgram P = ir::makeJacobi2D(18, 6);
  harness::OracleTiling T;
  T.H = 2;
  T.W0 = 3;
  T.InnerWidths = {5};
  harness::OracleOptions Opts;
  Opts.Backend = BackendKind::ThreadPool;
  Opts.NumThreads = 4;
  Opts.NumShuffles = 3;
  EXPECT_EQ(harness::runDifferentialAllKinds(P, T, Opts), "");
}

TEST(ThreadPoolBackendTest, PooledReplayMatchesSerialReplayBitExact) {
  // Same schedule, same shuffle seed: the serial and pooled replays must
  // produce identical grids, not merely both match the reference.
  ir::StencilProgram P = ir::makeHeat2D(16, 5);
  harness::OracleTiling T;
  T.H = 1;
  T.W0 = 4;
  harness::OracleSchedule S =
      harness::makeOracleSchedule(P, harness::ScheduleKind::Hex, T);
  ASSERT_NE(S.Key, nullptr);

  core::IterationDomain Domain = core::IterationDomain::forProgram(P);
  ScheduleRunOptions Opts;
  Opts.ShuffleSeed = 0xfeedbeefull;
  Opts.ParallelFrom = S.ParallelFrom;

  GridStorage Serial(P);
  runSchedule(P, Serial, Domain, S.Key, Opts);

  GridStorage Pooled(P);
  ThreadPoolBackend Pool(4);
  Opts.BackendOverride = &Pool;
  runSchedule(P, Pooled, Domain, S.Key, Opts);

  EXPECT_EQ(compareStoragesAtStep(Serial, Pooled, P.timeSteps() - 1), "");
}

TEST(ThreadPoolBackendTest, RacyIllegalTilingIsFlagged) {
#if HEXTILE_UNDER_TSAN
  GTEST_SKIP() << "intentional data races; the TSan job covers legal "
                  "schedules only";
#endif
  // Claim the hexagonal tile's *sequential* interior (phase, local time,
  // ...) as parallel: concurrent instances then read and write the same
  // rotating-buffer cells -- a genuine data race on the pool, and an
  // illegal serialization for the shuffles. The differential check must
  // flag it for at least one replay.
  ir::StencilProgram P = ir::makeJacobi2D(18, 6);
  harness::OracleTiling T;
  T.H = 2;
  T.W0 = 3;
  harness::OracleSchedule S =
      harness::makeOracleSchedule(P, harness::ScheduleKind::Hex, T);
  ASSERT_NE(S.Key, nullptr);

  bool Caught = false;
  for (uint64_t Seed : {0x1111ull, 0x2222ull, 0x3333ull}) {
    // Defeat the batching floor: the races live in small wavefronts, which
    // the default floor would (correctly, for performance) run inline.
    ThreadPoolBackend Pool(4, /*MinTaskInstances=*/1);
    ScheduleRunOptions Opts;
    Opts.ShuffleSeed = Seed;
    Opts.ParallelFrom = 1; // Everything inside the time band is "parallel".
    Opts.BackendOverride = &Pool;
    if (!checkScheduleEquivalence(P, S.Key, Opts).empty())
      Caught = true;
  }
  EXPECT_TRUE(Caught)
      << "racy replay never diverged -- the pooled oracle has no teeth";
}
