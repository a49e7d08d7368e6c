//===- ExecutorTest.cpp - Reference/schedule executor tests ------------------===//

#include "exec/Executor.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

using namespace hextile;
using namespace hextile::exec;

TEST(ExecutorTest, SingleInstanceJacobi) {
  ir::StencilProgram P = ir::makeJacobi2D(8, 1);
  GridStorage S(P, [](unsigned, std::span<const int64_t> C) {
    return static_cast<float>(C[0] + C[1]);
  });
  int64_t Point[3] = {0, 3, 4}; // that = 0 -> step 0.
  executeInstance(P, S, Point);
  int64_t C[2] = {3, 4};
  // 0.2 * ((3+4) + (3+5) + (3+3) + (4+4) + (2+4)) = 0.2 * 35 = 7.
  EXPECT_FLOAT_EQ(S.at(0, 0, C), 7.0f);
}

TEST(ExecutorTest, ReferenceMatchesHandComputedJacobi1D) {
  // One step of the 1D 3-point average on a tiny line.
  ir::StencilProgram P = ir::makeJacobi1D(5, 1);
  GridStorage S(P, [](unsigned, std::span<const int64_t> C) {
    return static_cast<float>(C[0]);
  });
  runReference(P, S);
  for (int64_t I = 1; I <= 3; ++I) {
    int64_t C[1] = {I};
    EXPECT_FLOAT_EQ(S.at(0, 0, C), static_cast<float>(I)) << I;
  }
  // Boundaries untouched.
  int64_t B0[1] = {0}, B4[1] = {4};
  EXPECT_FLOAT_EQ(S.at(0, 0, B0), 0.0f);
  EXPECT_FLOAT_EQ(S.at(0, 0, B4), 4.0f);
}

TEST(ExecutorTest, IdentityScheduleEquivalence) {
  // The canonical order itself must be bit-equivalent to the reference.
  ir::StencilProgram P = ir::makeJacobi2D(16, 5);
  ScheduleKeyIntoFn Key = [](std::span<const int64_t> Pt,
                             std::vector<int64_t> &Out) {
    Out.insert(Out.end(), Pt.begin(), Pt.end());
  };
  EXPECT_EQ(checkScheduleEquivalence(P, Key), "");
}

TEST(ExecutorTest, PerStepParallelShuffleIsSafe) {
  // Points within one canonical time step carry no dependences; shuffling
  // them must not change the result.
  ir::StencilProgram P = ir::makeHeat2D(12, 4);
  ScheduleKeyIntoFn Key = [](std::span<const int64_t> Pt,
                             std::vector<int64_t> &Out) {
    Out.push_back(Pt[0]);
  };
  ScheduleRunOptions Opts;
  Opts.ShuffleSeed = 1234567;
  Opts.ParallelFrom = 1;
  EXPECT_EQ(checkScheduleEquivalence(P, Key, Opts), "");
}

TEST(ExecutorTest, IllegalScheduleIsDetected) {
  // A fully shuffled execution order violates the flow dependences; the
  // checker must report a mismatch. (Note that merely reversing time is
  // not a sufficient negative test: for some step counts the rotating
  // buffers alias so that reversal reproduces the forward results.)
  ir::StencilProgram P = ir::makeJacobi2D(10, 4);
  ScheduleKeyIntoFn Chaos = [](std::span<const int64_t>,
                               std::vector<int64_t> &) {};
  ScheduleRunOptions Opts;
  Opts.ShuffleSeed = 99991;
  Opts.ParallelFrom = 0;
  EXPECT_NE(checkScheduleEquivalence(P, Chaos, Opts), "");
}

TEST(ExecutorTest, StreamingReplayBoundsInstanceBuffer) {
  // The streaming generator must never materialize the whole domain: the
  // peak resident buffer is one leading-key band, and the bands partition
  // the instances.
  ir::StencilProgram P = ir::makeJacobi2D(24, 12);
  ScheduleRunOptions Opts;
  ReplayStats Stats;
  Opts.Stats = &Stats;
  // A classical-style banded key: time bands of 4, row-major inside.
  ScheduleKeyIntoFn Key = [](std::span<const int64_t> Pt,
                             std::vector<int64_t> &Out) {
    Out.push_back(Pt[0] / 4);
    Out.push_back(Pt[0] % 4);
    Out.push_back(Pt[1]);
    Out.push_back(Pt[2]);
  };
  EXPECT_EQ(checkScheduleEquivalence(P, Key, Opts), "");
  core::IterationDomain D = core::IterationDomain::forProgram(P);
  size_t Total = static_cast<size_t>(D.numPoints());
  EXPECT_EQ(Stats.Instances, Total);
  EXPECT_EQ(Stats.Bands, 3u); // 12 canonical steps / bands of 4.
  EXPECT_EQ(Stats.PeakBandInstances, Total / 3);
  EXPECT_LT(Stats.PeakBandInstances, Total);
  EXPECT_GE(Stats.Wavefronts, Stats.Bands);
}

TEST(ExecutorTest, StreamingReplayStatsUnderThreadPool) {
  // Same schedule on the pooled backend: identical wavefront decomposition,
  // identical result.
  ir::StencilProgram P = ir::makeHeat2D(14, 6);
  ThreadPoolBackend Pool(4);
  ScheduleRunOptions Opts;
  Opts.BackendOverride = &Pool;
  Opts.ParallelFrom = 1; // Time sequential, space parallel: always legal.
  ReplayStats Stats;
  Opts.Stats = &Stats;
  ScheduleKeyIntoFn Key = [](std::span<const int64_t> Pt,
                             std::vector<int64_t> &Out) {
    Out.push_back(Pt[0]);
  };
  EXPECT_EQ(checkScheduleEquivalence(P, Key, Opts), "");
  core::IterationDomain D = core::IterationDomain::forProgram(P);
  EXPECT_EQ(Stats.Instances, static_cast<size_t>(D.numPoints()));
  EXPECT_EQ(Stats.Bands, static_cast<size_t>(D.TimeExtent));
  EXPECT_EQ(Stats.Wavefronts, Stats.Bands); // One front per time step.
  EXPECT_EQ(Stats.MaxWavefrontInstances,
            static_cast<size_t>(D.numSpatialPoints()));
}

TEST(ExecutorTest, PerTimeSliceEnumerationMatchesFullEnumeration) {
  core::IterationDomain D =
      core::IterationDomain::forProgram(ir::makeGradient2D(9, 3));
  std::vector<std::vector<int64_t>> Full, Sliced;
  D.forEachPoint([&](std::span<const int64_t> Pt) {
    Full.emplace_back(Pt.begin(), Pt.end());
  });
  for (int64_t T = 0; T < D.TimeExtent; ++T)
    D.forEachPointAtTime(T, [&](std::span<const int64_t> Pt) {
      Sliced.emplace_back(Pt.begin(), Pt.end());
    });
  EXPECT_EQ(Full, Sliced);
  EXPECT_EQ(static_cast<int64_t>(Full.size()), D.numPoints());
  EXPECT_EQ(D.numPoints(), D.TimeExtent * D.numSpatialPoints());
}

TEST(ExecutorTest, ZeroNumThreadsResolvesToHardwareConcurrency) {
  unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(resolveNumThreads(0), Hw);
  EXPECT_EQ(resolveNumThreads(3), 3u);
  ThreadPoolBackend Backend(0);
  EXPECT_EQ(Backend.concurrency(), Hw);
}

TEST(ExecutorTest, NegativeNumThreadsIsRejectedWithClearError) {
  try {
    resolveNumThreads(-4);
    FAIL() << "negative thread count must be rejected";
  } catch (const std::invalid_argument &E) {
    EXPECT_NE(std::string(E.what()).find("-4"), std::string::npos)
        << E.what();
    EXPECT_NE(std::string(E.what()).find("NumThreads"), std::string::npos)
        << E.what();
  }
  // The same validation guards the backend factory: a pool requested with
  // a negative count fails fast instead of spawning a bogus pool.
  EXPECT_THROW(makeBackend(BackendKind::ThreadPool, -1),
               std::invalid_argument);
}

TEST(ExecutorTest, MultiStatementReferenceOrder) {
  // fdtd: hz reads the ex/ey updated in the same step; executing in
  // canonical order must differ from executing hz first. Just validate the
  // canonical order against a manual mini-run.
  ir::StencilProgram P = ir::makeFdtd2D(6, 1);
  GridStorage S(P, [](unsigned F, std::span<const int64_t> C) {
    return static_cast<float>(F + 1) * 0.125f *
           static_cast<float>(C[0] + 2 * C[1]);
  });
  GridStorage Manual = S;
  runReference(P, S);

  // Manual: ey, ex over full domain, then hz.
  auto Ey = [&](int64_t I, int64_t J) {
    int64_t C[2] = {I, J}, W[2] = {I - 1, J};
    return Manual.at(0, -1, C) -
           0.5f * (Manual.at(2, -1, C) - Manual.at(2, -1, W));
  };
  int64_t C[2] = {2, 3};
  EXPECT_FLOAT_EQ(S.at(0, 0, C), Ey(2, 3));
}
