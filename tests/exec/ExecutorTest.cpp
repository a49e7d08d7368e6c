//===- ExecutorTest.cpp - Reference/schedule executor tests ------------------===//

#include "exec/Executor.h"
#include "harness/StencilOracle.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <map>
#include <stdexcept>
#include <string>
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

namespace {

/// One replay's wavefront stream: each wavefront's points, flat, in order.
using Stream = std::vector<std::vector<int64_t>>;

/// The stream streamWavefronts must produce, by brute force: every instance
/// materialized in forEachPoint order, stably sorted by the sequential
/// prefix, then by the seeded tie (the whole key when unseeded), and cut
/// into wavefronts where the prefix changes. Fills the streaming counters
/// of \p Stats the generator must reproduce.
Stream materializedStream(const core::IterationDomain &D,
                          const ScheduleKeyIntoFn &Key,
                          const WavefrontOptions &Opts, ReplayStats &Stats) {
  struct Instance {
    std::vector<int64_t> Key, Point;
    uint64_t Tie = 0;
  };
  std::vector<Instance> All;
  D.forEachPoint([&](std::span<const int64_t> Pt) {
    Instance I;
    Key(Pt, I.Key);
    I.Point.assign(Pt.begin(), Pt.end());
    I.Tie = Opts.ShuffleSeed;
    for (int64_t V : Pt)
      I.Tie = mix64(I.Tie ^ static_cast<uint64_t>(V));
    All.push_back(std::move(I));
  });
  size_t SeqLen = Opts.ParallelFrom < 0
                      ? SIZE_MAX
                      : static_cast<size_t>(Opts.ParallelFrom);
  auto prefix = [&](const Instance &I) {
    return std::span<const int64_t>(I.Key).first(
        std::min(I.Key.size(), SeqLen));
  };
  std::ranges::stable_sort(All, [&](const Instance &A, const Instance &B) {
    if (!std::ranges::equal(prefix(A), prefix(B)))
      return std::ranges::lexicographical_compare(prefix(A), prefix(B));
    if (Opts.ShuffleSeed != 0)
      return A.Tie < B.Tie;
    return std::ranges::lexicographical_compare(A.Key, B.Key);
  });

  std::map<int64_t, size_t> PerBand;
  for (const Instance &I : All)
    ++PerBand[I.Key.empty() ? 0 : I.Key[0]];
  Stats.Instances = All.size();
  Stats.Bands = SeqLen == 0 ? 1 : PerBand.size();
  Stats.PeakBandInstances = SeqLen == 0 ? All.size() : 0;
  for (const auto &[Lead, Count] : PerBand)
    Stats.PeakBandInstances = std::max(Stats.PeakBandInstances, Count);

  Stream Out;
  for (size_t I = 0; I < All.size(); ++I) {
    if (I == 0 || !std::ranges::equal(prefix(All[I]), prefix(All[I - 1])))
      Out.emplace_back();
    Out.back().insert(Out.back().end(), All[I].Point.begin(),
                      All[I].Point.end());
  }
  Stats.Wavefronts = Out.size();
  for (const std::vector<int64_t> &W : Out)
    Stats.MaxWavefrontInstances =
        std::max(Stats.MaxWavefrontInstances, W.size() / (D.rank() + 1));
  return Out;
}

} // namespace

TEST(ExecutorTest, StreamMatchesMaterializedOrder) {
  // The generator bands, radix-orders and splits instances; the brute-force
  // stream is the order it must reproduce exactly -- point for point, not
  // just in final fields -- for the oracle's four keyed families under
  // natural and permuted blocks, at the schedule's parallel split, all
  // sequential (-1) and all parallel (0), plus an empty key.
  harness::OracleTiling T{2, 4, {4}, 4};
  ScheduleKeyIntoFn Empty = [](std::span<const int64_t>,
                               std::vector<int64_t> &) {};
  size_t Cases = 0;
  for (const ir::StencilProgram &P : {ir::makeJacobi2D(20, 6),
                                       ir::makeFdtd2D(16, 4),
                                       ir::makeHeat3D(10, 3)}) {
    core::IterationDomain D = core::IterationDomain::forProgram(P);
    for (uint64_t Seed : {uint64_t{0}, uint64_t{0x5eed}}) {
      std::vector<std::pair<std::string, harness::OracleSchedule>> Keys;
      for (harness::ScheduleKind K :
           {harness::ScheduleKind::Hex, harness::ScheduleKind::Hybrid,
            harness::ScheduleKind::Classical, harness::ScheduleKind::Diamond}) {
        Keys.emplace_back(harness::scheduleKindName(K),
                          harness::makeOracleSchedule(P, K, T, Seed));
        ASSERT_TRUE(Keys.back().second.Key) << Keys.back().second.Skipped;
      }
      Keys.emplace_back("empty", harness::OracleSchedule{Empty, 1, ""});
      for (const auto &[Name, S] : Keys)
        for (int ParallelFrom : {S.ParallelFrom, -1, 0}) {
          SCOPED_TRACE(P.name() + " " + Name + " seed=" +
                       std::to_string(Seed) +
                       " ParallelFrom=" + std::to_string(ParallelFrom));
          WavefrontOptions Opts{Seed, ParallelFrom};
          ReplayStats Want, Got;
          Stream Expected = materializedStream(D, S.Key, Opts, Want);
          Stream Actual;
          streamWavefronts(
              D, S.Key, Opts,
              [&](const Wavefront &W) {
                Actual.emplace_back(W.FlatPoints.begin(), W.FlatPoints.end());
              },
              &Got);
          ASSERT_EQ(Actual.size(), Expected.size());
          for (size_t W = 0; W < Actual.size(); ++W)
            ASSERT_EQ(Actual[W], Expected[W]) << "wavefront " << W;
          EXPECT_EQ(Got.Instances, Want.Instances);
          EXPECT_EQ(Got.Bands, Want.Bands);
          EXPECT_EQ(Got.Wavefronts, Want.Wavefronts);
          EXPECT_EQ(Got.MaxWavefrontInstances, Want.MaxWavefrontInstances);
          EXPECT_EQ(Got.PeakBandInstances, Want.PeakBandInstances);
          ++Cases;
        }
    }
  }
  EXPECT_EQ(Cases, 90u);
}

TEST(ExecutorTest, MixedLengthKeysAreRejectedBeforeAnyInstanceRuns) {
  // One key length per replay: a key that grows a component only on even
  // rows is refused by the first sweep, naming both lengths, before any
  // instance executes -- on the banded path and on the materializing one.
  ir::StencilProgram P = ir::makeJacobi2D(10, 3);
  core::IterationDomain D = core::IterationDomain::forProgram(P);
  ScheduleKeyIntoFn Ragged = [](std::span<const int64_t> Pt,
                                std::vector<int64_t> &Out) {
    Out.push_back(Pt[0]);
    if (Pt[1] % 2 == 0)
      Out.push_back(Pt[1]);
  };
  auto Init = [](unsigned F, std::span<const int64_t> C) {
    return static_cast<float>(F + C[0] * 3 + C[1]);
  };
  for (int ParallelFrom : {-1, 1, 0}) {
    SCOPED_TRACE("ParallelFrom=" + std::to_string(ParallelFrom));
    GridStorage Fresh(P, Init), S(P, Init);
    ScheduleRunOptions Opts;
    Opts.ParallelFrom = ParallelFrom;
    try {
      runSchedule(P, S, D, Ragged, Opts);
      ADD_FAILURE() << "mixed-length keys must be rejected";
    } catch (const std::invalid_argument &E) {
      std::string Msg = E.what();
      EXPECT_NE(Msg.find("length 1"), std::string::npos) << Msg;
      EXPECT_NE(Msg.find("length 2"), std::string::npos) << Msg;
    }
    for (unsigned F = 0; F < S.numFields(); ++F)
      EXPECT_TRUE(std::ranges::equal(S.field(F), Fresh.field(F))) << F;
  }
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
