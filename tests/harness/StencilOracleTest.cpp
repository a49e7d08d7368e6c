//===- StencilOracleTest.cpp - Randomized differential tests ------------------===//
//
// Differential testing of every schedule family against the naive row-major
// executor (the style used to validate overlapped-tiling schedules in
// arXiv:1909.07190 and cross-model tile sweeps in arXiv:1001.1718): each
// gallery stencil runs over randomized grid sizes, tile parameters and
// initial/boundary values, under several pseudo-random serializations of the
// parallel dimensions, and the final fields must agree bit-exactly. Every
// case derives from a logged RNG seed, so any failure reproduces from the
// test output alone.
//
//===----------------------------------------------------------------------===//

#include "harness/StencilOracle.h"

#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <random>

using namespace hextile;
using namespace hextile::harness;

namespace {

/// Portable FNV-1a (std::hash is implementation-defined, which would make
/// logged seeds irreproducible across standard libraries).
uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (char C : S) {
    H ^= static_cast<unsigned char>(C);
    H *= 0x100000001b3ull;
  }
  return H;
}

/// Seed of one stencil's sweep. HEXTILE_ORACLE_SEED, when set, is used
/// *verbatim* for every sweep, so pasting a logged seed reproduces the
/// failing sweep exactly.
uint64_t sweepSeed(const std::string &Name) {
  if (const char *Env = std::getenv("HEXTILE_ORACLE_SEED"))
    return std::strtoull(Env, nullptr, 0);
  return 0x48455854494c4531ull /* "HEXTILE1" */ ^ fnv1a(Name);
}

/// Sizes a gallery program down to oracle scale with randomized,
/// deliberately non-cubic grids (distinct extents exercise the boundary
/// handling of every dimension).
ir::StencilProgram randomizedProgram(const std::string &Name,
                                     std::mt19937_64 &Rng) {
  ir::StencilProgram P = ir::makeByName(Name);
  EXPECT_FALSE(P.name().empty()) << "unknown gallery stencil " << Name;
  bool Is3D = P.spaceRank() >= 3;
  std::uniform_int_distribution<int64_t> Size(Is3D ? 8 : 12, Is3D ? 14 : 26);
  std::uniform_int_distribution<int64_t> Steps(3, Is3D ? 5 : 9);
  std::vector<int64_t> Sizes;
  for (unsigned D = 0; D < P.spaceRank(); ++D)
    Sizes.push_back(Size(Rng));
  P.setSpaceSizes(Sizes);
  P.setTimeSteps(Steps(Rng));
  return P;
}

OracleTiling randomizedTiling(std::mt19937_64 &Rng, unsigned Rank) {
  std::uniform_int_distribution<int64_t> H(1, 3);
  std::uniform_int_distribution<int64_t> W0(1, 5);
  std::uniform_int_distribution<int64_t> Inner(2, 6);
  std::uniform_int_distribution<int64_t> DiamondP(2, 7);
  OracleTiling T;
  T.H = H(Rng);
  T.W0 = W0(Rng);
  for (unsigned D = 1; D < Rank; ++D)
    T.InnerWidths.push_back(Inner(Rng));
  T.DiamondPeriod = DiamondP(Rng);
  return T;
}

/// One backend configuration of the sweep: the kind plus the simulated
/// device count (meaningful for DeviceSim only).
struct BackendSpec {
  exec::BackendKind Kind;
  unsigned NumDevices;

  std::string str() const {
    std::string S = exec::backendKindName(Kind);
    if (Kind == exec::BackendKind::DeviceSim)
      S += std::to_string(NumDevices);
    return S;
  }
};

class StencilOracleSweep
    : public ::testing::TestWithParam<
          std::tuple<const char *, BackendSpec>> {};

} // namespace

/// The headline differential sweep: for each gallery stencil, at least
/// three randomized tile-parameter points, each checked for bit-exact
/// agreement between the naive executor and all four schedule families --
/// once replayed serially, and once with every wavefront's parallel
/// instances spread across a 4-thread pool (real concurrency,
/// so an illegal tiling shows up as a data race, not just a bad
/// serialization). The RNG draws are identical for both backends, so a
/// pooled failure reproduces serially from the same logged seed.
TEST_P(StencilOracleSweep, SchedulesMatchNaiveExecutor) {
  const std::string Name = std::get<0>(GetParam());
  BackendSpec Backend = std::get<1>(GetParam());
  uint64_t Seed = sweepSeed(Name);
  std::mt19937_64 Rng(Seed);
  SCOPED_TRACE(::testing::Message()
               << "stencil=" << Name << " backend=" << Backend.str()
               << " sweep seed=0x" << std::hex << Seed
               << " (set HEXTILE_ORACLE_SEED to this value to reproduce)");
  for (int Point = 0; Point < 3; ++Point) {
    ir::StencilProgram P = randomizedProgram(Name, Rng);
    OracleTiling T = randomizedTiling(Rng, P.spaceRank());
    OracleOptions Opts;
    Opts.Seed = Rng();
    Opts.NumShuffles = 3;
    Opts.Backend = Backend.Kind;
    Opts.NumThreads = 4;
    Opts.NumDevices = Backend.NumDevices;
    EXPECT_EQ(runDifferentialAllKinds(P, T, Opts), "")
        << "tile point " << Point << ", tiling{" << T.str() << "}, seed=0x"
        << std::hex << Opts.Seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Gallery, StencilOracleSweep,
    ::testing::Combine(
        ::testing::Values("jacobi1d", "jacobi2d", "laplacian2d", "heat2d",
                          "gradient2d", "fdtd2d", "laplacian3d", "heat3d",
                          "gradient3d", "skewed1d", "wave2d", "varheat2d",
                          "heat2d4"),
        // The DeviceSim columns race the two-phase barrier at 1/2/4
        // devices (bit-exactness is the race detector; under TSan it is
        // also a happens-before proof).
        ::testing::Values(
            BackendSpec{exec::BackendKind::Serial, 0},
            BackendSpec{exec::BackendKind::ThreadPool, 0},
            BackendSpec{exec::BackendKind::DeviceSim, 1},
            BackendSpec{exec::BackendKind::DeviceSim, 2},
            BackendSpec{exec::BackendKind::DeviceSim, 4})),
    [](const ::testing::TestParamInfo<
        std::tuple<const char *, BackendSpec>> &I) {
      return std::string(std::get<0>(I.param)) + "_" +
             std::get<1>(I.param).str();
    });

/// Degenerate extremes the randomized sweep rarely draws: minimal tiles,
/// minimal grids, single time step, and a tall-skinny iteration space.
TEST(StencilOracleTest, DegenerateTilesAndGrids) {
  ir::StencilProgram P = ir::makeJacobi2D(6, 1);
  OracleTiling T;
  T.H = 1;
  T.W0 = 1;
  T.InnerWidths = {1};
  T.DiamondPeriod = 2;
  EXPECT_EQ(runDifferentialAllKinds(P, T), "");

  ir::StencilProgram Tall = ir::makeJacobi1D(8, 20);
  OracleTiling T2;
  T2.H = 6;
  T2.W0 = 2;
  EXPECT_EQ(runDifferentialAllKinds(Tall, T2), "");
}

/// Tiles larger than the whole iteration space must degenerate gracefully.
TEST(StencilOracleTest, TilesLargerThanDomain) {
  ir::StencilProgram P = ir::makeHeat2D(10, 3);
  OracleTiling T;
  T.H = 12;
  T.W0 = 40;
  T.InnerWidths = {64};
  T.DiamondPeriod = 50;
  EXPECT_EQ(runDifferentialAllKinds(P, T), "");
}

/// The multi-statement program (fdtd: ey/ex/hz with same-step reads) is the
/// sharpest probe of the canonical-time interleaving.
TEST(StencilOracleTest, MultiStatementProgram) {
  ir::StencilProgram P = ir::makeFdtd2D(14, 4);
  OracleTiling T;
  T.H = 2;
  T.W0 = 3;
  T.InnerWidths = {5};
  OracleOptions Opts;
  Opts.NumShuffles = 4;
  EXPECT_EQ(runDifferentialAllKinds(P, T, Opts), "");
}

/// Rational cone slopes (skewed1d: delta0 = 1, delta1 = 2) exercise the
/// fractional-skew paths of the hexagonal and classical constructions, and
/// must make the oracle *skip* diamond tiling (slopes > 1 are outside its
/// legality domain).
TEST(StencilOracleTest, SteepConeSkipsDiamond) {
  ir::StencilProgram P = ir::makeSkewedExample1D(40, 8);
  OracleTiling T;
  T.H = 2;
  T.W0 = 4;
  OracleSchedule S = makeOracleSchedule(P, ScheduleKind::Diamond, T);
  EXPECT_EQ(S.Key, nullptr);
  EXPECT_NE(S.Skipped.find("slopes"), std::string::npos) << S.Skipped;
  // The other three families handle the steep cone.
  for (ScheduleKind K :
       {ScheduleKind::Hex, ScheduleKind::Hybrid, ScheduleKind::Classical})
    EXPECT_EQ(runDifferential(P, K, T), "") << scheduleKindName(K);
}

/// The oracle must *detect* an illegal schedule: claiming the sequential
/// local-time dimension of the hex schedule as parallel violates the
/// intra-tile flow dependences for some shuffle.
TEST(StencilOracleTest, DetectsIllegalSchedule) {
  ir::StencilProgram P = ir::makeJacobi2D(18, 6);
  OracleTiling T;
  T.H = 2;
  T.W0 = 3;
  OracleSchedule S = makeOracleSchedule(P, ScheduleKind::Hex, T);
  ASSERT_NE(S.Key, nullptr);
  exec::ScheduleRunOptions Opts;
  Opts.ParallelFrom = 0; // Illegally parallelize T, phase and local time.
  bool Caught = false;
  for (uint64_t Seed : {0x1111ull, 0x2222ull, 0x3333ull}) {
    Opts.ShuffleSeed = Seed;
    if (!exec::checkScheduleEquivalence(P, S.Key, Opts).empty())
      Caught = true;
  }
  EXPECT_TRUE(Caught)
      << "fully parallel replay never diverged -- oracle has no teeth";
}

/// The compiler's schedule key and the oracle's hybrid key permute the
/// thread blocks with one hash (exec::permuteBlock), so a logged oracle
/// seed serializes the blocks of a CompiledHybrid replay identically.
TEST(StencilOracleTest, CompiledHybridKeyMatchesOracleHybridKey) {
  ir::StencilProgram P = ir::makeHeat2D(20, 6);
  OracleTiling T;
  T.H = 2;
  T.W0 = 3;
  T.InnerWidths = {5};
  const uint64_t Seed = 0x2545f4914f6cdd1dull;
  exec::ScheduleKeyIntoFn Compiled =
      compileOracleHybrid(P, T, {}).scheduleKey(Seed);
  OracleSchedule Oracle =
      makeOracleSchedule(P, ScheduleKind::Hybrid, T, Seed);
  ASSERT_NE(Oracle.Key, nullptr);
  std::vector<int64_t> A, B;
  size_t Points = 0, Mismatches = 0;
  core::IterationDomain::forProgram(P).forEachPoint(
      [&](std::span<const int64_t> Pt) {
        A.clear();
        B.clear();
        Compiled(Pt, A);
        Oracle.Key(Pt, B);
        ++Points;
        if (A != B)
          ++Mismatches;
      });
  EXPECT_GT(Points, 0u);
  EXPECT_EQ(Mismatches, 0u) << "of " << Points << " points";
}

/// Agreement is invariant under the randomized initial values: two
/// different seeds both pass (distinct data, same bit-exact verdict).
TEST(StencilOracleTest, SeedVariationStaysBitExact) {
  ir::StencilProgram P = ir::makeGradient2D(16, 5);
  OracleTiling T;
  T.H = 1;
  T.W0 = 2;
  T.InnerWidths = {4};
  for (uint64_t Seed : {0xabcdefull, 0x1234567ull}) {
    OracleOptions Opts;
    Opts.Seed = Seed;
    EXPECT_EQ(runDifferentialAllKinds(P, T, Opts), "")
        << "seed=0x" << std::hex << Seed;
  }
}

/// The OracleOptions::ShimThreads override: the fourth mechanism compiles
/// a *parallel* unit (HT_LAUNCH_1D dispatching blocks across worker
/// teams) when the axis is set, without touching EmitConfig -- and the
/// result stays bit-exact against the reference.
TEST(StencilOracleTest, ShimThreadsOverrideRunsParallelEmittedUnit) {
  if (!emittedMechanismAvailable())
    GTEST_SKIP() << "no system C++ compiler; emitted mechanism not run";
  ir::StencilProgram P = ir::makeJacobi2D(16, 5);
  OracleTiling T;
  T.H = 1;
  T.W0 = 2;
  T.InnerWidths = {5};
  OracleOptions Opts;
  Opts.RunEmitted = true;
  Opts.NumShuffles = 1;
  Opts.ShimThreads = 2; // Overrides EmitConfig.ShimThreads (still 0).
  EXPECT_EQ(Opts.EmitConfig.ShimThreads, 0);
  EXPECT_EQ(runDifferential(P, ScheduleKind::Hybrid, T, Opts), "");
}
