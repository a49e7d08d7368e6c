//===- AutoTunerTest.cpp - The measurement-driven tuning fleet ------------===//
//
// End-to-end semantics of the autotuner: a smoke tune of jacobi1d through
// a real CompileService whose winner replays bit-exact against the naive
// reference executor; the measured-winner >= analytic-pick guarantee; the
// cache-leverage claim (a second tune of the same program performs zero
// new compiles); the time-budget cutoff leaving a valid partial result;
// and the TuningTable JSON round trip (including rejection of malformed
// input). Measurement tests skip cleanly without a system compiler.
//
//===----------------------------------------------------------------------===//

#include "tune/AutoTuner.h"

#include "codegen/HybridCompiler.h"
#include "exec/FieldStorage.h"
#include "harness/HostKernelRunner.h"
#include "ir/StencilGallery.h"

#include <gtest/gtest.h>

using namespace hextile;
using namespace hextile::tune;

namespace {

/// A deliberately small sweep so the test tunes in seconds: six rank-1
/// geometries, two ladder rungs, hybrid flavor only, serial shim.
AutoTunerOptions smallSweep() {
  AutoTunerOptions Opts;
  Opts.Space.MaxH = 3;
  Opts.Space.W0Widths = {2, 3};
  Opts.Rungs = {'a', 'd'};
  Opts.Flavors = {codegen::EmitSchedule::Hybrid};
  Opts.ShimThreads = {0};
  Opts.Samples = 2;
  Opts.Warmups = 1;
  return Opts;
}

ir::StencilProgram smallJacobi1D() {
  ir::StencilProgram P = ir::makeJacobi1D(256, 32);
  return P;
}

TunedEntry sampleEntry() {
  TunedEntry E;
  E.Program = "heat2d";
  E.H = 2;
  E.W0 = 3;
  E.InnerWidths = {8, 32};
  E.Rung = 'c';
  E.Flavor = "classical";
  E.ShimThreads = 4;
  E.MeasuredGStencils = 1.25;
  E.AnalyticGStencils = 1.0;
  E.ModelLoadToCompute = 0.375;
  E.GapPct = 25.0;
  return E;
}

} // namespace

//===----------------------------------------------------------------------===//
// The fleet end-to-end.
//===----------------------------------------------------------------------===//

TEST(AutoTunerTest, SmokeTuneReplaysBitExactAndBeatsNothingAnalytic) {
  if (!service::JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; tuning measurements skip";

  service::CompileService Svc;
  AutoTuner Tuner(Svc, smallSweep());
  ir::StencilProgram P = smallJacobi1D();

  TuneResult R = Tuner.tune(P);
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Program, "jacobi1d");
  EXPECT_GT(R.EnumeratedGeometries, 0u);
  EXPECT_GT(R.AdmissibleGeometries, 0u);
  EXPECT_GT(R.NewCompiles, 0u);

  // The analytic pick is candidate 0 and was measured.
  ASSERT_EQ(R.AnalyticIndex, 0);
  EXPECT_TRUE(R.Candidates[0].IsAnalyticPick);
  EXPECT_TRUE(R.Candidates[0].Measured);
  // More than one candidate was actually measured: this is a sweep, not
  // a single-point evaluation.
  size_t NumMeasured = 0;
  for (const TunedCandidate &C : R.Candidates)
    NumMeasured += C.Measured;
  EXPECT_GT(NumMeasured, 1u);

  // The headline invariant: the measured winner is at least as fast as
  // the analytic pick, because the analytic pick is itself a candidate.
  ASSERT_GE(R.WinnerIndex, 0);
  EXPECT_GE(R.Candidates[R.WinnerIndex].GStencilsPerSec,
            R.Candidates[0].GStencilsPerSec);
  EXPECT_GE(R.gapPct(), 0.0);

  // The winner replays bit-exact: re-request its exact key from the
  // service (a pure cache hit) and differential-test the entry point
  // against the naive reference executor.
  std::optional<TunedEntry> E = R.entry();
  ASSERT_TRUE(E.has_value());
  const TunedCandidate &W = R.Candidates[R.WinnerIndex];
  service::CompileRequest WinnerReq;
  WinnerReq.Program = P;
  WinnerReq.Tiling.H = W.Geometry.H;
  WinnerReq.Tiling.W0 = W.Geometry.W0;
  WinnerReq.Tiling.InnerWidths = W.Geometry.InnerWidths;
  WinnerReq.Config = E->tunedSizes().Config;
  WinnerReq.Flavor = W.Flavor;
  service::CompileResult Replay = Svc.compile(WinnerReq);
  ASSERT_TRUE(Replay.ok()) << Replay.Error;
  EXPECT_EQ(Replay.Stats.How, service::RequestOutcome::MemoryHit);
  EXPECT_EQ(harness::runEntryDifferential(P, Replay.Artifact->entry(),
                                          exec::defaultInit,
                                          "tuned winner " + W.str()),
            "");

  // The "use tuned sizes" compiler path realizes the winner's geometry.
  codegen::CompiledHybrid Tuned =
      codegen::compileHybridTuned(P, E->tunedSizes());
  EXPECT_EQ(Tuned.schedule().params().H, W.Geometry.H);
  EXPECT_EQ(Tuned.schedule().params().W0, W.Geometry.W0);
  EXPECT_EQ(Tuned.config().ShimThreads, W.ShimThreads);
}

TEST(AutoTunerTest, SecondTunePerformsZeroNewCompiles) {
  if (!service::JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; tuning measurements skip";

  service::CompileService Svc;
  AutoTuner Tuner(Svc, smallSweep());
  ir::StencilProgram P = smallJacobi1D();

  TuneResult First = Tuner.tune(P);
  ASSERT_TRUE(First.ok()) << First.Error;
  EXPECT_GT(First.NewCompiles, 0u);

  // The fleet's cache leverage: every candidate key is resident, so the
  // re-tune is measurement-only.
  TuneResult Second = Tuner.tune(P);
  ASSERT_TRUE(Second.ok()) << Second.Error;
  EXPECT_EQ(Second.NewCompiles, 0u);
  for (const TunedCandidate &C : Second.Candidates) {
    if (C.Measured) {
      EXPECT_EQ(C.How, service::RequestOutcome::MemoryHit)
          << C.str();
    }
  }
  // Same candidate space, same winner geometry scoring story.
  EXPECT_EQ(Second.Candidates.size(), First.Candidates.size());
}

TEST(AutoTunerTest, TimeBudgetCutoffLeavesValidPartialResult) {
  if (!service::JitUnit::available())
    GTEST_SKIP() << "no system C++ compiler; tuning measurements skip";

  service::CompileService Svc;
  AutoTunerOptions Opts = smallSweep();
  // The compile fleet alone exceeds this, so every candidate after the
  // analytic pick is skipped.
  Opts.TimeBudgetMs = 0.001;
  AutoTuner Tuner(Svc, Opts);
  TuneResult R = Tuner.tune(smallJacobi1D());

  // Still a valid result: the analytic pick was measured before the
  // budget was consulted, and it is the winner by default.
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_TRUE(R.BudgetExhausted);
  EXPECT_EQ(R.WinnerIndex, 0);
  EXPECT_TRUE(R.Candidates[0].Measured);
  size_t Skipped = 0;
  for (const TunedCandidate &C : R.Candidates)
    Skipped += C.SkippedByBudget;
  EXPECT_GT(Skipped, 0u);
  EXPECT_EQ(R.gapPct(), 0.0);
  std::optional<TunedEntry> E = R.entry();
  ASSERT_TRUE(E.has_value());
  EXPECT_EQ(E->GapPct, 0.0);
}

//===----------------------------------------------------------------------===//
// The durable table.
//===----------------------------------------------------------------------===//

TEST(AutoTunerTest, TuningTableJsonRoundTrips) {
  TuningTable Table("gtx470");
  Table.put(sampleEntry());
  TunedEntry Second;
  Second.Program = "jacobi1d";
  Second.H = 3;
  Second.W0 = 4;
  Second.Rung = 'a';
  Second.Flavor = "hex";
  Second.MeasuredGStencils = 0.5;
  Table.put(Second);
  // Every flavor the tuner can pick must survive the round trip.
  TunedEntry Third = Second;
  Third.Program = "heat3d";
  Third.InnerWidths = {4, 32};
  Third.Flavor = "overlapped";
  Table.put(Third);

  std::string Json = Table.toJson();
  std::string Err;
  std::optional<TuningTable> Back = TuningTable::fromJson(Json, &Err);
  ASSERT_TRUE(Back.has_value()) << Err;
  EXPECT_EQ(Back->device(), "gtx470");
  ASSERT_EQ(Back->size(), 3u);
  ASSERT_NE(Back->lookup("heat2d"), nullptr);
  EXPECT_TRUE(*Back->lookup("heat2d") == sampleEntry());
  ASSERT_NE(Back->lookup("jacobi1d"), nullptr);
  EXPECT_TRUE(*Back->lookup("jacobi1d") == Second);
  ASSERT_NE(Back->lookup("heat3d"), nullptr);
  EXPECT_TRUE(*Back->lookup("heat3d") == Third);
  EXPECT_EQ(Back->lookup("nosuch"), nullptr);

  // put() replaces by program name instead of duplicating rows.
  TunedEntry Updated = sampleEntry();
  Updated.MeasuredGStencils = 9.0;
  Back->put(Updated);
  EXPECT_EQ(Back->size(), 3u);
  EXPECT_EQ(Back->lookup("heat2d")->MeasuredGStencils, 9.0);

  // Standard JSON out and in: control characters are escaped on write (a
  // raw tab would make the table invalid JSON), every escape is decoded
  // on read (\uXXXX and surrogate pairs as UTF-8), and unknown fields of
  // any JSON type are ignored.
  std::string Tabbed = TuningTable("gtx\t470").toJson();
  EXPECT_EQ(Tabbed.find('\t'), std::string::npos) << Tabbed;
  std::optional<TuningTable> TabBack = TuningTable::fromJson(Tabbed, &Err);
  ASSERT_TRUE(TabBack.has_value()) << Err;
  EXPECT_EQ(TabBack->device(), "gtx\t470");
  std::optional<TuningTable> Escaped = TuningTable::fromJson(
      R"({"device": "gtx\u00e9\n\ud83d\ude00", "entries": []})", &Err);
  ASSERT_TRUE(Escaped.has_value()) << Err;
  EXPECT_EQ(Escaped->device(), "gtx\xc3\xa9\n\xf0\x9f\x98\x80");
  std::optional<TuningTable> Flagged = TuningTable::fromJson(
      R"({"device": "x", "entries": [], "calibrated": true})", &Err);
  ASSERT_TRUE(Flagged.has_value()) << Err;
  EXPECT_EQ(Flagged->device(), "x");
}

TEST(AutoTunerTest, TuningTableRejectsMalformedJson) {
  std::string Err;
  EXPECT_FALSE(TuningTable::fromJson("{", &Err).has_value());
  EXPECT_FALSE(Err.empty());
  EXPECT_FALSE(TuningTable::fromJson("42", &Err).has_value());
  // Structurally valid JSON but no entries array.
  EXPECT_FALSE(
      TuningTable::fromJson("{\"device\": \"x\"}", &Err).has_value());
  EXPECT_NE(Err.find("entries"), std::string::npos);
  // An entry without a program name.
  EXPECT_FALSE(TuningTable::fromJson(
                   "{\"entries\": [{\"h\": 1, \"w0\": 2}]}", &Err)
                   .has_value());
  // A bad rung letter.
  EXPECT_FALSE(
      TuningTable::fromJson("{\"entries\": [{\"program\": \"p\", "
                            "\"h\": 1, \"w0\": 2, \"rung\": \"z\"}]}",
                            &Err)
          .has_value());
}

TEST(AutoTunerTest, TunedSizesRealizeRungAndShim) {
  TunedEntry E = sampleEntry();
  E.Rung = 'a';
  codegen::TunedSizes T = E.tunedSizes();
  EXPECT_EQ(T.H, E.H);
  EXPECT_EQ(T.W0, E.W0);
  EXPECT_EQ(T.InnerWidths, E.InnerWidths);
  EXPECT_EQ(T.Config.Rung, 'a');
  EXPECT_EQ(T.Config.ShimThreads, 4);

  for (codegen::EmitSchedule S :
       {codegen::EmitSchedule::Hex, codegen::EmitSchedule::Hybrid,
        codegen::EmitSchedule::Classical, codegen::EmitSchedule::Overlapped})
    EXPECT_EQ(emitScheduleByName(codegen::emitScheduleName(S)), S);
  EXPECT_FALSE(emitScheduleByName("cuda").has_value());
}
